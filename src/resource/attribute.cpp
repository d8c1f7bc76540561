#include "resource/attribute.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace lorm::resource {

AttributeSchema AttributeSchema::Numeric(std::string name, double min_value,
                                         double max_value) {
  if (!(max_value > min_value)) {
    throw ConfigError("numeric attribute needs max > min");
  }
  AttributeSchema s;
  s.name_ = std::move(name);
  s.kind_ = ValueKind::kNumeric;
  s.min_ = min_value;
  s.max_ = max_value;
  return s;
}

AttributeSchema AttributeSchema::Text(std::string name,
                                      std::vector<std::string> values) {
  if (values.empty()) throw ConfigError("text attribute needs values");
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  AttributeSchema s;
  s.name_ = std::move(name);
  s.kind_ = ValueKind::kText;
  s.min_ = 0;
  s.max_ = static_cast<double>(values.size() - 1);
  if (values.size() == 1) s.max_ = 1;  // keep a nonempty ordinal interval
  s.enum_ = std::move(values);
  return s;
}

AttrValue AttributeSchema::ValueAt(double ordinal) const {
  if (kind_ == ValueKind::kNumeric) {
    return AttrValue::Number(std::clamp(ordinal, min_, max_));
  }
  const auto last = static_cast<double>(enum_.size() - 1);
  return AttrValue::Number(std::clamp(std::round(ordinal), 0.0, last));
}

AttrValue AttributeSchema::TextValue(std::string_view name) const {
  const auto it = std::lower_bound(enum_.begin(), enum_.end(), name);
  if (kind_ != ValueKind::kText || it == enum_.end() || *it != name) {
    throw ConfigError("attribute " + name_ + " has no value '" +
                      std::string(name) + "'");
  }
  return AttrValue::Number(static_cast<double>(it - enum_.begin()));
}

std::string AttributeSchema::Format(const AttrValue& v) const {
  if (kind_ == ValueKind::kText) {
    return enum_[static_cast<std::size_t>(ValueAt(v.ordinal()).ordinal())];
  }
  std::ostringstream os;
  os << v.ordinal();
  return os.str();
}

AttrId AttributeRegistry::RegisterNumeric(std::string name, double min_value,
                                          double max_value) {
  return Add(AttributeSchema::Numeric(std::move(name), min_value, max_value));
}

AttrId AttributeRegistry::RegisterText(std::string name,
                                       std::vector<std::string> values) {
  return Add(AttributeSchema::Text(std::move(name), std::move(values)));
}

AttrId AttributeRegistry::Add(AttributeSchema schema) {
  if (Find(schema.name()).has_value()) {
    throw ConfigError("duplicate attribute name: " + schema.name());
  }
  schemas_.push_back(std::move(schema));
  return static_cast<AttrId>(schemas_.size() - 1);
}

const AttributeSchema& AttributeRegistry::Get(AttrId id) const {
  LORM_CHECK_MSG(id < schemas_.size(), "attribute id out of range");
  return schemas_[id];
}

std::optional<AttrId> AttributeRegistry::Find(std::string_view name) const {
  for (std::size_t i = 0; i < schemas_.size(); ++i) {
    if (schemas_[i].name() == name) return static_cast<AttrId>(i);
  }
  return std::nullopt;
}

}  // namespace lorm::resource
