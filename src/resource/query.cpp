#include "resource/query.hpp"

#include <sstream>

#include "common/error.hpp"

namespace lorm::resource {

bool MultiQuery::IsRangeQuery() const {
  for (const auto& s : subs) {
    if (!s.IsPoint()) return true;
  }
  return false;
}

std::string MultiQuery::ToString(const AttributeRegistry& registry) const {
  std::ostringstream os;
  os << "query from " << FormatNodeAddr(requester) << " {";
  for (std::size_t i = 0; i < subs.size(); ++i) {
    if (i) os << ", ";
    const auto& s = subs[i];
    const AttributeSchema& schema = registry.Get(s.attr);
    os << schema.name();
    if (s.IsPoint()) {
      os << " = " << schema.Format(s.range.lo);
    } else {
      os << " in [" << schema.Format(s.range.lo) << ", "
         << schema.Format(s.range.hi) << "]";
    }
  }
  os << "}";
  return os.str();
}

QueryBuilder::QueryBuilder(const AttributeRegistry& registry,
                           NodeAddr requester)
    : registry_(registry) {
  query_.requester = requester;
}

AttrId QueryBuilder::MustFind(std::string_view attr) const {
  const auto id = registry_.Find(attr);
  if (!id) throw ConfigError("unknown attribute: " + std::string(attr));
  return *id;
}

QueryBuilder& QueryBuilder::Equals(std::string_view attr, double value) {
  query_.subs.push_back(
      SubQuery{MustFind(attr), ValueRange::Point(AttrValue::Number(value))});
  return *this;
}

QueryBuilder& QueryBuilder::Equals(std::string_view attr,
                                   std::string_view value) {
  const AttrId id = MustFind(attr);
  query_.subs.push_back(
      SubQuery{id, ValueRange::Point(registry_.Get(id).TextValue(value))});
  return *this;
}

QueryBuilder& QueryBuilder::AtLeast(std::string_view attr, double value) {
  const AttrId id = MustFind(attr);
  query_.subs.push_back(SubQuery{
      id, ValueRange::AtLeast(registry_.Get(id), AttrValue::Number(value))});
  return *this;
}

QueryBuilder& QueryBuilder::AtMost(std::string_view attr, double value) {
  const AttrId id = MustFind(attr);
  query_.subs.push_back(SubQuery{
      id, ValueRange::AtMost(registry_.Get(id), AttrValue::Number(value))});
  return *this;
}

QueryBuilder& QueryBuilder::Between(std::string_view attr, double lo,
                                    double hi) {
  query_.subs.push_back(
      SubQuery{MustFind(attr),
               ValueRange::Between(AttrValue::Number(lo), AttrValue::Number(hi))});
  return *this;
}

}  // namespace lorm::resource
