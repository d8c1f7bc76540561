#include "resource/resource_info.hpp"

#include <sstream>

#include "common/error.hpp"

namespace lorm::resource {

std::string ResourceInfo::ToString(const AttributeRegistry& registry) const {
  std::ostringstream os;
  const AttributeSchema& schema = registry.Get(attr);
  os << "<" << schema.name() << ", " << schema.Format(value) << ", "
     << FormatNodeAddr(provider) << ">";
  return os.str();
}

ValueRange ValueRange::Point(AttrValue v) { return ValueRange{v, v}; }

ValueRange ValueRange::Between(AttrValue lo, AttrValue hi) {
  // Written so a NaN bound fails too: it would match every entry in a
  // directory scan and none in Contains.
  if (!(lo <= hi)) throw ConfigError("ValueRange needs lo <= hi");
  return ValueRange{lo, hi};
}

ValueRange ValueRange::AtLeast(const AttributeSchema& schema, AttrValue v) {
  return Between(v, schema.ValueAt(schema.ordinal_max()));
}

ValueRange ValueRange::AtMost(const AttributeSchema& schema, AttrValue v) {
  return Between(schema.ValueAt(schema.ordinal_min()), v);
}

}  // namespace lorm::resource
