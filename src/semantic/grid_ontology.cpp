#include "semantic/grid_ontology.hpp"

#include "common/error.hpp"
#include "resource/machine.hpp"

namespace lorm::semantic {
namespace {

using resource::AttrValue;
using resource::SubQuery;
using resource::ValueRange;

AttrId Need(const resource::AttributeRegistry& registry, const char* name) {
  const auto id = registry.Find(name);
  if (!id) {
    throw ConfigError(std::string("grid schema attribute missing: ") + name);
  }
  return *id;
}

SubQuery OsEquals(const resource::AttributeRegistry& registry,
                  const std::string& os) {
  const AttrId id = Need(registry, resource::kAttrOs);
  return SubQuery{id, ValueRange::Point(registry.Get(id).TextValue(os))};
}

SubQuery AtLeast(const resource::AttributeRegistry& registry, const char* attr,
                 double value) {
  const AttrId id = Need(registry, attr);
  return SubQuery{id, ValueRange::AtLeast(registry.Get(id),
                                          AttrValue::Number(value))};
}

SubQuery AtMost(const resource::AttributeRegistry& registry, const char* attr,
                double value) {
  const AttrId id = Need(registry, attr);
  return SubQuery{id, ValueRange::AtMost(registry.Get(id),
                                         AttrValue::Number(value))};
}

}  // namespace

GridOntology MakeGridOntology(const resource::AttributeRegistry& registry) {
  GridOntology g;

  // Platform branch: OS families. The inner "unix" concept carries no
  // binding of its own — requests for it fan out over its children.
  g.platform = g.taxonomy.AddRoot("platform");
  g.unix_like = g.taxonomy.AddChild(g.platform, "unix");
  g.os_linux = g.taxonomy.AddChild(g.unix_like, "linux");
  g.os_solaris = g.taxonomy.AddChild(g.unix_like, "solaris");
  g.os_freebsd = g.taxonomy.AddChild(g.unix_like, "freebsd");
  g.os_aix = g.taxonomy.AddChild(g.unix_like, "aix");
  g.os_windows = g.taxonomy.AddChild(g.platform, "windows");
  g.bindings.Bind(g.os_linux, {OsEquals(registry, "Linux")});
  g.bindings.Bind(g.os_solaris, {OsEquals(registry, "Solaris")});
  g.bindings.Bind(g.os_freebsd, {OsEquals(registry, "FreeBSD")});
  g.bindings.Bind(g.os_aix, {OsEquals(registry, "AIX")});
  g.bindings.Bind(g.os_windows, {OsEquals(registry, "Windows")});

  // Tier branch: capability classes. "server" carries its own predicate and
  // the leaves refine it — inheritance ANDs them together.
  g.tier = g.taxonomy.AddRoot("tier");
  g.workstation = g.taxonomy.AddChild(g.tier, "workstation");
  g.server = g.taxonomy.AddChild(g.tier, "server");
  g.hpc = g.taxonomy.AddChild(g.server, "hpc");
  g.storage = g.taxonomy.AddChild(g.server, "storage");
  g.bindings.Bind(g.workstation,
                  {AtMost(registry, resource::kAttrCpuMhz, 1500.0)});
  g.bindings.Bind(g.server, {AtLeast(registry, resource::kAttrCpuMhz, 1500.0)});
  g.bindings.Bind(g.hpc, {AtLeast(registry, resource::kAttrCpuMhz, 2000.0),
                          AtLeast(registry, resource::kAttrMemMb, 4096.0)});
  g.bindings.Bind(g.storage,
                  {AtLeast(registry, resource::kAttrDiskGb, 2000.0)});
  return g;
}

}  // namespace lorm::semantic
