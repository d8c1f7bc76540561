#include "resource/machine.hpp"

#include <sstream>

#include "common/error.hpp"

namespace lorm::resource {
namespace {

constexpr double kCpuMin = 500, kCpuMax = 5000;        // MHz
constexpr double kMemMin = 256, kMemMax = 65536;       // MB
constexpr double kDiskMin = 10, kDiskMax = 20000;      // GB
constexpr double kNetMin = 10, kNetMax = 40000;        // Mbps

const std::vector<std::string>& OsNames() {
  static const std::vector<std::string> names = {"AIX", "FreeBSD", "Linux",
                                                 "Solaris", "Windows"};
  return names;
}

}  // namespace

std::vector<AttrId> RegisterGridSchema(AttributeRegistry& registry) {
  std::vector<AttrId> ids;
  ids.push_back(registry.RegisterNumeric(kAttrCpuMhz, kCpuMin, kCpuMax));
  ids.push_back(registry.RegisterNumeric(kAttrMemMb, kMemMin, kMemMax));
  ids.push_back(registry.RegisterNumeric(kAttrDiskGb, kDiskMin, kDiskMax));
  ids.push_back(registry.RegisterNumeric(kAttrNetMbps, kNetMin, kNetMax));
  ids.push_back(registry.RegisterText(kAttrOs, OsNames()));
  return ids;
}

std::vector<ResourceInfo> Machine::Advertise(
    const AttributeRegistry& registry) const {
  auto need = [&](const char* name) {
    const auto id = registry.Find(name);
    LORM_CHECK_MSG(id.has_value(), "grid schema not registered");
    return *id;
  };
  std::vector<ResourceInfo> out;
  out.push_back({need(kAttrCpuMhz), AttrValue::Number(cpu_mhz), addr});
  out.push_back({need(kAttrMemMb), AttrValue::Number(mem_mb), addr});
  out.push_back({need(kAttrDiskGb), AttrValue::Number(disk_gb), addr});
  out.push_back({need(kAttrNetMbps), AttrValue::Number(net_mbps), addr});
  const AttrId os_id = need(kAttrOs);
  out.push_back({os_id, registry.Get(os_id).TextValue(os), addr});
  return out;
}

std::string Machine::ToString() const {
  std::ostringstream os_;
  os_ << FormatNodeAddr(addr) << " {cpu " << cpu_mhz << " MHz, mem " << mem_mb
      << " MB, disk " << disk_gb << " GB, net " << net_mbps << " Mbps, os "
      << os << "}";
  return os_.str();
}

Machine RandomMachine(NodeAddr addr, Rng& rng) {
  static const BoundedPareto cpu(1.2, kCpuMin, kCpuMax);
  static const BoundedPareto mem(1.0, kMemMin, kMemMax);
  static const BoundedPareto disk(0.8, kDiskMin, kDiskMax);
  static const BoundedPareto net(1.0, kNetMin, kNetMax);

  Machine m;
  m.addr = addr;
  m.cpu_mhz = cpu.Sample(rng);
  m.mem_mb = mem.Sample(rng);
  m.disk_gb = disk.Sample(rng);
  m.net_mbps = net.Sample(rng);
  // Weighted OS choice: grids skew heavily toward Linux.
  const double u = rng.NextDouble();
  if (u < 0.70) {
    m.os = "Linux";
  } else if (u < 0.80) {
    m.os = "FreeBSD";
  } else if (u < 0.88) {
    m.os = "Solaris";
  } else if (u < 0.95) {
    m.os = "Windows";
  } else {
    m.os = "AIX";
  }
  return m;
}

}  // namespace lorm::resource
