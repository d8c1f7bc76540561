#include <charconv>
#include <cmath>

#include "bench.hpp"

namespace perfbench {

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kPoint: return "point";
    case WorkloadKind::kRange: return "range";
    case WorkloadKind::kChurn: return "churn";
    case WorkloadKind::kHotspot: return "hotspot";
  }
  return "?";
}

std::optional<WorkloadKind> ParseWorkload(std::string_view name) {
  for (const auto kind : {WorkloadKind::kPoint, WorkloadKind::kRange,
                          WorkloadKind::kChurn, WorkloadKind::kHotspot}) {
    if (name == WorkloadName(kind)) return kind;
  }
  return std::nullopt;
}

namespace {

std::optional<std::uint64_t> ParseU64(const std::string& s) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

std::optional<double> ParsePositive(const std::string& s) {
  double v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  if (!std::isfinite(v) || v <= 0 || v > 3600) return std::nullopt;
  return v;
}

}  // namespace

ParseOutcome ParseArgs(const std::vector<std::string>& args) {
  Options opt;
  bool have_workload = false;
  const auto fail = [](std::string msg) { return ParseOutcome{std::nullopt, std::move(msg)}; };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (i + 1 >= args.size()) return fail("missing value for " + flag);
    const std::string& value = args[++i];
    if (flag == "--workload") {
      const auto w = ParseWorkload(value);
      if (!w) return fail("unknown workload '" + value + "'");
      opt.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      const auto v = ParseU64(value);
      if (!v) return fail("malformed --seed '" + value + "'");
      opt.seed = *v;
    } else if (flag == "--seconds") {
      const auto v = ParsePositive(value);
      if (!v) return fail("malformed --seconds '" + value + "'");
      opt.seconds = *v;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return fail("--trace takes 0 or 1, not '" + value + "'");
      }
      opt.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "paper" && value != "small") {
        return fail("--scale takes paper or small, not '" + value + "'");
      }
      opt.small = value == "small";
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      return fail("unknown flag '" + flag + "'");
    }
  }
  if (!have_workload) return fail("--workload is required");
  return ParseOutcome{opt, ""};
}

}  // namespace perfbench
