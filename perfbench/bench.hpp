// The paper-scale five-system benchmark: public entry points.
//
// One run builds LORM, Mercury, SWORD, MAAN and D1HT at the paper's §V
// scale, replays one workload against them from a single thread in a
// closed loop, checks every answer, and reports metrics by name with their
// units. See perfbench/README.md for the workloads and the metric map.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class WorkloadKind { kPoint, kRange, kChurn, kHotspot };

const char* WorkloadName(WorkloadKind kind);
std::optional<WorkloadKind> ParseWorkload(std::string_view name);

struct Options {
  WorkloadKind workload = WorkloadKind::kPoint;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< measured time of one run
  bool trace = false;   ///< traced run: per-layer metrics instead
  /// Setup::Small() instead of the paper's scale (self-tests only).
  bool small = false;
  /// Where a traced run writes its span log (empty: not written).
  std::string trace_out;
};

/// Strict command line: --workload NAME (required), --seed N, --seconds X,
/// --trace 0|1, --scale paper|small, --trace-out PATH. Any unknown flag,
/// missing value, unknown workload or malformed number is an error.
struct ParseOutcome {
  std::optional<Options> options;
  std::string error;
};
ParseOutcome ParseArgs(const std::vector<std::string>& args);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Digest of every checked answer, for determinism tests.
  std::uint64_t answer_digest = 0;
  /// Human-readable lines (problems, the where-the-time-goes table).
  std::vector<std::string> notes;
};

/// Runs one benchmark run. Throws on setup errors (e.g. a percentile
/// without enough samples beyond it).
Report RunBenchmark(const Options& options);

/// The metric names a run prints, in order: untraced and traced.
std::vector<std::string> EndToEndMetricNames();
std::vector<std::string> PerLayerMetricNames();

/// The last stdout line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string ResultLine(const Report& report);

}  // namespace perfbench
