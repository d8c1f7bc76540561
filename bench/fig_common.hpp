// Shared plumbing for the figure-reproduction benches.
//
// Every fig* binary regenerates one panel of the paper's evaluation: it
// builds the systems at the paper's §V configuration, runs the figure's
// workload, and prints the measured series next to the paper's analytical
// overlay curves, exactly as the figure plots them. Pass --quick to run a
// reduced-scale smoke version.
#pragma once

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/theorems.hpp"
#include "common/thread_pool.hpp"
#include "harness/experiments.hpp"
#include "harness/setup.hpp"
#include "harness/table.hpp"
#include "obs/analyze.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace lorm::bench {

struct BenchOptions {
  bool quick = false;   ///< reduced-scale smoke run
  bool cache = false;   ///< enable the adaptive caching layer (--cache)
  bool plan = false;    ///< enable the selectivity-driven planner (--plan)
  bool csv = false;     ///< machine-readable table rows
  bool json = false;    ///< emit a machine-readable summary line at exit
  std::size_t jobs = 1; ///< worker threads (--jobs; default hw concurrency)
  bool metrics = false;          ///< record + emit the metrics registry
  std::string metrics_file;      ///< --metrics=<file>: write JSON there
  std::string trace_file;        ///< --trace=<file>: per-query JSON lines
  bool analyze = false;          ///< --analyze: post-hoc trace report at exit
  /// --timeline[=<file>]: sim-time-bucketed telemetry (dynamic benches
  /// only). Empty file = print the JSONL to stdout.
  bool timeline = false;
  std::string timeline_file;
  double timeline_window = 0;    ///< --timeline-window=<s>; 0 = bench default
  /// --flight[=<file>]: enable the protocol flight recorder. With a file
  /// the ring is dumped there at exit; without one it is only dumped on a
  /// detected anomaly (--analyze path).
  bool flight = false;
  std::string flight_file;
  std::chrono::steady_clock::time_point start;  ///< bench wall-clock origin
};

namespace detail {
/// The trace sinks (and the file stream) installed by ParseOptions;
/// function-local statics so every bench binary gets them without a bench
/// .cpp to link. --trace=<file> installs the JSONL sink, --analyze an
/// in-memory collector FinishBench aggregates, both a tee.
inline std::ofstream& TraceStream() {
  static std::ofstream stream;
  return stream;
}
inline std::unique_ptr<obs::JsonLinesTraceSink>& TraceSinkSlot() {
  static std::unique_ptr<obs::JsonLinesTraceSink> sink;
  return sink;
}
inline std::unique_ptr<obs::MemoryTraceSink>& AnalyzeSinkSlot() {
  static std::unique_ptr<obs::MemoryTraceSink> sink;
  return sink;
}
inline std::unique_ptr<obs::TeeTraceSink>& TeeSinkSlot() {
  static std::unique_ptr<obs::TeeTraceSink> sink;
  return sink;
}
}  // namespace detail

/// Exits with code 2 (usage error) after naming the offending argument.
[[noreturn]] inline void RejectFlag(const char* arg, const char* why) {
  std::cerr << "error: " << why << ": " << arg << "\n";
  std::exit(2);
}

/// The unsigned integer spelled by all of `text` (the value part of `arg`);
/// rejects an empty value, a sign, trailing garbage and overflow.
inline std::size_t ParseCount(const char* arg, const char* text) {
  if (*text < '0' || *text > '9') RejectFlag(arg, "expected a count");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) RejectFlag(arg, "expected a count");
  return static_cast<std::size_t>(v);
}

/// The finite, non-negative number spelled by all of `text`.
inline double ParseNonNegative(const char* arg, const char* text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v) ||
      v < 0) {
    RejectFlag(arg, "expected a non-negative number");
  }
  return v;
}

/// Parses the shared bench flags. Any other argument is a usage error
/// (exit code 2) unless `own_flag` — a bench's hook for its own flags —
/// accepts it.
inline BenchOptions ParseOptions(
    int argc, char** argv,
    const std::function<bool(const char*)>& own_flag = nullptr) {
  BenchOptions opt;
  opt.jobs = ResolveJobs(0);
  const auto value_of = [](const char* arg, const char* prefix) {
    const std::size_t len = std::strlen(prefix);
    return std::strncmp(arg, prefix, len) == 0 ? arg + len : nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    // `--jobs N` takes its value from the next argument.
    const auto next = [&] {
      if (i + 1 >= argc) RejectFlag(arg, "missing value");
      return argv[++i];
    };
    if (std::strcmp(arg, "--quick") == 0) {
      opt.quick = true;
    } else if (std::strcmp(arg, "--cache") == 0) {
      opt.cache = true;
    } else if (std::strcmp(arg, "--plan") == 0) {
      opt.plan = true;
    } else if (std::strcmp(arg, "--csv") == 0) {
      opt.csv = true;
    } else if (std::strcmp(arg, "--json") == 0) {
      opt.json = true;
    } else if (std::strcmp(arg, "--analyze") == 0) {
      opt.analyze = true;
    } else if (std::strcmp(arg, "--metrics") == 0) {
      opt.metrics = true;
    } else if ((v = value_of(arg, "--metrics=")) != nullptr) {
      opt.metrics = true;
      opt.metrics_file = v;
    } else if ((v = value_of(arg, "--trace=")) != nullptr) {
      opt.trace_file = v;
    } else if (std::strcmp(arg, "--timeline") == 0) {
      opt.timeline = true;
    } else if ((v = value_of(arg, "--timeline=")) != nullptr) {
      opt.timeline = true;
      opt.timeline_file = v;
    } else if ((v = value_of(arg, "--timeline-window=")) != nullptr) {
      opt.timeline = true;
      opt.timeline_window = ParseNonNegative(arg, v);
    } else if (std::strcmp(arg, "--flight") == 0) {
      opt.flight = true;
    } else if ((v = value_of(arg, "--flight=")) != nullptr) {
      opt.flight = true;
      opt.flight_file = v;
    } else if (std::strcmp(arg, "--jobs") == 0) {
      opt.jobs = ResolveJobs(ParseCount(arg, next()));
    } else if ((v = value_of(arg, "--jobs=")) != nullptr) {
      opt.jobs = ResolveJobs(ParseCount(arg, v));
    } else if (!own_flag || !own_flag(arg)) {
      RejectFlag(arg, "unknown flag");
    }
  }
  harness::TablePrinter::SetCsvMode(opt.csv);
  if (opt.metrics) obs::SetMetricsEnabled(true);
  if (opt.flight) obs::SetFlightEnabled(true);
  if (!opt.trace_file.empty()) {
    detail::TraceStream().open(opt.trace_file);
    if (!detail::TraceStream()) {
      std::cerr << "cannot open trace file: " << opt.trace_file << "\n";
      std::exit(2);
    }
    detail::TraceSinkSlot() =
        std::make_unique<obs::JsonLinesTraceSink>(detail::TraceStream());
  }
  if (opt.analyze) {
    detail::AnalyzeSinkSlot() = std::make_unique<obs::MemoryTraceSink>();
  }
  if (detail::TraceSinkSlot() != nullptr &&
      detail::AnalyzeSinkSlot() != nullptr) {
    detail::TeeSinkSlot() = std::make_unique<obs::TeeTraceSink>(
        *detail::TraceSinkSlot(), *detail::AnalyzeSinkSlot());
    obs::SetGlobalTraceSink(detail::TeeSinkSlot().get());
  } else if (detail::TraceSinkSlot() != nullptr) {
    obs::SetGlobalTraceSink(detail::TraceSinkSlot().get());
  } else if (detail::AnalyzeSinkSlot() != nullptr) {
    obs::SetGlobalTraceSink(detail::AnalyzeSinkSlot().get());
  }
  opt.start = std::chrono::steady_clock::now();
  return opt;
}

/// Wall-clock summary every bench prints before exiting. With --json it
/// additionally emits one machine-readable line.
inline void FinishBench(const BenchOptions& opt, const std::string& name) {
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - opt.start)
          .count();
  std::cout << "\nwall-clock: " << harness::TablePrinter::Num(wall_ms, 1)
            << " ms (jobs=" << opt.jobs << ")\n";
  if (opt.json) {
    std::cout << "{\"bench\":\"" << name << "\",\"jobs\":" << opt.jobs
              << ",\"quick\":" << (opt.quick ? "true" : "false")
              << ",\"wall_ms\":" << harness::TablePrinter::Num(wall_ms, 3)
              << "}\n";
  }
  if (opt.metrics) {
    if (opt.metrics_file.empty()) {
      std::cout << "metrics: ";
      obs::Registry::Global().WriteJson(std::cout);
      std::cout << "\n";
    } else {
      std::ofstream mf(opt.metrics_file);
      if (!mf) {
        std::cerr << "cannot open metrics file: " << opt.metrics_file << "\n";
        std::exit(2);
      }
      obs::Registry::Global().WriteJson(mf);
      mf << "\n";
    }
  }
  obs::TraceSink* installed =
      detail::TeeSinkSlot() != nullptr
          ? static_cast<obs::TraceSink*>(detail::TeeSinkSlot().get())
          : detail::TraceSinkSlot() != nullptr
                ? static_cast<obs::TraceSink*>(detail::TraceSinkSlot().get())
                : static_cast<obs::TraceSink*>(detail::AnalyzeSinkSlot().get());
  if (installed != nullptr && obs::GetGlobalTraceSink() == installed) {
    obs::SetGlobalTraceSink(nullptr);
    if (detail::AnalyzeSinkSlot() != nullptr) {
      // In-process post-hoc report over everything this bench traced. The
      // theorem-drift comparison needs the system model — that is
      // lorm-analyze's job (--expect); here we report distributions, load
      // profiles and anomalies.
      const auto report =
          obs::AnalyzeTraces(detail::AnalyzeSinkSlot()->Take());
      std::cout << "\n";
      obs::RenderReport(std::cout, report);
      if (opt.flight && !report.anomalies.empty()) {
        // Every detected anomaly ships with the flight recorder's view of
        // the protocol events that led up to it.
        std::cout << "\nflight recorder (dumped on anomaly):\n";
        obs::DumpFlightOnAnomaly(report, std::cout);
      }
    }
    detail::TeeSinkSlot().reset();
    detail::AnalyzeSinkSlot().reset();
    detail::TraceSinkSlot().reset();
    detail::TraceStream().close();
  }
  if (opt.flight && !opt.flight_file.empty()) {
    std::ofstream ff(opt.flight_file);
    if (!ff) {
      std::cerr << "cannot open flight file: " << opt.flight_file << "\n";
      std::exit(2);
    }
    obs::FlightRecorder::Global().WriteJsonLines(ff);
  }
}

/// One sampler per harness run (--timeline), or nullptr when telemetry is
/// off. `default_window` is the bench's natural bucket width in sim
/// seconds (churn: sim time; failures: 1.0 so each phase owns a window);
/// --timeline-window overrides it.
inline std::unique_ptr<obs::TimelineSampler> MakeTimelineSampler(
    const BenchOptions& opt, double default_window) {
  if (!opt.timeline) return nullptr;
  obs::TimelineConfig cfg;
  cfg.window = opt.timeline_window > 0 ? opt.timeline_window : default_window;
  return std::make_unique<obs::TimelineSampler>(cfg);
}

/// Writes a bench's timeline sample to --timeline=<file>, or to stdout
/// under a header when no file was given. Call after the harness finished
/// (the sampler must be Finish()ed by then).
inline void WriteTimeline(const BenchOptions& opt,
                          const obs::TimelineSampler& sampler) {
  if (!opt.timeline) return;
  if (opt.timeline_file.empty()) {
    std::cout << "\ntimeline:\n";
    sampler.WriteJsonLines(std::cout);
    return;
  }
  // Benches can call this once per system; append after the first write so
  // one file carries the whole run.
  static bool opened = false;
  std::ofstream tf(opt.timeline_file,
                   opened ? std::ios::app : std::ios::trunc);
  if (!tf) {
    std::cerr << "cannot open timeline file: " << opt.timeline_file << "\n";
    std::exit(2);
  }
  opened = true;
  sampler.WriteJsonLines(tf);
}

/// The paper's setup, or a proportionally reduced one for --quick runs.
inline harness::Setup FigureSetup(const BenchOptions& opt) {
  harness::Setup s = opt.quick ? harness::Setup::Quick() : harness::Setup::Paper();
  s.cache = opt.cache;
  s.plan = opt.plan;
  return s;
}

inline analysis::SystemModel ModelOf(const harness::Setup& s) {
  analysis::SystemModel m;
  m.n = s.nodes;
  m.m = s.attributes;
  m.k = s.infos_per_attribute;
  m.d = s.dimension;
  return m;
}

/// Builds a system and advertises the workload's m*k tuples through it.
inline std::unique_ptr<discovery::DiscoveryService> BuildPopulated(
    harness::SystemKind kind, const harness::Setup& setup,
    const resource::Workload& workload) {
  auto service = harness::MakeService(kind, setup, workload.registry());
  std::vector<NodeAddr> providers;
  for (std::size_t i = 0; i < setup.nodes; ++i) {
    providers.push_back(static_cast<NodeAddr>(i));
  }
  Rng rng(setup.seed ^ 0xBEEF);
  harness::AdvertiseAll(*service, workload.GenerateInfos(providers, rng));
  return service;
}

inline void PrintSetup(const harness::Setup& s, std::size_t queries = 0) {
  std::cout << "setup: n=" << s.nodes << " nodes, m=" << s.attributes
            << " attributes, k=" << s.infos_per_attribute
            << " pieces/attribute, Cycloid d=" << s.dimension << ", Chord "
            << s.chord_bits << "-bit";
  if (queries > 0) std::cout << ", " << queries << " queries/point";
  std::cout << "\n\n";
}

}  // namespace lorm::bench
