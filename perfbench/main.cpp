// Command-line entry point of the paper-scale benchmark.
//
//   perfbench --workload point|range|churn|hotspot [--seed N] [--seconds X]
//             [--trace 0|1] [--trace-out PATH] [--scale paper|small]
//
// Prints notes on stderr and, as the last line of stdout, one JSON object:
// {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
// Exit codes: 0 success, 1 run error, 2 bad command line.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  const perfbench::ParseOutcome parsed = perfbench::ParseArgs(args);
  if (!parsed.options) {
    std::fprintf(stderr, "perfbench: %s\n", parsed.error.c_str());
    return 2;
  }
  try {
    const perfbench::Report report = perfbench::RunBenchmark(*parsed.options);
    for (const std::string& note : report.notes) {
      std::fprintf(stderr, "%s\n", note.c_str());
    }
    std::printf("%s\n", perfbench::ResultLine(report).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
