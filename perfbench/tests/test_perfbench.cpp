// Self-tests of the benchmark: aggregation rules, the strict command line,
// run-to-run determinism of the counted metrics, and the metric names
// against BENCHMARK.json.
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(GeoMean, AggregatesPositiveValues) {
  EXPECT_DOUBLE_EQ(*GeoMean({1.0, 4.0}), 2.0);
  EXPECT_NEAR(*GeoMean({2.0, 8.0, 4.0}), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(*GeoMean({3.5}), 3.5);
  // A 2x change on any one system moves the aggregate equally.
  EXPECT_NEAR(*GeoMean({2.0, 100.0}) / *GeoMean({1.0, 100.0}),
              *GeoMean({1.0, 200.0}) / *GeoMean({1.0, 100.0}), 1e-12);
}

TEST(GeoMean, RejectsEmptyAndNonPositive) {
  EXPECT_FALSE(GeoMean({}).has_value());
  EXPECT_FALSE(GeoMean({1.0, 0.0}).has_value());
  EXPECT_FALSE(GeoMean({1.0, -2.0}).has_value());
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(*Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(*Median({4, 1, 3, 2}), 2.5);
  EXPECT_FALSE(Median({}).has_value());
}

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(ReportablePercentile, NeedsTenSamplesBeyond) {
  // p99 of 1000 samples is the 990th; ten samples lie beyond it.
  EXPECT_DOUBLE_EQ(*ReportablePercentile(Ramp(1000), 0.99), 990);
  EXPECT_FALSE(ReportablePercentile(Ramp(999), 0.99).has_value());
  EXPECT_DOUBLE_EQ(*ReportablePercentile(Ramp(100), 0.90), 90);
  EXPECT_FALSE(ReportablePercentile(Ramp(99), 0.90).has_value());
  EXPECT_DOUBLE_EQ(*ReportablePercentile(Ramp(20), 0.50), 10);
  EXPECT_FALSE(ReportablePercentile(Ramp(19), 0.50).has_value());
  EXPECT_FALSE(ReportablePercentile({}, 0.5).has_value());
}

TEST(BandPercentile, AveragesAroundThePercentile) {
  // Ranks 170..190 of 1..200 average to 180.
  EXPECT_DOUBLE_EQ(*BandPercentile(Ramp(200), 0.90, 0.05), 180);
  EXPECT_DOUBLE_EQ(*BandPercentile(Ramp(100), 0.50, 0.0), 50);
  // Ten samples must lie beyond the band's upper edge.
  EXPECT_TRUE(BandPercentile(Ramp(200), 0.90, 0.05).has_value());
  EXPECT_FALSE(BandPercentile(Ramp(199), 0.90, 0.05).has_value());
  EXPECT_FALSE(BandPercentile(Ramp(100), 0.97, 0.05).has_value());
}

TEST(BandPercentile, MovesSmoothlyAcrossAModeEdge) {
  // A second mode whose share crosses 10%: nearest rank jumps, the band
  // moves by a fraction of the gap.
  const auto two_modes = [](std::size_t expensive) {
    std::vector<double> v(300 - expensive, 30.0);
    v.insert(v.end(), expensive, 90.0);
    return v;
  };
  const double below = *BandPercentile(two_modes(27), 0.90, 0.05);
  const double above = *BandPercentile(two_modes(33), 0.90, 0.05);
  EXPECT_LT(above - below, 0.25 * (90 - 30));
  EXPECT_DOUBLE_EQ(*ReportablePercentile(two_modes(27), 0.90), 30);
  EXPECT_DOUBLE_EQ(*ReportablePercentile(two_modes(33), 0.90), 90);
}

ParseOutcome Parse(std::vector<std::string> args) { return ParseArgs(args); }

TEST(CommandLine, AcceptsTheMeasurementFlags) {
  const auto ok = Parse({"--workload", "range", "--seed", "42", "--seconds", "10",
                         "--trace", "1"});
  ASSERT_TRUE(ok.options.has_value()) << ok.error;
  EXPECT_EQ(ok.options->workload, WorkloadKind::kRange);
  EXPECT_EQ(ok.options->seed, 42u);
  EXPECT_DOUBLE_EQ(ok.options->seconds, 10);
  EXPECT_TRUE(ok.options->trace);
  for (const char* w : {"point", "range", "churn", "hotspot"}) {
    EXPECT_TRUE(Parse({"--workload", w}).options.has_value()) << w;
  }
}

TEST(CommandLine, RejectsAnythingElse) {
  const std::vector<std::vector<std::string>> bad = {
      {},
      {"--workload"},
      {"--workload", "scan"},
      {"--workload", "point", "--bogus", "1"},
      {"--workload", "point", "--seed", "12x"},
      {"--workload", "point", "--seed", "-3"},
      {"--workload", "point", "--seconds", "abc"},
      {"--workload", "point", "--seconds", "0"},
      {"--workload", "point", "--trace", "2"},
      {"--workload", "point", "--scale", "huge"},
      {"point"},
  };
  for (const auto& args : bad) {
    EXPECT_FALSE(Parse(args).options.has_value()) << ::testing::PrintToString(args);
  }
}

int ExitCode(const std::string& args) {
  const int status = std::system((std::string(PERFBENCH_BIN) + " " + args +
                                  " >/dev/null 2>&1").c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CommandLine, BadInvocationsExitWithCode2) {
  EXPECT_EQ(ExitCode("--workload nope"), 2);
  EXPECT_EQ(ExitCode("--workload point --frobnicate 1"), 2);
  EXPECT_EQ(ExitCode("--workload point --seed 1.5"), 2);
  EXPECT_EQ(ExitCode("--workload point --seconds ten"), 2);
}

Options Small(WorkloadKind w, std::uint64_t seed, bool trace = false) {
  Options o;
  o.workload = w;
  o.seed = seed;
  o.seconds = 0.3;
  o.trace = trace;
  o.small = true;
  return o;
}

double Value(const Report& r, const std::string& name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "metric " << name << " missing";
  return -1;
}

void ExpectDeterministic(WorkloadKind w) {
  const Report a = RunBenchmark(Small(w, 7));
  const Report b = RunBenchmark(Small(w, 7));
  const Report c = RunBenchmark(Small(w, 8));
  for (const Report* r : {&a, &b, &c}) {
    EXPECT_TRUE(r->correct);
    EXPECT_EQ(r->failed, 0u);
  }
  const char* counted[] = {"hops_per_query", "visited_per_query",
                           "maint_bytes_per_node_s"};
  for (const char* name : counted) {
    EXPECT_EQ(Value(a, name), Value(b, name)) << name;
    EXPECT_GT(Value(a, name), 0) << name;
  }
  EXPECT_EQ(a.answer_digest, b.answer_digest);
  EXPECT_NE(a.answer_digest, c.answer_digest);
  EXPECT_NE(Value(a, "hops_per_query"), Value(c, "hops_per_query"));
  EXPECT_NE(Value(a, "maint_bytes_per_node_s"), Value(c, "maint_bytes_per_node_s"));
}

TEST(Determinism, PointRepeatsAtOneSeed) { ExpectDeterministic(WorkloadKind::kPoint); }
TEST(Determinism, RangeRepeatsAtOneSeed) { ExpectDeterministic(WorkloadKind::kRange); }
TEST(Determinism, ChurnRepeatsAtOneSeed) { ExpectDeterministic(WorkloadKind::kChurn); }
TEST(Determinism, HotspotRepeatsAtOneSeed) { ExpectDeterministic(WorkloadKind::kHotspot); }

/// Metric names of one BENCHMARK.json section ("end_to_end"/"per_layer").
std::vector<std::string> JsonSectionNames(const std::string& json,
                                          const std::string& section,
                                          const std::string& next) {
  const auto begin = json.find("\"" + section + "\"");
  const auto end = next.empty() ? std::string::npos : json.find("\"" + next + "\"");
  EXPECT_NE(begin, std::string::npos) << section;
  const std::string body = json.substr(begin, end == std::string::npos ? end : end - begin);
  std::vector<std::string> names;
  const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]+)\"");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    names.push_back((*it)[1]);
  }
  return names;
}

std::string ReadBenchmarkJson() {
  std::ifstream in(PERFBENCH_JSON);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> Printed(const Report& r) {
  std::vector<std::string> names;
  for (const Metric& m : r.metrics) names.push_back(m.name);
  return names;
}

TEST(MetricNames, MatchBenchmarkJson) {
  const std::string json = ReadBenchmarkJson();
  ASSERT_FALSE(json.empty()) << "cannot read " << PERFBENCH_JSON;
  const auto e2e = JsonSectionNames(json, "end_to_end", "per_layer");
  const auto layer = JsonSectionNames(json, "per_layer", "");
  EXPECT_EQ(e2e, EndToEndMetricNames());
  EXPECT_EQ(layer, PerLayerMetricNames());
  EXPECT_EQ(std::set<std::string>(layer.begin(), layer.end()).size(), layer.size());
  for (const WorkloadKind w : {WorkloadKind::kPoint, WorkloadKind::kChurn,
                               WorkloadKind::kHotspot}) {
    EXPECT_EQ(Printed(RunBenchmark(Small(w, 3))), e2e) << WorkloadName(w);
    const Report traced = RunBenchmark(Small(w, 3, /*trace=*/true));
    EXPECT_TRUE(traced.correct) << WorkloadName(w);
    EXPECT_EQ(Printed(traced), layer) << WorkloadName(w);
  }
}

TEST(ResultLine, HasExactlyTheContractKeys) {
  Report r;
  r.attempted = 3;
  r.metrics.push_back(Metric{"setup_s", 0.5, "s"});
  EXPECT_EQ(ResultLine(r),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace perfbench
