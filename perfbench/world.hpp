// Shared state of one benchmark run: the five systems at one scale, the
// advertised tuples, and the input generators. Internal to the benchmark.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "discovery/discovery.hpp"
#include "harness/setup.hpp"
#include "resource/workload.hpp"
#include "trace.hpp"

namespace perfbench {

inline constexpr std::size_t kSystems = 5;

/// Index of each system in World::services and in every per-system vector:
/// harness::AllSystems() order, checked when a World is made.
enum SystemIndex : std::size_t { kLorm, kMercury, kSword, kMaan, kD1ht };
inline constexpr const char* kSystemNames[kSystems] = {"LORM", "Mercury", "SWORD",
                                                       "MAAN", "D1HT"};

struct World {
  explicit World(const lorm::harness::Setup& s);

  lorm::harness::Setup setup;
  lorm::resource::Workload workload;
  std::vector<lorm::harness::SystemKind> kinds;
  std::vector<lorm::resource::ResourceInfo> infos;
  std::vector<std::unique_ptr<lorm::discovery::DiscoveryService>> services;

  /// Drops the current systems, builds all five and advertises `infos` into
  /// each (spans: harness.build, harness.advertise).
  void Build(Tracer& tracer);
  const char* name(std::size_t system) const;
};

/// Tuples of each provider address, for queries aimed at live resources.
using TuplesByProvider = std::vector<std::vector<lorm::resource::ResourceInfo>>;
TuplesByProvider GroupByProvider(
    const std::vector<lorm::resource::ResourceInfo>& infos,
    std::size_t addr_space);

/// A three-attribute point query whose values are three advertised tuples
/// of one provider (distinct attributes), so the answer is never empty while
/// that provider is live. `providers` lists the candidate providers.
lorm::resource::MultiQuery TargetedPointQuery(
    const TuplesByProvider& tuples, const std::vector<lorm::NodeAddr>& providers,
    lorm::NodeAddr requester, lorm::Rng& rng);

/// Per-run tally of answer checks. A query answer is checked against the
/// other systems' answers (majority) and, on a sample, against brute force
/// over the advertised tuples.
struct Checker {
  std::uint64_t attempted = 0;  ///< operations executed
  std::uint64_t failed = 0;     ///< failed to route, wrong answer, rejected
  std::uint64_t digest = 0xcbf29ce484222325ull;
  std::vector<std::string> problems;

  /// Checks the five answers to query `index`; `reference` (brute force)
  /// may be null. Folds the agreed answer into the digest.
  void CheckAnswers(
      std::uint64_t index,
      const std::vector<const std::vector<lorm::NodeAddr>*>& answers,
      const std::vector<lorm::NodeAddr>* reference, const World& world);
  void Fail(const std::string& problem);
  void Mix(std::uint64_t v);
};

}  // namespace perfbench
