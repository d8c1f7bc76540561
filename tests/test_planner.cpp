// The selectivity-driven query planner (`--plan`) is a pure execution-order
// optimization: for every system, cache setting and membership history, a
// planned query must return exactly the providers the classic path returns.
// These tests pin that equivalence by fuzzing twin services (planner off/on)
// with identical query streams, and cover the planner's parts in isolation:
// the estimator's directory mirroring, the join kernels and a reordered
// query served wholly from the per-sub result cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "discovery/d1ht_service.hpp"
#include "discovery/directory.hpp"
#include "discovery/join.hpp"
#include "discovery/lorm_service.hpp"
#include "discovery/maan_service.hpp"
#include "discovery/mercury_service.hpp"
#include "discovery/selectivity.hpp"
#include "discovery/sword_service.hpp"
#include "obs/metrics.hpp"
#include "service_test_util.hpp"

namespace lorm {
namespace {

using harness::SystemKind;
using testutil::MakeBed;

std::uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).Value();
}

/// Scoped metrics recording (the registry is process-global; tests read
/// counter deltas, never absolute values).
struct MetricsScope {
  MetricsScope() { obs::SetMetricsEnabled(true); }
  ~MetricsScope() { obs::SetMetricsEnabled(false); }
};

const discovery::SelectivityEstimator& EstimatorOf(
    SystemKind kind, const discovery::DiscoveryService& s) {
  switch (kind) {
    case SystemKind::kLorm:
      return dynamic_cast<const discovery::LormService&>(s).selectivity();
    case SystemKind::kMercury:
      return dynamic_cast<const discovery::MercuryService&>(s).selectivity();
    case SystemKind::kSword:
      return dynamic_cast<const discovery::SwordService&>(s).selectivity();
    case SystemKind::kD1ht:
      return dynamic_cast<const discovery::D1htService&>(s).selectivity();
    default:
      return dynamic_cast<const discovery::MaanService&>(s).selectivity();
  }
}

/// Churn applied identically to both twins: a wave of leaves frees overlay
/// positions (LORM's Cycloid starts full at the Small scale), then fresh
/// addresses join and everything restabilizes. With `crashes` a FailNode
/// wave follows: MAAN's crash-time twin reconciliation (and, replicated,
/// the successor-list restore protocol) keeps the attribute-keyed and
/// value-keyed record sets in lockstep, so planned and classic resolution
/// must agree even after abrupt failures.
void ApplyChurn(discovery::DiscoveryService& s, std::size_t n, bool crashes) {
  for (NodeAddr a = 3; a < 45; a += 7) s.LeaveNode(a);
  s.Maintain();
  for (NodeAddr a = 0; a < 3; ++a) {
    s.JoinNode(static_cast<NodeAddr>(n + a));
  }
  s.Maintain();
  if (crashes) {
    for (NodeAddr a = 50; a < 92; a += 7) s.FailNode(a);
    s.Maintain();
  }
}

void ExpectPlannerEquivalent(SystemKind kind, bool cache, bool churn,
                             bool crashes = false, std::size_t replicas = 1) {
  harness::Setup setup_off = harness::Setup::Small();
  setup_off.cache = cache;
  setup_off.replicas = replicas;
  harness::Setup setup_on = setup_off;
  setup_on.plan = true;
  auto off = MakeBed(kind, setup_off);
  auto on = MakeBed(kind, setup_on);
  if (churn) {
    ApplyChurn(*off.service, setup_off.nodes, crashes);
    ApplyChurn(*on.service, setup_on.nodes, crashes);
    ASSERT_EQ(off.service->Nodes(), on.service->Nodes());
  }

  // The estimator mirrors the directories exactly, through advertising and
  // (under churn) through every re-homed entry.
  const auto& est = EstimatorOf(kind, *on.service);
  ASSERT_TRUE(est.configured());
  EXPECT_EQ(est.TotalCount(), on.service->TotalInfoPieces());

  const auto nodes = off.service->Nodes();
  Rng rng(0xD15C0FE2ull + static_cast<std::uint64_t>(kind) * 977 +
          (cache ? 31 : 0) + (churn ? 17 : 0) + (crashes ? 131 : 0) +
          replicas * 7);
  discovery::QueryScratch s_off, s_on;
  for (int i = 0; i < 60; ++i) {
    const NodeAddr requester = nodes[rng.NextBelow(nodes.size())];
    const std::size_t attrs = 1 + rng.NextBelow(4);
    const auto q =
        i % 3 == 2
            ? off.workload->MakePointQuery(attrs, requester, rng)
            : off.workload->MakeRangeQuery(attrs, requester,
                                           resource::RangeStyle::kBounded,
                                           rng);
    const auto r_off = off.service->Query(q, s_off);
    const auto r_on = on.service->Query(q, s_on);
    ASSERT_EQ(r_off.providers, r_on.providers)
        << off.service->name() << " cache=" << cache << " churn=" << churn
        << " query " << i;
    ASSERT_EQ(r_off.per_sub.size(), r_on.per_sub.size());
    for (std::size_t sub = 0; sub < r_off.per_sub.size(); ++sub) {
      // A pruned sub-query legitimately reports no matches — but only when
      // the whole query came up empty.
      if (r_on.per_sub[sub].empty() && r_on.providers.empty()) continue;
      std::vector<NodeAddr> p_off, p_on;
      discovery::ProvidersOf(r_off.per_sub[sub], p_off);
      discovery::ProvidersOf(r_on.per_sub[sub], p_on);
      EXPECT_EQ(p_off, p_on)
          << off.service->name() << " sub " << sub << " of query " << i;
    }
  }
}

TEST(PlannerEquivalence, AllSystemsStatic) {
  for (const auto kind : harness::AllSystems()) {
    ExpectPlannerEquivalent(kind, /*cache=*/false, /*churn=*/false);
  }
}

TEST(PlannerEquivalence, AllSystemsWithResultCache) {
  for (const auto kind : harness::AllSystems()) {
    ExpectPlannerEquivalent(kind, /*cache=*/true, /*churn=*/false);
  }
}

TEST(PlannerEquivalence, AllSystemsUnderGracefulChurn) {
  for (const auto kind : harness::AllSystems()) {
    ExpectPlannerEquivalent(kind, /*cache=*/false, /*churn=*/true);
  }
}

// The crash-churn coverage below was impossible before MAAN reconciled its
// attribute-keyed and value-keyed record copies at crash time: a FailNode
// could strand one copy of a tuple, so planned resolution (attribute
// records) and classic resolution (value records) disagreed.

TEST(PlannerEquivalence, AllSystemsUnderCrashChurn) {
  for (const auto kind : harness::AllSystems()) {
    ExpectPlannerEquivalent(kind, /*cache=*/false, /*churn=*/true,
                            /*crashes=*/true);
  }
}

TEST(PlannerEquivalence, AllSystemsUnderCrashChurnWithResultCache) {
  for (const auto kind : harness::AllSystems()) {
    ExpectPlannerEquivalent(kind, /*cache=*/true, /*churn=*/true,
                            /*crashes=*/true);
  }
}

TEST(PlannerEquivalence, AllSystemsReplicatedUnderCrashChurn) {
  for (const auto kind : harness::AllSystems()) {
    ExpectPlannerEquivalent(kind, /*cache=*/false, /*churn=*/true,
                            /*crashes=*/true, /*replicas=*/3);
  }
}

TEST(PlannerEquivalence, ParallelPlannedReplayIsDeterministic) {
  // The planner's scratch is per-worker; sharded replay must stay
  // bit-identical across jobs, as the classic path guarantees.
  for (const auto kind : harness::AllSystems()) {
    harness::Setup setup = harness::Setup::Small();
    setup.plan = true;
    auto bed = MakeBed(kind, setup);
    harness::QueryExperimentConfig cfg;
    cfg.requesters = 8;
    cfg.queries_per_requester = 4;
    cfg.attrs_per_query = 3;
    cfg.range = true;
    cfg.jobs = 1;
    const auto serial = harness::RunQueries(*bed.service, *bed.workload, cfg);
    cfg.jobs = 4;
    const auto parallel =
        harness::RunQueries(*bed.service, *bed.workload, cfg);
    EXPECT_EQ(serial.total_hops, parallel.total_hops);
    EXPECT_EQ(serial.total_visited, parallel.total_visited);
    EXPECT_EQ(serial.avg_matches, parallel.avg_matches);
    EXPECT_EQ(serial.failures, parallel.failures);
  }
}

// ---- Early exit ------------------------------------------------------------

/// A point sub-query on `attr` that matches no advertised tuple: the midpoint
/// between two adjacent distinct advertised values.
resource::SubQuery EmptySub(const testutil::Bed& bed, AttrId attr) {
  std::vector<double> values;
  for (const auto& info : bed.infos) {
    if (info.attr == attr) values.push_back(info.value.ordinal());
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  EXPECT_GE(values.size(), 2u);
  const double gap = 0.5 * (values[0] + values[1]);
  return {attr, resource::ValueRange::Point(resource::AttrValue::Number(gap))};
}

resource::SubQuery FullSpanSub(const testutil::Bed& bed, AttrId attr) {
  const auto& cfg = bed.workload->config();
  return {attr, resource::ValueRange::Between(
                    resource::AttrValue::Number(cfg.value_min),
                    resource::AttrValue::Number(cfg.value_max))};
}

void ExpectEarlyExit(SystemKind kind, bool cache) {
  MetricsScope metrics;
  harness::Setup setup = harness::Setup::Small();
  setup.plan = true;
  setup.cache = cache;
  auto bed = MakeBed(kind, setup);
  const std::string label = bed.service->name() + " cache=" +
                            (cache ? "on" : "off");

  // Three attributes one provider advertises, so their full-span join is
  // non-empty, and a fourth attribute for the empty sub-query.
  std::map<NodeAddr, std::set<AttrId>> attrs_of;
  for (const auto& info : bed.infos) attrs_of[info.provider].insert(info.attr);
  const auto rich = std::max_element(
      attrs_of.begin(), attrs_of.end(), [](const auto& a, const auto& b) {
        return a.second.size() < b.second.size();
      });
  ASSERT_GE(rich->second.size(), 3u);
  std::vector<AttrId> attrs(rich->second.begin(), rich->second.end());
  AttrId other = 0;
  while (rich->second.count(other) != 0) ++other;

  // The empty sub-query sits mid-query; the planner must run it first (it
  // is by far the most selective) and skip the other three.
  resource::MultiQuery q;
  q.requester = 7;
  q.subs = {FullSpanSub(bed, attrs[0]), FullSpanSub(bed, attrs[1]),
            EmptySub(bed, other), FullSpanSub(bed, attrs[2])};
  const std::size_t empty = 2;
  const std::size_t k = q.subs.size();

  const std::uint64_t exits0 = CounterValue("lorm.plan.early_exits");
  const std::uint64_t skipped0 = CounterValue("lorm.plan.subs_skipped");
  const auto r = bed.service->Query(q);
  EXPECT_TRUE(r.providers.empty()) << label;
  ASSERT_EQ(r.per_sub.size(), k) << label;
  ASSERT_EQ(r.stats.sub_costs.size(), k) << label;
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_TRUE(r.per_sub[i].empty()) << label << " sub " << i;
    if (i != empty) {
      EXPECT_EQ(r.stats.sub_costs[i], 0u) << label << " skipped sub " << i;
    }
  }
  EXPECT_FALSE(r.stats.failed) << label;
  EXPECT_EQ(CounterValue("lorm.plan.early_exits"), exits0 + 1) << label;
  EXPECT_EQ(CounterValue("lorm.plan.subs_skipped"), skipped0 + (k - 1))
      << label;

  // Without the empty sub-query nothing is pruned.
  q.subs.erase(q.subs.begin() + empty);
  const auto full = bed.service->Query(q);
  EXPECT_FALSE(full.providers.empty()) << label;
  EXPECT_EQ(CounterValue("lorm.plan.early_exits"), exits0 + 1) << label;
}

TEST(PlannerEarlyExit, EmptyMostSelectiveSubSkipsTheRest) {
  for (const auto kind : harness::AllSystems()) {
    ExpectEarlyExit(kind, /*cache=*/false);
  }
}

TEST(PlannerEarlyExit, EmptyMostSelectiveSubSkipsTheRestWithResultCache) {
  for (const auto kind : harness::AllSystems()) {
    ExpectEarlyExit(kind, /*cache=*/true);
  }
}

// ---- Selectivity estimator -------------------------------------------------

TEST(Selectivity, DirectoryMirrorsInsertTakeAndDestruction) {
  resource::Workload workload(harness::Setup::Small().MakeWorkloadConfig());
  discovery::SelectivityEstimator est;
  est.Configure(workload.registry());
  {
    discovery::Directory<std::uint64_t> dir;
    dir.SetEstimator(&est);
    for (int i = 0; i < 10; ++i) {
      discovery::Directory<std::uint64_t>::Entry e;
      e.info = {0, resource::AttrValue::Number(0.1 * i),
                static_cast<NodeAddr>(i)};
      dir.Insert(std::move(e));
    }
    for (int i = 0; i < 5; ++i) {
      discovery::Directory<std::uint64_t>::Entry e;
      e.info = {1, resource::AttrValue::Number(0.5),
                static_cast<NodeAddr>(i)};
      dir.Insert(std::move(e));
    }
    EXPECT_EQ(est.CountOf(0), 10u);
    EXPECT_EQ(est.CountOf(1), 5u);
    EXPECT_EQ(est.TotalCount(), 15u);

    const auto taken =
        dir.TakeIf([](const auto& e) { return e.info.attr == 0; });
    EXPECT_EQ(taken.size(), 10u);
    EXPECT_EQ(est.CountOf(0), 0u);
    EXPECT_EQ(est.TotalCount(), 5u);
  }
  // Dropping the directory (node crash / re-homing) surrenders the rest.
  EXPECT_EQ(est.TotalCount(), 0u);
}

TEST(Selectivity, NarrowRangesEstimateBelowWide) {
  resource::Workload workload(harness::Setup::Small().MakeWorkloadConfig());
  discovery::SelectivityEstimator est;
  est.Configure(workload.registry());
  const auto& schema = workload.registry().Get(0);
  const double lo = schema.ordinal_min();
  const double span = schema.ordinal_max() - lo;
  Rng rng(42);
  for (int i = 0; i < 500; ++i) {
    est.Add(0, lo + span * rng.NextDouble());
  }
  const double narrow = est.EstimateMatches(0, lo, lo + span * 0.05);
  const double wide = est.EstimateMatches(0, lo, lo + span * 0.6);
  EXPECT_LT(narrow, wide);
  // Cold attributes fall back to the workload prior but still rank by width.
  const double cold_narrow = est.EstimateMatches(1, lo, lo + span * 0.05);
  const double cold_wide = est.EstimateMatches(1, lo, lo + span * 0.6);
  EXPECT_LT(cold_narrow, cold_wide);
  EXPECT_GT(cold_narrow, 0.0);
}

// ---- Join kernels ----------------------------------------------------------

std::vector<NodeAddr> SetIntersection(const std::vector<NodeAddr>& a,
                                      const std::vector<NodeAddr>& b) {
  std::vector<NodeAddr> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// A sorted set of `n` distinct providers drawn from [0, span).
std::vector<NodeAddr> RandomSet(Rng& rng, std::size_t n, NodeAddr span) {
  std::set<NodeAddr> s;
  while (s.size() < n) s.insert(static_cast<NodeAddr>(rng.NextBelow(span)));
  return {s.begin(), s.end()};
}

TEST(Join, IntersectSortedMatchesSetIntersection) {
  Rng rng(0x1A7E45EC7ull);
  std::vector<NodeAddr> acc, cur, tmp;
  for (std::uint64_t round = 0; round < 300; ++round) {
    acc.clear();
    cur.clear();
    for (NodeAddr p = 0; p < 120; ++p) {
      if (rng.NextBelow(100) < 1 + round % 50) acc.push_back(p);
      if (rng.NextBelow(100) < 1 + (round * 7) % 60) cur.push_back(p);
    }
    const auto expect = SetIntersection(acc, cur);
    discovery::IntersectSorted(acc, cur, tmp);
    ASSERT_EQ(acc, expect) << "round " << round;
  }

  // Fixed shapes, each run with both argument orders: skewed sizes (the
  // gallop's long probes, the single element at either end or in the
  // middle), equal sizes, disjoint sets and empty sides.
  std::vector<std::pair<std::vector<NodeAddr>, std::vector<NodeAddr>>> shapes;
  std::vector<NodeAddr> big(4000);
  std::iota(big.begin(), big.end(), NodeAddr{0});
  for (const NodeAddr one : {NodeAddr{0}, NodeAddr{1234}, NodeAddr{3999},
                             NodeAddr{4000}}) {
    shapes.push_back({{one}, big});
  }
  for (int i = 0; i < 20; ++i) {
    shapes.push_back({RandomSet(rng, 1, 8000), RandomSet(rng, 4000, 8000)});
    shapes.push_back({RandomSet(rng, 1 + rng.NextBelow(40), 8000),
                      RandomSet(rng, 4000, 8000)});
    const std::size_t n = 1 + rng.NextBelow(500);
    shapes.push_back({RandomSet(rng, n, 1000), RandomSet(rng, n, 1000)});
  }
  shapes.push_back({big, big});
  std::vector<NodeAddr> evens, odds;
  for (NodeAddr p = 0; p < 600; ++p) (p % 2 == 0 ? evens : odds).push_back(p);
  shapes.push_back({evens, odds});
  shapes.push_back({{0, 1, 2}, {5000, 6000}});
  shapes.push_back({{}, big});
  shapes.push_back({{}, {}});
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    for (const bool swap : {false, true}) {
      const auto& a = swap ? shapes[i].second : shapes[i].first;
      const auto& b = swap ? shapes[i].first : shapes[i].second;
      acc = a;
      discovery::IntersectSorted(acc, b, tmp);
      ASSERT_EQ(acc, SetIntersection(a, b)) << "shape " << i
                                            << " swap " << swap;
    }
  }
}

TEST(Join, ProvidersOfIsSortedUniqueForAnyInputOrder) {
  const auto infos = [](const std::vector<NodeAddr>& providers) {
    std::vector<resource::ResourceInfo> out;
    for (const NodeAddr p : providers) {
      out.push_back({0, resource::AttrValue::Number(0.25 * p), p});
    }
    return out;
  };
  std::vector<NodeAddr> out = {99};  // cleared first
  discovery::ProvidersOf(infos({}), out);
  EXPECT_TRUE(out.empty());
  // Sorted input, as DedupMatches leaves it: repeats are adjacent.
  discovery::ProvidersOf(infos({1, 1, 2, 5, 5, 5, 9}), out);
  EXPECT_EQ(out, (std::vector<NodeAddr>{1, 2, 5, 9}));
  // Unsorted input with repeats, adjacent and not.
  discovery::ProvidersOf(infos({9, 2, 2, 5, 1, 9, 5, 1}), out);
  EXPECT_EQ(out, (std::vector<NodeAddr>{1, 2, 5, 9}));
  // A single descent at the very end.
  discovery::ProvidersOf(infos({3, 4, 8, 2}), out);
  EXPECT_EQ(out, (std::vector<NodeAddr>{2, 3, 4, 8}));

  Rng rng(0x9A0B1D3ull);
  for (int round = 0; round < 200; ++round) {
    std::vector<NodeAddr> providers;
    const std::size_t n = rng.NextBelow(60);
    for (std::size_t i = 0; i < n; ++i) {
      providers.push_back(static_cast<NodeAddr>(rng.NextBelow(25)));
    }
    if (round % 2 == 0) std::sort(providers.begin(), providers.end());
    std::set<NodeAddr> expect(providers.begin(), providers.end());
    discovery::ProvidersOf(infos(providers), out);
    ASSERT_EQ(out, std::vector<NodeAddr>(expect.begin(), expect.end()))
        << "round " << round;
  }
}

// ---- A reordered query served from the per-sub cache -----------------------

void ExpectCrossOrderCacheHit(bool plan) {
  MetricsScope metrics;
  harness::Setup setup = harness::Setup::Small();
  setup.cache = true;
  setup.plan = plan;
  auto bed = MakeBed(SystemKind::kSword, setup);

  Rng rng(77);
  // Full-span ranges: every sub-query matches, so nothing is pruned and
  // every sub-query's answer is stored.
  auto q = bed.workload->MakeRangeQuery(3, 5, resource::RangeStyle::kFullSpan,
                                        rng);
  auto reversed = q;
  std::reverse(reversed.subs.begin(), reversed.subs.end());
  const std::size_t k = q.subs.size();

  const auto first = bed.service->Query(q);
  EXPECT_GT(first.stats.lookups, 0u);
  const std::uint64_t hits0 = CounterValue("lorm.cache.result.hits");
  const std::uint64_t misses0 = CounterValue("lorm.cache.result.misses");
  const auto second = bed.service->Query(reversed);
  EXPECT_EQ(CounterValue("lorm.cache.result.hits"), hits0 + k)
      << "same sub-queries in reverse order must all hit the cache "
         "(plan=" << plan << ")";
  EXPECT_EQ(CounterValue("lorm.cache.result.misses"), misses0);
  EXPECT_EQ(second.stats.lookups, 0u);
  EXPECT_EQ(second.stats.dht_hops, 0u);
  EXPECT_EQ(second.stats.visited_nodes, 0u);
  EXPECT_EQ(second.stats.sub_costs, std::vector<HopCount>(k, 0));
  EXPECT_FALSE(first.providers.empty());
  EXPECT_EQ(first.providers, second.providers);
  // The cached per-sub matches come back in the *caller's* sub order.
  ASSERT_EQ(second.per_sub.size(), k);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(first.per_sub[i], second.per_sub[k - 1 - i]) << "sub " << i;
  }
}

TEST(ResultCache, ReorderedQueryIsServedFromCacheClassic) {
  ExpectCrossOrderCacheHit(/*plan=*/false);
}

TEST(ResultCache, ReorderedQueryIsServedFromCachePlanned) {
  ExpectCrossOrderCacheHit(/*plan=*/true);
}

}  // namespace
}  // namespace lorm
