// Single-hop substrate + D1HT conformance suite.
//
// The fifth system claims *equivalence with the other four on semantics*
// while sitting at the opposite end of the maintenance/lookup tradeoff.
// This file pins both halves of that claim:
//
//   * semantics — D1HT's QueryResult equals the brute-force oracle (and
//     therefore every other system's answer) on the quick fig4a/fig5a
//     workloads, planner on or off, replicated or not, before and after
//     crashes;
//   * cost model — every lookup resolves in at most one hop (mean <= 1.05
//     at the paper's n = 2048), joins/leaves/crash-repair charge Θ(n)
//     maintenance messages where Chord charges Θ(log n);
//   * registry — a sixth system can be registered without touching the
//     harness, and the canonical five are unperturbed.
#include "singlehop/singlehop.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "discovery/d1ht_service.hpp"
#include "service_test_util.hpp"

namespace lorm {
namespace {

using harness::SystemKind;
using resource::AttrValue;
using resource::MultiQuery;
using resource::RangeStyle;
using testutil::BruteForceProviders;
using testutil::MakeBed;

// ---- Ring cost model -------------------------------------------------------

TEST(SingleHopRing, EveryLookupResolvesInAtMostOneHop) {
  // The paper-scale acceptance bound: mean hops/query <= 1.05 at n = 2048.
  singlehop::Config cfg;
  cfg.bits = 12;
  auto ring = singlehop::MakeSingleHopRing(2048, cfg,
                                           /*deterministic_ids=*/true);
  Rng rng(0xD1A7ull);
  const auto members = ring.Members();
  std::uint64_t total_hops = 0;
  const int lookups = 4000;
  for (int i = 0; i < lookups; ++i) {
    const auto res = ring.Lookup(rng.NextBelow(ring.space()),
                                 members[rng.NextBelow(members.size())]);
    ASSERT_TRUE(res.ok);
    ASSERT_LE(res.hops, 1u);
    ASSERT_EQ(res.owner, ring.OwnerOf(res.key));
    total_hops += res.hops;
  }
  const double mean = static_cast<double>(total_hops) / lookups;
  EXPECT_LE(mean, 1.05);
  EXPECT_GT(mean, 0.9);  // owning the key yourself is a 1/n event
}

TEST(SingleHopRing, LookupFromUnknownOriginFails) {
  singlehop::Config cfg;
  cfg.bits = 10;
  const auto ring = singlehop::MakeSingleHopRing(64, cfg,
                                                 /*deterministic_ids=*/true);
  for (const NodeAddr origin : {NodeAddr{999}, kNoNode}) {
    const auto res = ring.Lookup(ring.space() / 5, origin);
    EXPECT_FALSE(res.ok) << origin;
    EXPECT_EQ(res.hops, 0u);
    EXPECT_TRUE(res.path.empty());
    EXPECT_EQ(res.owner, kNoNode);
  }
}

/// Dead links detected while reading Successor and Predecessor of every
/// member: 0 while every neighbor link still leads to its original occupant.
std::uint64_t DeadNeighborLinks(const singlehop::SingleHopRing& ring) {
  const auto before = ring.maintenance().dead_links_skipped;
  for (const NodeAddr a : ring.Members()) {
    (void)ring.Successor(a);
    (void)ring.Predecessor(a);
  }
  return ring.maintenance().dead_links_skipped - before;
}

TEST(SingleHopRing, MembershipEventsChargeLinearMessages) {
  singlehop::Config cfg;
  cfg.bits = 12;
  auto ring = singlehop::MakeSingleHopRing(256, cfg,
                                           /*deterministic_ids=*/true);
  ring.ResetMaintenanceStats();

  // Join: bootstrap (2) + one event report per existing member.
  ring.AddNode(10'000);
  EXPECT_EQ(ring.maintenance().join_messages, 256u + 2u);

  // Graceful leave: one report per surviving member + the goodbye.
  ring.RemoveNode(10'000);
  EXPECT_EQ(ring.maintenance().leave_messages, 256u + 1u);

  // Crash: free at crash time; the next maintenance round pays one
  // dissemination report per member per pending event plus the heartbeat
  // sweep.
  const auto members = ring.Members();
  ring.FailNode(members[3]);
  ring.FailNode(members[7]);
  EXPECT_EQ(ring.maintenance().stabilize_messages, 0u);
  EXPECT_GT(DeadNeighborLinks(ring), 0u);
  ring.StabilizeAll();
  EXPECT_EQ(ring.maintenance().stabilize_messages, 2u * 254u + 254u);
  EXPECT_EQ(DeadNeighborLinks(ring), 0u);

  // The byte meter is a fixed multiple of the message meter.
  discovery::D1htService::Config dcfg;
  dcfg.ring.bits = 9;
  resource::Workload workload(harness::Setup::Small().MakeWorkloadConfig());
  discovery::D1htService svc(64, workload.registry(), dcfg);
  EXPECT_EQ(svc.MaintenanceBytes(),
            svc.MaintenanceMessages() *
                discovery::DiscoveryService::kMaintenanceMessageBytes);
}

// ---- D1HT service semantics ------------------------------------------------

TEST(D1htStructure, StoresEveryTupleTwiceLikeMaan) {
  auto bed = MakeBed(SystemKind::kD1ht);
  EXPECT_EQ(bed.service->TotalInfoPieces(), 2 * bed.infos.size());
}

TEST(D1htQuery, PointQueryCostsTwoOneHopLookupsPerAttribute) {
  auto bed = MakeBed(SystemKind::kD1ht);
  Rng rng(1);
  const auto q = bed.workload->MakePointQuery(3, 0, rng);
  const auto res = bed.service->Query(q);
  EXPECT_EQ(res.stats.lookups, 6u);        // MAAN's dual placement
  EXPECT_EQ(res.stats.visited_nodes, 6u);  // attribute root + value root
  EXPECT_LE(res.stats.dht_hops, 6u);       // ...but every lookup is <= 1 hop
}

/// QueryResult equality vs the brute-force oracle on the exact quick-mode
/// fig4a (point) and fig5a (bounded-range) workloads: Setup::Quick, seeds
/// 0xF16u + attrs, attribute counts {1, 3, 5}.
class D1htFigureConformance : public ::testing::TestWithParam<bool> {};

TEST_P(D1htFigureConformance, MatchesBruteForceOnQuickFigureWorkloads) {
  const bool range = GetParam();
  auto bed = MakeBed(SystemKind::kD1ht, harness::Setup::Quick());
  for (const std::size_t attrs : {std::size_t{1}, std::size_t{3},
                                  std::size_t{5}}) {
    Rng rng(0xF16u + attrs);
    for (int i = 0; i < 20; ++i) {
      const NodeAddr req =
          static_cast<NodeAddr>(rng.NextBelow(bed.setup.nodes));
      const MultiQuery q =
          range ? bed.workload->MakeRangeQuery(attrs, req,
                                               RangeStyle::kBounded, rng)
                : bed.workload->MakePointQuery(attrs, req, rng);
      const auto res = bed.service->Query(q);
      ASSERT_FALSE(res.stats.failed);
      ASSERT_EQ(res.providers, BruteForceProviders(bed.infos, q, *bed.service))
          << (range ? "fig5a" : "fig4a") << " attrs=" << attrs << " q=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fig4aFig5a, D1htFigureConformance, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Fig5aRange" : "Fig4aPoint";
                         });

TEST(D1htQuery, PlannerIsAPureExecutionOrderOptimization) {
  auto setup_off = harness::Setup::Small();
  setup_off.plan = false;
  auto setup_on = setup_off;
  setup_on.plan = true;
  auto off = MakeBed(SystemKind::kD1ht, setup_off);
  auto on = MakeBed(SystemKind::kD1ht, setup_on);
  Rng rng(0x9A7FD1ull);
  for (int i = 0; i < 40; ++i) {
    const NodeAddr req = static_cast<NodeAddr>(rng.NextBelow(setup_off.nodes));
    const auto q = off.workload->MakeRangeQuery(1 + rng.NextBelow(4), req,
                                                RangeStyle::kBounded, rng);
    ASSERT_EQ(off.service->Query(q).providers, on.service->Query(q).providers)
        << "planner changed the answer at query " << i;
  }
}

// ---- Replication under crashes ---------------------------------------------

/// r = 3 must strictly beat r = 1 on recall after simultaneous crashes, and
/// a single crash at r = 3 must lose nothing at all.
TEST(D1htReplication, ReplicasRestoreRecallUnderCrashes) {
  double recall[4] = {};  // [r]
  for (const std::size_t r : {std::size_t{1}, std::size_t{3}}) {
    auto setup = harness::Setup::Small();
    setup.replicas = r;
    auto bed = MakeBed(SystemKind::kD1ht, setup);
    Rng rng(0xFA11D1ull);
    // Crash 20% of the members at once, then measure recall against the
    // surviving ground truth with no re-advertisement.
    auto members = bed.service->Nodes();
    for (std::size_t i = 0; i < members.size() / 5; ++i) {
      bed.service->FailNode(members[i * 5]);
    }
    bed.service->Maintain();
    // Single-attribute upper-bounded ranges with the bound drawn from the
    // value distribution: multi-attribute intersections and uniform bounded
    // ranges are mostly empty on the Small workload (its values concentrate
    // near the domain floor), which would make recall vacuous.
    double hit = 0, want = 0;
    for (int i = 0; i < 40; ++i) {
      const auto nodes = bed.service->Nodes();
      const auto q = bed.workload->MakeRangeQuery(
          1, nodes[rng.NextBelow(nodes.size())], RangeStyle::kUpperBounded,
          rng);
      const auto res = bed.service->Query(q);
      const auto truth = BruteForceProviders(bed.infos, q, *bed.service);
      for (const NodeAddr p : res.providers) {
        hit += std::binary_search(truth.begin(), truth.end(), p) ? 1.0 : 0.0;
      }
      want += static_cast<double>(truth.size());
    }
    ASSERT_GT(want, 0.0) << "ground truth is empty at r=" << r;
    recall[r] = hit / want;
  }
  EXPECT_GT(recall[3], recall[1]);
  EXPECT_GT(recall[3], 0.95);

  // Single crash at r = 3: the surviving replicas cover everything.
  auto setup = harness::Setup::Small();
  setup.replicas = 3;
  auto bed = MakeBed(SystemKind::kD1ht, setup);
  bed.service->FailNode(bed.service->Nodes()[17]);
  bed.service->Maintain();
  Rng rng(0x51A61Eull);
  for (int i = 0; i < 25; ++i) {
    const auto nodes = bed.service->Nodes();
    const auto q = bed.workload->MakeRangeQuery(
        2, nodes[rng.NextBelow(nodes.size())], RangeStyle::kBounded, rng);
    ASSERT_EQ(bed.service->Query(q).providers,
              BruteForceProviders(bed.infos, q, *bed.service));
  }
}

// ---- System registry -------------------------------------------------------

TEST(SystemRegistry, SixthSystemRegistersWithoutTouchingTheHarness) {
  const auto kDummy = static_cast<SystemKind>(60);
  ASSERT_FALSE(harness::SystemRegistered(kDummy));
  harness::RegisterSystem(
      kDummy, "Dummy6",
      [](const harness::Setup& setup,
         const resource::AttributeRegistry& registry)
          -> std::unique_ptr<discovery::DiscoveryService> {
        discovery::D1htService::Config cfg;
        cfg.ring.bits = setup.chord_bits;
        cfg.ring.seed = setup.seed;
        return std::make_unique<discovery::D1htService>(setup.nodes, registry,
                                                        cfg);
      });
  EXPECT_TRUE(harness::SystemRegistered(kDummy));
  EXPECT_STREQ(harness::SystemName(kDummy), "Dummy6");

  // Canonical five untouched; the registry lists the extra kind last.
  const auto all = harness::AllSystems();
  EXPECT_EQ(all.size(), 5u);
  EXPECT_EQ(all.back(), SystemKind::kD1ht);
  const auto registered = harness::RegisteredSystems();
  EXPECT_EQ(registered.size(), 6u);
  EXPECT_EQ(registered.back(), kDummy);

  // MakeService resolves through the registry and builds a working system.
  const auto setup = harness::Setup::Small();
  resource::Workload workload(setup.MakeWorkloadConfig());
  const auto svc = harness::MakeService(kDummy, setup, workload.registry());
  EXPECT_EQ(svc->NetworkSize(), setup.nodes);
  EXPECT_EQ(svc->name(), "D1HT");  // the dummy reuses the D1HT service class
}

}  // namespace
}  // namespace lorm
