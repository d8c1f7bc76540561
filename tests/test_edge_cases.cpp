// Edge-case and cross-layer property tests that don't belong to a single
// module suite: exhaustive small-network routing, analysis-vs-measured
// consistency, text-attribute discovery, and configuration error paths.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/theorems.hpp"
#include "chord/chord.hpp"
#include "cycloid/cycloid.hpp"
#include "discovery/mercury_service.hpp"
#include "resource/machine.hpp"
#include "service_test_util.hpp"

namespace lorm {
namespace {

using harness::SystemKind;
using resource::AttrValue;

// ---- Exhaustive routing on small networks ----------------------------------

TEST(ExhaustiveRouting, ChordEveryOriginEveryKey) {
  chord::Config cfg;
  cfg.bits = 6;  // 64-key space
  auto ring = chord::MakeRing(9, cfg, /*deterministic_ids=*/false);
  for (const NodeAddr origin : ring.Members()) {
    for (chord::Key key = 0; key < ring.space(); ++key) {
      const auto res = ring.Lookup(key, origin);
      ASSERT_TRUE(res.ok);
      EXPECT_EQ(res.owner, ring.OwnerOf(key));
    }
  }
}

TEST(ExhaustiveRouting, CycloidEveryOriginEveryKey) {
  auto net = cycloid::MakeCycloid(17, cycloid::Config{3, 1});  // capacity 24
  for (const NodeAddr origin : net.Members()) {
    for (unsigned k = 0; k < 3; ++k) {
      for (std::uint64_t a = 0; a < 8; ++a) {
        const auto res = net.Lookup({k, a}, origin);
        ASSERT_TRUE(res.ok);
        EXPECT_EQ(res.owner, net.OwnerOf({k, a}))
            << "origin " << origin << " key (" << k << "," << a << ")";
      }
    }
  }
}

// ---- Analysis vs measured, end to end ---------------------------------------

TEST(AnalysisConsistency, RangeVisitedMatchesMeasuredShape) {
  // The Small setup realizes the theorems' workload assumptions well enough
  // that Theorem 4.9's formulas should predict the measured averages within
  // ~15% for the value-spread walkers and exactly for SWORD.
  auto setup = harness::Setup::Small();
  setup.pareto_shape = 1.0;
  setup.value_min = 500.0;
  setup.value_max = 1000.0;
  analysis::SystemModel model;
  model.n = setup.nodes;
  model.m = setup.attributes;
  model.k = setup.infos_per_attribute;
  model.d = setup.dimension;

  harness::QueryExperimentConfig qcfg;
  qcfg.requesters = 50;
  qcfg.queries_per_requester = 10;
  qcfg.attrs_per_query = 2;
  qcfg.range = true;

  for (const SystemKind kind :
       {SystemKind::kMercury, SystemKind::kSword, SystemKind::kLorm}) {
    auto bed = testutil::MakeBed(kind, setup);
    const auto r = harness::RunQueries(*bed.service, *bed.workload, qcfg);
    double predicted = 0;
    switch (kind) {
      case SystemKind::kMercury:
        predicted = analysis::RangeVisitedMercury(model, 2);
        break;
      case SystemKind::kSword:
        predicted = analysis::RangeVisitedSword(model, 2);
        break;
      default:
        predicted = analysis::RangeVisitedLorm(model, 2);
        break;
    }
    EXPECT_NEAR(r.avg_visited, predicted, 0.15 * predicted)
        << harness::SystemName(kind);
  }
}

TEST(AnalysisConsistency, NonRangeHopRatiosMatchTheorems) {
  auto setup = harness::Setup::Small();
  harness::QueryExperimentConfig qcfg;
  qcfg.requesters = 60;
  qcfg.queries_per_requester = 10;
  qcfg.attrs_per_query = 4;

  auto maan = testutil::MakeBed(SystemKind::kMaan, setup);
  auto sword = testutil::MakeBed(SystemKind::kSword, setup);
  const double maan_hops =
      harness::RunQueries(*maan.service, *maan.workload, qcfg).avg_hops;
  const double sword_hops =
      harness::RunQueries(*sword.service, *sword.workload, qcfg).avg_hops;
  // Theorem 4.8: identical rings, double the lookups.
  EXPECT_NEAR(maan_hops / sword_hops, analysis::T48MercurySwordVsMaanFactor(),
              0.15);
}

// ---- Text attributes through the full stack ---------------------------------

TEST(TextAttributes, RangeOverEnumerationIsOrdinalContiguous) {
  resource::AttributeRegistry registry;
  resource::RegisterGridSchema(registry);
  const AttrId os = *registry.Find(resource::kAttrOs);
  const harness::Setup setup = harness::Setup::Small();
  for (const SystemKind kind : harness::AllSystems()) {
    SCOPED_TRACE(harness::SystemName(kind));
    auto service = harness::MakeService(kind, setup, registry);
    Rng rng(15);
    std::vector<resource::Machine> machines;
    std::vector<resource::ResourceInfo> infos;
    for (NodeAddr addr = 0; addr < setup.nodes; ++addr) {
      machines.push_back(resource::RandomMachine(addr, rng));
      for (const auto& info : machines.back().Advertise(registry)) {
        service->Advertise(info);
        infos.push_back(info);
      }
    }
    const auto check = [&](const resource::MultiQuery& q) {
      const auto res = service->Query(q);
      const auto truth = harness::BruteForceProviders(infos, q, *service);
      EXPECT_FALSE(truth.empty()) << q.ToString(registry);
      EXPECT_EQ(res.providers, truth) << q.ToString(registry);
      return res.providers.size();
    };

    check(resource::QueryBuilder(registry, 0).Equals("os", "Linux").Build());
    check(resource::QueryBuilder(registry, 1)
              .Equals("os", "Linux")
              .AtLeast("cpu_mhz", 1800)
              .Build());

    // Enumeration sorted: AIX, FreeBSD, Linux, Solaris, Windows. A text
    // range [FreeBSD, Solaris] covers the middle three.
    resource::MultiQuery range;
    range.requester = 2;
    const auto& os_schema = registry.Get(os);
    range.subs.push_back({os, resource::ValueRange::Between(
                                  os_schema.TextValue("FreeBSD"),
                                  os_schema.TextValue("Solaris"))});
    std::size_t expected = 0;
    for (const auto& m : machines) {
      expected += (m.os == "FreeBSD" || m.os == "Linux" || m.os == "Solaris");
    }
    EXPECT_EQ(check(range), expected);
  }
}

// ---- Configuration error paths ----------------------------------------------

TEST(ConfigErrors, MercuryNeedsAttributes) {
  resource::AttributeRegistry empty;
  discovery::MercuryService::Config cfg;
  cfg.ring.bits = 8;
  EXPECT_THROW(discovery::MercuryService(16, empty, cfg), InvariantError);
}

TEST(ConfigErrors, OverlayLimits) {
  EXPECT_THROW(cycloid::MakeCycloid(10000, cycloid::Config{5, 1}),
               ConfigError);
  chord::Config tiny;
  tiny.bits = 3;
  EXPECT_THROW(chord::MakeRing(9, tiny, true), ConfigError);
}

TEST(ConfigErrors, WorkloadValidation) {
  resource::WorkloadConfig cfg;
  cfg.attributes = 0;
  EXPECT_THROW(resource::Workload w(cfg), ConfigError);
  cfg.attributes = 2;
  cfg.value_min = -1.0;  // Bounded Pareto needs positive support
  EXPECT_THROW(resource::Workload w2(cfg), ConfigError);
}

// ---- Advertise edge: value outside the schema domain clamps ---------------

TEST(EdgeValues, OutOfDomainValuesClampIntoPlacement) {
  auto bed = testutil::MakeBed(SystemKind::kLorm);
  resource::ResourceInfo info;
  info.attr = 0;
  info.value = AttrValue::Number(bed.setup.value_max * 10);  // above domain
  info.provider = 1;
  EXPECT_NO_THROW(bed.service->Advertise(info));
  // Retrievable via a range reaching the domain's top.
  resource::MultiQuery q;
  q.requester = 2;
  q.subs.push_back(
      {0, resource::ValueRange::Between(
              AttrValue::Number(bed.setup.value_max),
              AttrValue::Number(bed.setup.value_max * 100))});
  const auto res = bed.service->Query(q);
  EXPECT_TRUE(std::count(res.providers.begin(), res.providers.end(), 1u));
}

}  // namespace
}  // namespace lorm
