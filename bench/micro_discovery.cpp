// Microbenchmarks (google-benchmark): the discovery layer.
//
// Measures advertise and query throughput of each system at the Small
// configuration, plus the requester-side join. Not a paper figure.
#include <benchmark/benchmark.h>

#include <memory>

#include "discovery/join.hpp"
#include "harness/experiments.hpp"
#include "harness/setup.hpp"

namespace {

using namespace lorm;
using harness::SystemKind;

struct Fixture {
  harness::Setup setup = harness::Setup::Small();
  std::unique_ptr<resource::Workload> workload;
  std::unique_ptr<discovery::DiscoveryService> service;

  explicit Fixture(SystemKind kind, bool plan = false) {
    setup.plan = plan;
    workload =
        std::make_unique<resource::Workload>(setup.MakeWorkloadConfig());
    service = harness::MakeService(kind, setup, workload->registry());
    std::vector<NodeAddr> providers;
    for (std::size_t i = 0; i < setup.nodes; ++i) {
      providers.push_back(static_cast<NodeAddr>(i));
    }
    Rng rng(setup.seed ^ 0xBEEF);
    harness::AdvertiseAll(*service, workload->GenerateInfos(providers, rng));
  }
};

/// Benchmark argument 0..4 -> the five systems in figure order.
SystemKind KindOf(std::int64_t arg) {
  return harness::AllSystems().at(static_cast<std::size_t>(arg));
}

void SetLabel(benchmark::State& state) {
  state.SetLabel(harness::SystemName(KindOf(state.range(0))));
}

void BM_Advertise(benchmark::State& state) {
  Fixture f(KindOf(state.range(0)));
  SetLabel(state);
  Rng rng(5);
  for (auto _ : state) {
    resource::ResourceInfo info;
    info.attr = static_cast<AttrId>(rng.NextBelow(f.setup.attributes));
    info.value = f.workload->SampleValue(info.attr, rng);
    info.provider = static_cast<NodeAddr>(rng.NextBelow(f.setup.nodes));
    f.service->Advertise(info);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Advertise)->DenseRange(0, 4);

void BM_PointQuery(benchmark::State& state) {
  Fixture f(KindOf(state.range(0)));
  SetLabel(state);
  Rng rng(6);
  discovery::QueryScratch scratch;  // reused, as the harness does per worker
  for (auto _ : state) {
    const auto q = f.workload->MakePointQuery(
        3, static_cast<NodeAddr>(rng.NextBelow(f.setup.nodes)), rng);
    benchmark::DoNotOptimize(f.service->Query(q, scratch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PointQuery)->DenseRange(0, 4);

void BM_RangeQuery(benchmark::State& state) {
  Fixture f(KindOf(state.range(0)));
  SetLabel(state);
  Rng rng(7);
  discovery::QueryScratch scratch;
  for (auto _ : state) {
    const auto q = f.workload->MakeRangeQuery(
        3, static_cast<NodeAddr>(rng.NextBelow(f.setup.nodes)),
        resource::RangeStyle::kBounded, rng);
    benchmark::DoNotOptimize(f.service->Query(q, scratch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RangeQuery)->DenseRange(0, 4);

void BM_RangeQueryPlanned(benchmark::State& state) {
  // BM_RangeQuery's exact workload with the selectivity planner on — the
  // planner's end-to-end effect is this row against the row above.
  Fixture f(KindOf(state.range(0)), /*plan=*/true);
  SetLabel(state);
  Rng rng(7);
  discovery::QueryScratch scratch;
  for (auto _ : state) {
    const auto q = f.workload->MakeRangeQuery(
        3, static_cast<NodeAddr>(rng.NextBelow(f.setup.nodes)),
        resource::RangeStyle::kBounded, rng);
    benchmark::DoNotOptimize(f.service->Query(q, scratch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RangeQueryPlanned)->DenseRange(0, 4);

void BM_JoinProviders(benchmark::State& state) {
  Rng rng(8);
  std::vector<std::vector<resource::ResourceInfo>> per_sub(3);
  for (auto& sub : per_sub) {
    for (int i = 0; i < 200; ++i) {
      sub.push_back({0, resource::AttrValue::Number(1.0),
                     static_cast<NodeAddr>(rng.NextBelow(300))});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(discovery::JoinProviders(per_sub));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_JoinProviders);

}  // namespace

BENCHMARK_MAIN();
