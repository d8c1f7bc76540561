#include "world.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace perfbench {

using lorm::NodeAddr;
namespace resource = lorm::resource;

World::World(const lorm::harness::Setup& s)
    : setup(s),
      workload(s.MakeWorkloadConfig()),
      kinds(lorm::harness::AllSystems()) {
  LORM_CHECK_MSG(kinds.size() == kSystems, "expected the five systems");
  for (std::size_t s = 0; s < kSystems; ++s) {
    LORM_CHECK_MSG(std::string(lorm::harness::SystemName(kinds[s])) == kSystemNames[s],
                   "unexpected system order");
  }
}

void World::Build(Tracer& tracer) {
  services.clear();
  for (std::size_t s = 0; s < kinds.size(); ++s) {
    const auto sys = static_cast<std::uint8_t>(s);
    {
      Span span(tracer, Layer::kBuild, sys, 0);
      services.push_back(
          lorm::harness::MakeService(kinds[s], setup, workload.registry()));
    }
    Span span(tracer, Layer::kAdvertiseAll, sys, 0);
    lorm::harness::AdvertiseAll(*services.back(), infos);
    span.work = infos.size();
  }
}

const char* World::name(std::size_t system) const {
  return lorm::harness::SystemName(kinds[system]);
}

TuplesByProvider GroupByProvider(const std::vector<resource::ResourceInfo>& infos,
                                 std::size_t addr_space) {
  TuplesByProvider out(addr_space);
  for (const auto& info : infos) {
    if (info.provider >= out.size()) out.resize(info.provider + 1);
    out[info.provider].push_back(info);
  }
  return out;
}

resource::MultiQuery TargetedPointQuery(const TuplesByProvider& tuples,
                                        const std::vector<NodeAddr>& providers,
                                        NodeAddr requester, lorm::Rng& rng) {
  LORM_CHECK_MSG(!providers.empty(), "no providers to aim a query at");
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const NodeAddr p = providers[rng.NextBelow(providers.size())];
    if (p >= tuples.size()) continue;
    std::vector<resource::ResourceInfo> own = tuples[p];
    rng.Shuffle(own);
    resource::MultiQuery q;
    q.requester = requester;
    for (const auto& info : own) {
      const bool seen = std::any_of(
          q.subs.begin(), q.subs.end(),
          [&](const resource::SubQuery& s) { return s.attr == info.attr; });
      if (seen) continue;
      q.subs.push_back(
          resource::SubQuery{info.attr, resource::ValueRange::Point(info.value)});
      if (q.subs.size() == 3) return q;
    }
  }
  LORM_CHECK_MSG(false, "no provider advertises three distinct attributes");
  return {};
}

void Checker::Mix(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (v >> (8 * i)) & 0xff;
    digest *= 0x100000001b3ull;
  }
}

void Checker::Fail(const std::string& problem) {
  ++failed;
  if (problems.size() < 20) problems.push_back(problem);
}

void Checker::CheckAnswers(
    std::uint64_t index,
    const std::vector<const std::vector<NodeAddr>*>& answers,
    const std::vector<NodeAddr>* reference, const World& world) {
  // The agreed answer: brute force when sampled, else the majority.
  const std::vector<NodeAddr>* agreed = reference;
  if (agreed == nullptr) {
    std::size_t best = 0;
    for (const auto* a : answers) {
      const auto votes = static_cast<std::size_t>(std::count_if(
          answers.begin(), answers.end(),
          [&](const std::vector<NodeAddr>* b) { return *a == *b; }));
      if (votes > best) {
        best = votes;
        agreed = a;
      }
    }
  }
  for (std::size_t s = 0; s < answers.size(); ++s) {
    if (*answers[s] != *agreed) {
      Fail(std::string(world.name(s)) + " answered query " +
           std::to_string(index) + " wrongly" +
           (reference != nullptr ? " (brute force)" : " (majority)"));
    }
  }
  Mix(index);
  Mix(agreed->size());
  for (const NodeAddr p : *agreed) Mix(p);
}

}  // namespace perfbench
