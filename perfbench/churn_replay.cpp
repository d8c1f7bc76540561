#include "churn_replay.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"
#include "harness/experiments.hpp"
#include "sim/event_queue.hpp"
#include "sim/poisson.hpp"

namespace perfbench {

using lorm::NodeAddr;
using Kind = ChurnEvent::Kind;
namespace resource = lorm::resource;

namespace {

/// `count` arrivals of a Poisson process, rescaled so that the arrival
/// after the last one lands on `horizon`: the arrival times of a Poisson
/// process on [0, horizon] conditioned on exactly `count` events.
std::vector<double> FixedCountArrivals(std::size_t count, double horizon,
                                       lorm::Rng rng) {
  std::vector<double> at;
  if (count == 0) return at;
  lorm::sim::PoissonProcess process(1.0, rng);
  for (std::size_t i = 0; i <= count; ++i) at.push_back(process.NextArrival());
  const double scale = horizon / at.back();
  at.pop_back();
  for (double& t : at) t *= scale;
  return at;
}

std::size_t OverlayCapacity(const lorm::harness::Setup& s) {
  const std::size_t chord = std::size_t{1} << s.chord_bits;
  const std::size_t cycloid = std::size_t{s.dimension} << s.dimension;
  return std::min(chord, cycloid);
}

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

ChurnSchedule MakeChurnSchedule(const World& world, const ChurnPlan& plan,
                                NodeAddr first_addr, lorm::Rng& rng) {
  ChurnSchedule out;
  const std::size_t membership = plan.joins + plan.leaves;
  out.horizon = plan.joins > 0
                    ? static_cast<double>(plan.joins) / plan.join_rate
                    : static_cast<double>(std::max<std::size_t>(membership, 1)) /
                          plan.join_rate;

  // Kinds of the membership arrivals, in random order.
  std::vector<Kind> kinds(plan.joins, Kind::kJoin);
  kinds.insert(kinds.end(), plan.leaves, Kind::kLeave);
  rng.Shuffle(kinds);
  const auto member_at = FixedCountArrivals(membership, out.horizon, rng.Fork());
  const auto query_at = FixedCountArrivals(plan.queries, out.horizon, rng.Fork());
  for (std::size_t i = 0; i < membership; ++i) {
    out.events.push_back(ChurnEvent{member_at[i], kinds[i]});
  }
  for (std::size_t i = 0; i < plan.maintains; ++i) {
    const double at = (static_cast<double>(i) + 0.5) * out.horizon /
                      static_cast<double>(plan.maintains);
    out.events.push_back(ChurnEvent{at, Kind::kMaintain});
  }
  for (const double at : query_at) {
    out.events.push_back(ChurnEvent{at, Kind::kQuery});
  }
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const ChurnEvent& a, const ChurnEvent& b) {
                     return a.at < b.at;
                   });

  // Walk the schedule over a model of the membership.
  const std::size_t n = world.setup.nodes;
  const std::size_t capacity = OverlayCapacity(world.setup);
  std::vector<NodeAddr> live;
  for (std::size_t i = 0; i < n; ++i) live.push_back(static_cast<NodeAddr>(i));
  TuplesByProvider tuples = GroupByProvider(world.infos, first_addr + plan.joins);
  for (std::size_t i = 0; i < plan.warmup_leaves; ++i) {
    const std::size_t victim = rng.NextBelow(live.size());
    out.warmup_leaves.push_back(live[victim]);
    tuples[live[victim]].clear();
    live[victim] = live.back();
    live.pop_back();
  }
  NodeAddr next_addr = first_addr;
  double area = 0;
  double last_at = 0;
  const std::size_t m = world.workload.registry().size();
  for (std::size_t i = 0; i < out.events.size(); ++i) {
    ChurnEvent& e = out.events[i];
    area += static_cast<double>(live.size()) * (e.at - last_at);
    last_at = e.at;
    if (e.kind == Kind::kJoin && live.size() >= capacity) {
      // The identifier space is full: the next departure happens first.
      const auto leave = std::find_if(
          out.events.begin() + static_cast<std::ptrdiff_t>(i) + 1,
          out.events.end(),
          [](const ChurnEvent& x) { return x.kind == Kind::kLeave; });
      LORM_CHECK_MSG(leave != out.events.end(),
                     "churn schedule: join with a full overlay and no leave");
      std::swap(e.kind, leave->kind);
    }
    switch (e.kind) {
      case Kind::kJoin: {
        e.node = next_addr++;
        e.index = static_cast<std::uint32_t>(out.adverts.size());
        for (const std::uint64_t attr :
             rng.SampleWithoutReplacement(m, kAdvertsPerJoin)) {
          resource::ResourceInfo info;
          info.attr = static_cast<lorm::AttrId>(attr);
          info.value = world.workload.SampleValue(info.attr, rng);
          info.provider = e.node;
          out.adverts.push_back(info);
          tuples[e.node].push_back(info);
        }
        live.push_back(e.node);
        break;
      }
      case Kind::kLeave: {
        LORM_CHECK_MSG(live.size() > 1, "churn schedule empties the network");
        const std::size_t victim = rng.NextBelow(live.size());
        e.node = live[victim];
        live[victim] = live.back();
        live.pop_back();
        tuples[e.node].clear();  // a graceful leave withdraws its tuples
        break;
      }
      case Kind::kMaintain:
        break;
      case Kind::kQuery: {
        const NodeAddr requester = live[rng.NextBelow(live.size())];
        e.index = static_cast<std::uint32_t>(out.queries.size());
        e.check = plan.check_stride > 0 && e.index % plan.check_stride == 0;
        out.queries.push_back(TargetedPointQuery(tuples, live, requester, rng));
        break;
      }
    }
  }
  area += static_cast<double>(live.size()) * (out.horizon - last_at);
  out.mean_live = area / out.horizon;
  for (std::size_t i = 0; i < plan.post_queries; ++i) {
    const NodeAddr requester = live[rng.NextBelow(live.size())];
    out.post_queries.push_back(TargetedPointQuery(tuples, live, requester, rng));
  }
  return out;
}

ChurnTimes SplitTimes(const ChurnSchedule& schedule,
                      const std::vector<double>& event_us) {
  ChurnTimes out;
  for (std::size_t i = 0; i < event_us.size(); ++i) {
    const Kind kind = schedule.events[i].kind;
    if (kind == Kind::kJoin || kind == Kind::kLeave) out.update_us.push_back(event_us[i]);
    if (kind == Kind::kQuery) out.query_us.push_back(event_us[i]);
    out.busy_s += event_us[i] / 1e6;
    out.ops += 1;
  }
  return out;
}

void ApplyWarmup(World& world, const ChurnSchedule& schedule) {
  for (const NodeAddr node : schedule.warmup_leaves) {
    for (auto& svc : world.services) svc->LeaveNode(node);
  }
}

ChurnResult ReplayChurn(World& world, const ChurnSchedule& schedule,
                        std::vector<resource::ResourceInfo>& advertised,
                        Tracer& tracer, Checker& checker) {
  using Clock = std::chrono::steady_clock;
  const std::size_t systems = world.services.size();
  ChurnResult result;
  result.systems.resize(systems);
  std::vector<std::uint64_t> bytes0(systems);
  std::vector<std::uint64_t> msgs0(systems);
  for (std::size_t s = 0; s < systems; ++s) {
    bytes0[s] = world.services[s]->MaintenanceBytes();
    msgs0[s] = world.services[s]->MaintenanceMessages();
  }
  std::vector<lorm::discovery::QueryScratch> scratch(systems);
  std::vector<std::vector<NodeAddr>> answers(systems);
  std::vector<bool> ok(systems, true);

  // Runs one event against every system; nothing here but the timed calls.
  const auto dispatch = [&](std::size_t i) {
    const ChurnEvent& e = schedule.events[i];
    for (std::size_t s = 0; s < systems; ++s) {
      auto& svc = *world.services[s];
      ChurnSystemResult& out = result.systems[s];
      const auto sys = static_cast<std::uint8_t>(s);
      Clock::time_point t0;
      Clock::time_point t1;
      switch (e.kind) {
        case Kind::kJoin: {
          Span span(tracer, Layer::kJoinNode, sys, i);
          t0 = Clock::now();
          ok[s] = svc.JoinNode(e.node);
          for (std::size_t k = 0; k < kAdvertsPerJoin; ++k) {
            svc.Advertise(schedule.adverts[e.index + k]);
          }
          t1 = Clock::now();
          break;
        }
        case Kind::kLeave: {
          Span span(tracer, Layer::kLeaveNode, sys, i);
          t0 = Clock::now();
          svc.LeaveNode(e.node);
          t1 = Clock::now();
          break;
        }
        case Kind::kMaintain: {
          Span span(tracer, Layer::kMaintain, sys, i);
          t0 = Clock::now();
          svc.Maintain();
          t1 = Clock::now();
          break;
        }
        case Kind::kQuery: {
          Span span(tracer, Layer::kQuery, sys, i);
          t0 = Clock::now();
          auto res = svc.Query(schedule.queries[e.index], scratch[s]);
          t1 = Clock::now();
          out.hops += res.stats.dht_hops;
          out.visited += res.stats.visited_nodes;
          out.queries += 1;
          ok[s] = !res.stats.failed;
          answers[s] = std::move(res.providers);
          break;
        }
      }
      out.event_us.push_back(Seconds(t0, t1) * 1e6);
    }
  };

  lorm::sim::EventQueue queue;
  for (std::size_t i = 0; i < schedule.events.size(); ++i) {
    queue.ScheduleAt(schedule.events[i].at,
                     [&dispatch, i](lorm::sim::EventQueue&) { dispatch(i); });
  }
  std::vector<const std::vector<NodeAddr>*> answer_ptrs;
  for (const auto& a : answers) answer_ptrs.push_back(&a);
  for (std::size_t i = 0; i < schedule.events.size(); ++i) {
    {
      Span span(tracer, Layer::kSimEvent, kNoSystem, i);
      LORM_CHECK_MSG(queue.RunOne(), "event queue ran dry");
    }
    // Bookkeeping and answer checks, outside the timed calls.
    const ChurnEvent& e = schedule.events[i];
    checker.attempted += systems;
    for (std::size_t s = 0; s < systems; ++s) {
      if (ok[s]) continue;
      checker.Fail(std::string(world.name(s)) +
                   (e.kind == Kind::kJoin ? " rejected a join" : " failed to route a query"));
      ok[s] = true;
    }
    if (e.kind == Kind::kJoin) {
      advertised.insert(advertised.end(),
                        schedule.adverts.begin() + e.index,
                        schedule.adverts.begin() + e.index + kAdvertsPerJoin);
    }
    if (e.kind == Kind::kJoin || e.kind == Kind::kLeave) {
      ++result.membership_events;
    }
    if (e.kind == Kind::kQuery) {
      std::vector<NodeAddr> reference;
      if (e.check) {
        reference = lorm::harness::BruteForceProviders(
            advertised, schedule.queries[e.index], *world.services.front());
      }
      checker.CheckAnswers(e.index, answer_ptrs, e.check ? &reference : nullptr,
                           world);
    }
  }
  for (std::size_t s = 0; s < systems; ++s) {
    result.systems[s].maint_bytes =
        world.services[s]->MaintenanceBytes() - bytes0[s];
    result.systems[s].maint_messages =
        world.services[s]->MaintenanceMessages() - msgs0[s];
  }
  return result;
}

}  // namespace perfbench
