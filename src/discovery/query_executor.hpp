// The one multi-attribute query executor shared by every discovery service.
//
// Paper §III resolves a query the same way on every system: the requester
// issues one sub-query per attribute, each system resolves it through its
// own placement rule, and the requester joins the answers on the provider
// address. ExecuteQuery owns everything but the placement rule:
//
//   * the requester membership check and each sub-query's ordinal range;
//   * the result cache: probe each sub-query's (attr, range) first, and
//     store only fully resolved sub-queries;
//   * sub ordering: query order on the classic path, PlanOrder with `plan`;
//   * per-sub cost accounting, requester-side dedup of each sub's matches;
//   * the running provider join, with early exit only when planned;
//   * the live-provider filter and the per-query instruments.
//
// A service supplies only
//
//   void ResolveSub(NodeAddr requester, const resource::SubQuery& sub,
//                   double lo, double hi, SubRole role, QueryScratch& scratch,
//                   QueryStats& stats,
//                   std::vector<resource::ResourceInfo>& matches) const;
//
// which routes to the sub-query's root(s), probes the directories its
// placement rule names, appends the raw matches and bills lookups, hops,
// visits and walk steps to `stats` (setting stats.failed when a lookup does
// not route). `role` is kLeading on the classic path and for the first
// planned sub-query; later planned sub-queries are kDominated, and a
// service may answer them more cheaply (MAAN reads them at the attribute
// root alone). The executor reads the service's registry_, cfg_.plan and
// result_cache_ members, so each service befriends it.
//
// Plan-off traces carry no planner events (OnPlanOrder and
// OnSubQueryCandidates fire only with `plan`), so they are byte-identical to
// the per-sub probe stream of a query resolved in query order.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/result_cache.hpp"
#include "common/error.hpp"
#include "discovery/directory.hpp"
#include "discovery/discovery.hpp"
#include "discovery/join.hpp"
#include "discovery/planner.hpp"
#include "discovery/query_obs.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"

namespace lorm::discovery {

/// Routes one sub-query lookup from `requester` to the owner of `key`,
/// billing it to `stats`. Returns whether the lookup routed.
template <typename Overlay, typename Key, typename Result>
bool RouteSub(const Overlay& overlay, const Key& key, NodeAddr requester,
              Result& res, QueryStats& stats) {
  overlay.LookupInto(key, requester, res);
  stats.lookups += 1;
  stats.dht_hops += res.hops;
  if (!res.ok) stats.failed = true;
  return res.ok;
}

/// Checks `node`'s directory for attribute `attr` over [lo, hi]: appends the
/// matching entries that `keep` accepts to `matches`, bills replica-served
/// matches to `stats` and records the probe in the query trace.
template <typename Store, typename Keep>
void ProbeDirectory(const Store& store, NodeAddr node, AttrId attr, double lo,
                    double hi, Keep&& keep,
                    std::vector<resource::ResourceInfo>& matches,
                    QueryStats& stats) {
  const std::size_t before = matches.size();
  std::uint64_t replica_hits = 0;
  const auto* dir = store.Find(node);
  if (dir != nullptr) {
    dir->ForEachMatch(attr, lo, hi, [&](const typename Store::Entry& e) {
      if (!keep(e)) return;
      matches.push_back(e.info);
      if (e.replica != 0) ++replica_hits;
    });
  }
  stats.replica_hits += replica_hits;
  obs::OnDirectoryProbe(node, matches.size() - before,
                        dir != nullptr ? dir->size() : 0, replica_hits);
}

template <typename Service>
QueryResult ExecuteQuery(const Service& svc, const resource::MultiQuery& q,
                         QueryScratch& scratch) {
  static QueryInstruments query_obs(svc.name());
  LORM_CHECK_MSG(svc.HasNode(q.requester),
                 "requester is not a member of the overlay");
  QueryResult result;
  QueryStats& stats = result.stats;
  const std::size_t k = q.subs.size();
  PlanScratch& ps = scratch.plan;
  cache::ResultCache& cache = svc.result_cache_;
  ComputeSubRanges(svc.registry_, q, ps);

  const bool plan = svc.cfg_.plan;
  if (plan) {
    PlanOrder(svc.selectivity(), q, ps);
    obs::OnPlanOrder(ps.order.data(), ps.order.size());
  }

  result.per_sub.resize(k);
  stats.sub_costs.assign(k, 0);
  ps.candidates.clear();
  bool pruned = false;
  for (std::size_t rank = 0; rank < k; ++rank) {
    const std::size_t idx = plan ? ps.order[rank] : rank;
    const auto& sub = q.subs[idx];
    const obs::SubQueryScope sub_trace(sub.attr);
    if (pruned) {
      // The join is already empty; this sub-query cannot resurrect it.
      obs::OnSubQueryCandidates(0);
      TickPlanSubsSkipped(1);
      continue;
    }
    const double lo = ps.lo[idx];
    const double hi = ps.hi[idx];
    std::vector<resource::ResourceInfo>& matches = result.per_sub[idx];
    // A per-sub cache hit costs nothing: no routing, no walk, no probes.
    // The cached matches are exactly what a fresh resolution would find
    // (the range root depends on the range, never on the requester).
    if (!cache.enabled() || !cache.Lookup(sub.attr, lo, hi, matches)) {
      const HopCount cost_before =
          stats.dht_hops + static_cast<HopCount>(stats.walk_steps);
      const bool failed_before = stats.failed;
      svc.ResolveSub(q.requester, sub, lo, hi,
                     plan && rank > 0 ? SubRole::kDominated
                                      : SubRole::kLeading,
                     scratch, stats, matches);
      DedupMatches(matches);  // replicas may repeat tuples along a walk
      // Only fully resolved sub-queries are cacheable; a truncated
      // resolution would freeze an incomplete answer.
      if (stats.failed == failed_before) {
        cache.Store(sub.attr, lo, hi, matches);
      }
      stats.sub_costs[idx] = stats.dht_hops +
                             static_cast<HopCount>(stats.walk_steps) -
                             cost_before;
    }

    // The requester-side join, run incrementally: once empty it stays empty.
    if (rank == 0) {
      ProvidersOf(matches, ps.candidates);
    } else if (!ps.candidates.empty()) {
      ProvidersOf(matches, ps.providers);
      IntersectSorted(ps.candidates, ps.providers, ps.tmp);
    }
    if (!plan) continue;
    obs::OnSubQueryCandidates(ps.candidates.size());
    if (ps.candidates.empty() && rank + 1 < k) {
      pruned = true;
      TickPlanEarlyExit();
      if (obs::FlightEnabled()) {
        obs::RecordFlight(obs::FlightEventKind::kPlannerEarlyExit, svc.name(),
                          q.requester, rank + 1, k - rank - 1);
      }
    }
  }

  // Soft-state filtering: drop providers that have departed since they
  // advertised (their stale entries expire with periodic re-advertisement).
  result.providers = ps.candidates;  // exact capacity: callers keep answers
  std::erase_if(result.providers, [&](NodeAddr p) { return !svc.HasNode(p); });
  query_obs.Record(stats);
  return result;
}

}  // namespace lorm::discovery
