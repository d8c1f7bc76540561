#include "discovery/mercury_service.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "discovery/join.hpp"
#include "discovery/query_obs.hpp"
#include "discovery/ring_walk.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"

namespace lorm::discovery {

MercuryService::MercuryService(std::size_t n,
                               const resource::AttributeRegistry& registry,
                               Config cfg)
    : registry_(registry), cfg_(cfg) {
  hubs_.reserve(registry_.size());
  observers_.reserve(registry_.size());
  lph_.reserve(registry_.size());
  for (AttrId a = 0; a < registry_.size(); ++a) {
    chord::Config ring_cfg = cfg_.ring;
    // Distinct seed per hub: a node sits at independent positions in each.
    ring_cfg.seed = MixHashes(cfg_.ring.seed, a);
    auto hub = std::make_unique<chord::ChordRing>(
        chord::MakeRing(n, ring_cfg, cfg_.deterministic_ids));
    const auto& schema = registry_.Get(a);
    lph_.emplace_back(cfg_.ring.bits, schema.ordinal_min(),
                      schema.ordinal_max());
    observers_.push_back(std::make_unique<HubObserver>(this, a));
    hub->AddObserver(observers_.back().get());
    hubs_.push_back(std::move(hub));
  }
  LORM_CHECK_MSG(!hubs_.empty(), "Mercury needs at least one attribute hub");
  if (cfg_.result_cache) result_cache_.Enable();
  if (cfg_.plan) {
    selectivity_.Configure(registry_);
    store_.SetEstimator(&selectivity_);
  }
}

MercuryService::~MercuryService() {
  for (AttrId a = 0; a < hubs_.size(); ++a) {
    hubs_[a]->RemoveObserver(observers_[a].get());
  }
}

const chord::ChordRing& MercuryService::hub(AttrId attr) const {
  LORM_CHECK_MSG(attr < hubs_.size(), "attribute id out of range");
  return *hubs_[attr];
}

chord::Key MercuryService::KeyFor(AttrId attr,
                                  const resource::AttrValue& v) const {
  return lph_[attr](registry_.Get(attr).OrdinalOf(v));
}

bool MercuryService::JoinNode(NodeAddr addr) {
  if (hubs_.front()->size() >= hubs_.front()->space()) return false;
  for (auto& hub : hubs_) hub->AddNode(addr);
  // One flight event per membership change, not per hub.
  if (obs::FlightEnabled()) {
    obs::RecordFlight(obs::FlightEventKind::kJoin, name(), addr,
                      hubs_.front()->size());
  }
  return true;
}

void MercuryService::LeaveNode(NodeAddr addr) {
  if (obs::FlightEnabled()) {
    obs::RecordFlight(obs::FlightEventKind::kLeave, name(), addr,
                      hubs_.front()->size());
  }
  for (auto& hub : hubs_) hub->RemoveNode(addr);
  store_.Drop(addr);  // per-hub handlers already moved everything out
}

bool MercuryService::HasNode(NodeAddr addr) const {
  return hubs_.front()->Contains(addr);
}

std::size_t MercuryService::NetworkSize() const {
  return hubs_.front()->size();
}

std::vector<NodeAddr> MercuryService::Nodes() const {
  return hubs_.front()->Members();
}

void MercuryService::Maintain() {
  for (auto& hub : hubs_) hub->StabilizeAll();
}

void MercuryService::FailNode(NodeAddr addr) {
  if (obs::FlightEnabled()) {
    obs::RecordFlight(obs::FlightEventKind::kCrash, name(), addr,
                      hubs_.front()->size());
  }
  for (auto& hub : hubs_) hub->FailNode(addr);
  // Replicated hubs restore their own attribute's entries from surviving
  // copies hub by hub; whatever is left on the crashed node dies with it.
  store_.Drop(addr);
}

std::uint64_t MercuryService::MaintenanceMessages() const {
  std::uint64_t total = 0;
  for (const auto& hub : hubs_) total += hub->maintenance().Total();
  return total;
}

HopCount MercuryService::Advertise(const resource::ResourceInfo& info) {
  const auto& ring = hub(info.attr);
  LORM_CHECK_MSG(ring.Contains(info.provider),
                 "provider is not a member of the overlay");
  const chord::Key key = KeyFor(info.attr, info.value);
  const auto res = ring.Lookup(key, info.provider);
  LORM_CHECK_MSG(res.ok, "Mercury advertise lookup failed to route");
  HopCount hops = res.hops;
  NodeAddr target = res.owner;
  for (std::size_t copy = 0; copy < cfg_.replicas; ++copy) {
    if (copy > 0) {
      target = ring.Successor(target);
      if (target == res.owner) break;
      hops += 1;
    }
    Store::Entry e;
    e.info = info;
    e.ordinal = registry_.Get(info.attr).OrdinalOf(info.value);
    e.key = key;
    e.epoch = epoch_;
    e.replica = static_cast<std::uint8_t>(copy);
    store_.Insert(target, std::move(e));
  }
  // A new advertisement changes the attribute's ground truth.
  result_cache_.InvalidateAttr(info.attr);
  static AdvertiseInstruments advertise_obs("Mercury");
  advertise_obs.Record(hops);
  return hops;
}

QueryResult MercuryService::Query(const resource::MultiQuery& q,
                                  QueryScratch& scratch) const {
  if (cfg_.plan) return QueryPlanned(q, scratch);
  QueryResult result;
  const bool joined = result_cache_.enabled() && !q.subs.empty();
  if (joined) {
    PlanScratch& ps = scratch.plan;
    ComputeSubRanges(registry_, q, ps);
    CanonicalSubKeys(q, ps);
    if (JoinedCacheFetch(result_cache_, ps, q.subs.size(), result.per_sub,
                         result.providers)) {
      for (const auto& sub : q.subs) {
        LORM_CHECK_MSG(hub(sub.attr).Contains(q.requester),
                       "requester is not a member of the overlay");
        const obs::SubQueryScope sub_trace(sub.attr);
        result.stats.sub_costs.push_back(0);
      }
      static QueryInstruments query_obs("Mercury");
      query_obs.Record(result.stats);
      return result;
    }
  }
  for (const auto& sub : q.subs) {
    const obs::SubQueryScope sub_trace(sub.attr);
    const HopCount cost_before =
        result.stats.dht_hops + static_cast<HopCount>(result.stats.walk_steps);
    const auto& ring = hub(sub.attr);
    LORM_CHECK_MSG(ring.Contains(q.requester),
                   "requester is not a member of the overlay");
    const auto& schema = registry_.Get(sub.attr);
    const double lo = schema.OrdinalOf(sub.range.lo);
    const double hi = schema.OrdinalOf(sub.range.hi);
    const chord::Key key_lo = lph_[sub.attr](lo);
    const chord::Key key_hi = lph_[sub.attr](hi);

    std::vector<resource::ResourceInfo> matches;
    if (result_cache_.enabled() &&
        result_cache_.Lookup(sub.attr, lo, hi, matches)) {
      // Served from the result cache: no routing, no walk, no probes. The
      // cached matches are exactly what a fresh resolution would find (the
      // range root depends on the range, never on the requester).
      result.per_sub.push_back(std::move(matches));
      result.stats.sub_costs.push_back(0);
      continue;
    }
    const bool failed_before = result.stats.failed;
    chord::LookupResult& res = scratch.chord;
    ring.LookupInto(key_lo, q.requester, res);
    result.stats.lookups += 1;
    result.stats.dht_hops += res.hops;
    if (!res.ok) {
      result.stats.failed = true;
      result.per_sub.push_back(std::move(matches));
      result.stats.sub_costs.push_back(
          result.stats.dht_hops +
          static_cast<HopCount>(result.stats.walk_steps) - cost_before);
      continue;
    }
    WalkSuccessors(ring, res.owner, key_lo, key_hi, result.stats,
                   [&](NodeAddr cur) {
                     visit_counts_.Record(cur);
                     const std::size_t matches_before = matches.size();
                     std::uint64_t replica_hits = 0;
                     const auto* dir = store_.Find(cur);
                     if (dir != nullptr) {
                       dir->ForEachMatch(sub.attr, lo, hi,
                                         [&](const Store::Entry& e) {
                                           matches.push_back(e.info);
                                           if (e.replica != 0) ++replica_hits;
                                         });
                     }
                     result.stats.replica_hits += replica_hits;
                     obs::OnDirectoryProbe(
                         cur, matches.size() - matches_before,
                         dir != nullptr ? dir->size() : 0, replica_hits);
                   });
    DedupMatches(matches);  // replicas may repeat tuples along the walk
    if (result.stats.failed == failed_before) {
      // Only fully resolved sub-queries are cacheable; a truncated
      // resolution would freeze an incomplete answer.
      result_cache_.Store(sub.attr, lo, hi, matches);
    }
    result.per_sub.push_back(std::move(matches));
    result.stats.sub_costs.push_back(
        result.stats.dht_hops + static_cast<HopCount>(result.stats.walk_steps) -
        cost_before);
  }

  result.providers = JoinProviders(result.per_sub);
  result.providers.erase(
      std::remove_if(result.providers.begin(), result.providers.end(),
                     [&](NodeAddr p) { return !HasNode(p); }),
      result.providers.end());
  if (joined && !result.stats.failed) {
    JoinedCacheStore(result_cache_, scratch.plan, result.per_sub,
                     result.providers);
  }
  static QueryInstruments query_obs("Mercury");
  query_obs.Record(result.stats);
  return result;
}

QueryResult MercuryService::QueryPlanned(const resource::MultiQuery& q,
                                         QueryScratch& scratch) const {
  QueryResult result;
  const std::size_t k = q.subs.size();
  PlanScratch& ps = scratch.plan;
  ComputeSubRanges(registry_, q, ps);
  const bool joined = result_cache_.enabled() && k > 0;
  if (joined) {
    CanonicalSubKeys(q, ps);
    if (JoinedCacheFetch(result_cache_, ps, k, result.per_sub,
                         result.providers)) {
      for (const auto& sub : q.subs) {
        LORM_CHECK_MSG(hub(sub.attr).Contains(q.requester),
                       "requester is not a member of the overlay");
        const obs::SubQueryScope sub_trace(sub.attr);
        result.stats.sub_costs.push_back(0);
      }
      static QueryInstruments query_obs("Mercury");
      query_obs.Record(result.stats);
      return result;
    }
  }
  PlanOrder(selectivity_, q, ps);
  obs::OnPlanOrder(ps.order.data(), ps.order.size());

  result.per_sub.resize(k);
  result.stats.sub_costs.assign(k, 0);
  ps.candidates.clear();
  bool pruned = false;
  bool first = true;
  for (std::size_t rank = 0; rank < k; ++rank) {
    const std::uint32_t idx = ps.order[rank];
    const auto& sub = q.subs[idx];
    const obs::SubQueryScope sub_trace(sub.attr);
    if (pruned) {
      // The join is already empty; this sub-query cannot resurrect it.
      obs::OnSubQueryCandidates(0);
      TickPlanSubsSkipped(1);
      continue;
    }
    const auto& ring = hub(sub.attr);
    LORM_CHECK_MSG(ring.Contains(q.requester),
                   "requester is not a member of the overlay");
    const HopCount cost_before =
        result.stats.dht_hops + static_cast<HopCount>(result.stats.walk_steps);
    const double lo = ps.lo[idx];
    const double hi = ps.hi[idx];

    std::vector<resource::ResourceInfo>& matches = result.per_sub[idx];
    if (result_cache_.enabled() &&
        result_cache_.Lookup(sub.attr, lo, hi, matches)) {
      // Served from the per-sub cache: zero cost, as on the classic path.
    } else {
      const bool failed_before = result.stats.failed;
      const chord::Key key_lo = lph_[sub.attr](lo);
      const chord::Key key_hi = lph_[sub.attr](hi);
      chord::LookupResult& res = scratch.chord;
      ring.LookupInto(key_lo, q.requester, res);
      result.stats.lookups += 1;
      result.stats.dht_hops += res.hops;
      if (res.ok) {
        WalkSuccessors(ring, res.owner, key_lo, key_hi, result.stats,
                       [&](NodeAddr cur) {
                         visit_counts_.Record(cur);
                         const std::size_t matches_before = matches.size();
                         std::uint64_t replica_hits = 0;
                         const auto* dir = store_.Find(cur);
                         if (dir != nullptr) {
                           dir->ForEachMatch(sub.attr, lo, hi,
                                             [&](const Store::Entry& e) {
                                               matches.push_back(e.info);
                                               if (e.replica != 0) {
                                                 ++replica_hits;
                                               }
                                             });
                         }
                         result.stats.replica_hits += replica_hits;
                         obs::OnDirectoryProbe(
                             cur, matches.size() - matches_before,
                             dir != nullptr ? dir->size() : 0, replica_hits);
                       });
        DedupMatches(matches);  // replicas may repeat tuples along the walk
        if (result.stats.failed == failed_before) {
          result_cache_.Store(sub.attr, lo, hi, matches);
        }
      } else {
        result.stats.failed = true;
      }
      result.stats.sub_costs[idx] =
          result.stats.dht_hops +
          static_cast<HopCount>(result.stats.walk_steps) - cost_before;
    }

    ProvidersOf(matches, ps.providers);
    if (first) {
      ps.candidates = ps.providers;
      first = false;
    } else {
      IntersectSorted(ps.candidates, ps.providers, ps.tmp);
    }
    obs::OnSubQueryCandidates(ps.candidates.size());
    if (ps.candidates.empty() && rank + 1 < k) {
      pruned = true;
      TickPlanEarlyExit();
      if (obs::FlightEnabled()) {
        obs::RecordFlight(obs::FlightEventKind::kPlannerEarlyExit, name(),
                          q.requester, rank + 1, k - rank - 1);
      }
    }
  }

  result.providers = ps.candidates;
  result.providers.erase(
      std::remove_if(result.providers.begin(), result.providers.end(),
                     [&](NodeAddr p) { return !HasNode(p); }),
      result.providers.end());
  if (joined && !result.stats.failed && !pruned) {
    JoinedCacheStore(result_cache_, ps, result.per_sub, result.providers);
  }
  static QueryInstruments query_obs("Mercury");
  query_obs.Record(result.stats);
  return result;
}

std::vector<double> MercuryService::QueryLoadCounts() const {
  std::vector<double> out;
  for (NodeAddr addr : Nodes()) {
    out.push_back(static_cast<double>(visit_counts_.CountOf(addr)));
  }
  return out;
}

std::vector<double> MercuryService::DirectorySizes() const {
  std::vector<double> out;
  for (NodeAddr addr : Nodes()) {
    out.push_back(static_cast<double>(store_.SizeAt(addr)));
  }
  return out;
}

std::vector<double> MercuryService::OutlinkCounts() const {
  std::vector<double> out;
  for (NodeAddr addr : Nodes()) {
    std::size_t links = 0;
    for (const auto& hub : hubs_) links += hub->Outlinks(addr);
    out.push_back(static_cast<double>(links));
  }
  return out;
}

std::size_t MercuryService::TotalInfoPieces() const {
  return store_.TotalEntries();
}

std::size_t MercuryService::WithdrawProvider(NodeAddr provider) {
  result_cache_.InvalidateAll();
  return store_.EraseProviderEverywhere(provider);
}

void MercuryService::HubObserver::OnFail(NodeAddr node) {
  svc_->HubFail(attr_, node);
}

void MercuryService::HubObserver::OnJoin(NodeAddr node, NodeAddr successor) {
  svc_->HubJoin(attr_, node, successor);
}

void MercuryService::HubObserver::OnLeave(NodeAddr node, NodeAddr successor) {
  svc_->HubLeave(attr_, node, successor);
}

void MercuryService::HubJoin(AttrId attr, NodeAddr node, NodeAddr successor) {
  result_cache_.InvalidateAll();  // the join re-homed part of some hub arc
  if (cfg_.replicas > 1) {
    // Each hub runs the handoff protocol over its own ring, touching only
    // its own attribute's entries in the shared store.
    ChordReplicaJoin(hub(attr), store_, cfg_.replicas, node, repl_,
                     [attr](const Store::Entry& e) {
                       return e.info.attr == attr;
                     });
    return;
  }
  if (node == successor) return;  // first node of the hub
  const auto& ring = hub(attr);
  // Only this hub's bucket moves; the other attributes never change owner.
  auto moved = store_.TakeIf(successor, attr, [&](const Store::Entry& e) {
    return e.replica == 0 && ring.Owns(node, e.key);
  });
  for (auto& e : moved) store_.Insert(node, std::move(e));
}

void MercuryService::HubLeave(AttrId attr, NodeAddr node, NodeAddr successor) {
  result_cache_.InvalidateAll();
  if (cfg_.replicas > 1) {
    ChordReplicaLeave(hub(attr), store_, cfg_.replicas, node, repl_,
                      [attr](const Store::Entry& e) {
                        return e.info.attr == attr;
                      });
    return;
  }
  auto moved =
      store_.TakeIf(node, attr, [](const Store::Entry&) { return true; });
  if (successor == kNoNode) return;  // last node: information is lost
  for (auto& e : moved) {
    if (e.replica != 0) continue;  // replicas are rebuilt by the next epoch
    store_.Insert(successor, std::move(e));
  }
}

void MercuryService::HubFail(AttrId attr, NodeAddr node) {
  result_cache_.InvalidateAll();
  if (cfg_.replicas > 1) {
    // Restore this attribute's lost ranges from their surviving hub copies;
    // FailNode drops the crashed node's directory after every hub ran.
    ChordReplicaFail(hub(attr), store_, cfg_.replicas, node, repl_,
                     [attr](const Store::Entry& e) {
                       return e.info.attr == attr;
                     });
    return;
  }
  // Fired once per hub; dropping the directory is idempotent.
  store_.Drop(node);
}

}  // namespace lorm::discovery
