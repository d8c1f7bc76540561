#include "discovery/sword_service.hpp"

#include "common/error.hpp"
#include "discovery/query_executor.hpp"
#include "discovery/query_obs.hpp"
#include "obs/flight.hpp"

namespace lorm::discovery {

SwordService::SwordService(std::size_t n,
                           const resource::AttributeRegistry& registry,
                           Config cfg)
    : registry_(registry),
      cfg_(cfg),
      ring_(chord::MakeRing(n, cfg.ring, cfg.deterministic_ids)) {
  const ConsistentHash ch(cfg_.ring.bits);
  attr_key_.reserve(registry_.size());
  for (AttrId a = 0; a < registry_.size(); ++a) {
    attr_key_.push_back(ch(registry_.Get(a).name()));
  }
  if (cfg_.result_cache) result_cache_.Enable();
  if (cfg_.plan) {
    selectivity_.Configure(registry_);
    store_.SetEstimator(&selectivity_);
  }
  ring_.AddObserver(this);
}

SwordService::~SwordService() { ring_.RemoveObserver(this); }

chord::Key SwordService::KeyFor(AttrId attr) const {
  LORM_CHECK_MSG(attr < attr_key_.size(), "attribute id out of range");
  return attr_key_[attr];
}

bool SwordService::JoinNode(NodeAddr addr) {
  if (ring_.size() >= ring_.space()) return false;
  ring_.AddNode(addr);
  if (obs::FlightEnabled()) {
    obs::RecordFlight(obs::FlightEventKind::kJoin, name(), addr, ring_.size());
  }
  return true;
}

void SwordService::LeaveNode(NodeAddr addr) {
  if (obs::FlightEnabled()) {
    obs::RecordFlight(obs::FlightEventKind::kLeave, name(), addr, ring_.size());
  }
  ring_.RemoveNode(addr);
}

void SwordService::FailNode(NodeAddr addr) {
  if (obs::FlightEnabled()) {
    obs::RecordFlight(obs::FlightEventKind::kCrash, name(), addr, ring_.size());
  }
  ring_.FailNode(addr);
}

HopCount SwordService::Advertise(const resource::ResourceInfo& info) {
  LORM_CHECK_MSG(ring_.Contains(info.provider),
                 "provider is not a member of the overlay");
  const chord::Key key = KeyFor(info.attr);
  const auto res = ring_.Lookup(key, info.provider);
  LORM_CHECK_MSG(res.ok, "SWORD advertise lookup failed to route");
  HopCount hops = res.hops;
  NodeAddr target = res.owner;
  for (std::size_t copy = 0; copy < cfg_.replicas; ++copy) {
    if (copy > 0) {
      target = ring_.Successor(target);
      if (target == res.owner) break;  // ring smaller than the factor
      hops += 1;
    }
    store_.Insert(target, {.info = info,
                           .key = key,
                           .epoch = epoch_,
                           .replica = static_cast<std::uint8_t>(copy)});
  }
  // A new advertisement changes the attribute's ground truth.
  result_cache_.InvalidateAttr(info.attr);
  static AdvertiseInstruments advertise_obs("SWORD");
  advertise_obs.Record(hops);
  return hops;
}

QueryResult SwordService::Query(const resource::MultiQuery& q,
                                QueryScratch& scratch) const {
  return ExecuteQuery(*this, q, scratch);
}

void SwordService::ResolveSub(
    NodeAddr requester, const resource::SubQuery& sub, double lo, double hi,
    SubRole /*role*/, QueryScratch& scratch, QueryStats& stats,
    std::vector<resource::ResourceInfo>& matches) const {
  chord::LookupResult& res = scratch.chord;
  if (!RouteSub(ring_, KeyFor(sub.attr), requester, res, stats)) return;
  // The attribute's entire directory is at the root: ranges resolve
  // locally, no forwarding (Theorem 4.9's m visited nodes per query).
  stats.visited_nodes += 1;
  visit_counts_.Record(res.owner);
  ProbeDirectory(store_, res.owner, sub.attr, lo, hi, kAnyEntry, matches,
                 stats);
}

std::vector<double> SwordService::QueryLoadCounts() const {
  std::vector<double> out;
  for (NodeAddr addr : ring_.Members()) {
    out.push_back(static_cast<double>(visit_counts_.CountOf(addr)));
  }
  return out;
}

std::vector<double> SwordService::DirectorySizes() const {
  std::vector<double> out;
  for (NodeAddr addr : ring_.Members()) {
    out.push_back(static_cast<double>(store_.SizeAt(addr)));
  }
  return out;
}

std::vector<double> SwordService::OutlinkCounts() const {
  std::vector<double> out;
  for (NodeAddr addr : ring_.Members()) {
    out.push_back(static_cast<double>(ring_.Outlinks(addr)));
  }
  return out;
}

std::size_t SwordService::TotalInfoPieces() const {
  return store_.TotalEntries();
}

std::size_t SwordService::WithdrawProvider(NodeAddr provider) {
  result_cache_.InvalidateAll();
  return store_.EraseProviderEverywhere(provider);
}

void SwordService::OnJoin(NodeAddr node, NodeAddr successor) {
  result_cache_.InvalidateAll();  // the join re-homed part of some arc
  if (cfg_.replicas > 1) {
    ChordReplicaJoin(ring_, store_, cfg_.replicas, node, repl_, kAnyEntry);
    return;
  }
  if (node == successor) return;
  auto moved = store_.TakeIf(successor, [&](const Store::Entry& e) {
    return e.replica == 0 && ring_.Owns(node, e.key);
  });
  for (auto& e : moved) store_.Insert(node, std::move(e));
}

void SwordService::OnFail(NodeAddr node) {
  result_cache_.InvalidateAll();
  if (cfg_.replicas > 1) {
    ChordReplicaFail(ring_, store_, cfg_.replicas, node, repl_, kAnyEntry);
  }
  store_.Drop(node);  // the crashed node's copies do not survive
}

void SwordService::OnLeave(NodeAddr node, NodeAddr successor) {
  result_cache_.InvalidateAll();
  if (cfg_.replicas > 1) {
    ChordReplicaLeave(ring_, store_, cfg_.replicas, node, repl_, kAnyEntry);
    store_.Drop(node);
    return;
  }
  auto orphaned = store_.TakeAll(node);
  store_.Drop(node);
  if (successor == kNoNode) return;  // last node: information is lost
  for (auto& e : orphaned) {
    if (e.replica != 0) continue;  // replicas are rebuilt by the next epoch
    store_.Insert(successor, std::move(e));
  }
}

}  // namespace lorm::discovery
