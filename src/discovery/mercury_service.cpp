#include "discovery/mercury_service.hpp"

#include "common/error.hpp"
#include "discovery/query_executor.hpp"
#include "discovery/query_obs.hpp"
#include "discovery/ring_walk.hpp"
#include "obs/flight.hpp"

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
    store_.Insert(target, {.info = info,
                           .key = key,
                           .epoch = epoch_,
                           .replica = static_cast<std::uint8_t>(copy)});
  }
  // A new advertisement changes the attribute's ground truth.
  result_cache_.InvalidateAttr(info.attr);
  static AdvertiseInstruments advertise_obs("Mercury");
  advertise_obs.Record(hops);
  return hops;
}

QueryResult MercuryService::Query(const resource::MultiQuery& q,
                                  QueryScratch& scratch) const {
  return ExecuteQuery(*this, q, scratch);
}

void MercuryService::ResolveSub(
    NodeAddr requester, const resource::SubQuery& sub, double lo, double hi,
    SubRole /*role*/, QueryScratch& scratch, QueryStats& stats,
    std::vector<resource::ResourceInfo>& matches) const {
  // Every hub holds every member, so the requester routes in this one.
  const auto& ring = hub(sub.attr);
  const chord::Key key_lo = lph_[sub.attr](lo);
  const chord::Key key_hi = lph_[sub.attr](hi);
  chord::LookupResult& res = scratch.chord;
  if (!RouteSub(ring, key_lo, requester, res, stats)) return;
  WalkSuccessors(ring, res.owner, key_lo, key_hi, stats, [&](NodeAddr cur) {
    visit_counts_.Record(cur);
    ProbeDirectory(store_, cur, sub.attr, lo, hi, kAnyEntry, matches, stats);
  });
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
