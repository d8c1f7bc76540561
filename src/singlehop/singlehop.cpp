#include "singlehop/singlehop.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/hashing.hpp"
#include "common/random.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lorm::singlehop {

SingleHopRing::SingleHopRing(Config cfg) : cfg_(cfg) {
  LORM_CHECK_MSG(cfg_.bits >= 1 && cfg_.bits < 64,
                 "single-hop ring bits must be in [1, 63]");
  space_ = std::uint64_t{1} << cfg_.bits;
}

SingleHopRing::Slot SingleHopRing::SlotOf(NodeAddr addr) const {
  const std::uint32_t idx = by_addr_.Find(addr);
  return idx == AddrIndexMap::kAbsent ? kNoSlot : static_cast<Slot>(idx);
}

SingleHopRing::Link SingleHopRing::MakeLink(Slot s) const {
  const Node& n = slots_[s];
  return Link{s, n.gen, n.addr, n.id};
}

SingleHopRing::Slot SingleHopRing::ResolveLink(const Link& l) const {
  if (l.slot != kNoSlot && slots_[l.slot].gen == l.gen) return l.slot;
  return SlotOf(l.addr);
}

SingleHopRing::Slot SingleHopRing::AllocateSlot(NodeAddr addr, Key id) {
  Slot s;
  if (!free_slots_.empty()) {
    s = free_slots_.back();
    free_slots_.pop_back();
  } else {
    s = static_cast<Slot>(slots_.size());
    slots_.emplace_back();
  }
  Node& n = slots_[s];
  n.id = id;
  n.addr = addr;  // gen was already bumped when the slot was vacated
  n.successor = Link{};
  n.predecessor = Link{};
  return s;
}

void SingleHopRing::ReleaseSlot(Slot s) {
  Node& n = slots_[s];
  ++n.gen;  // invalidates every link that points here
  n.addr = kNoNode;
  n.successor = Link{};
  n.predecessor = Link{};
  free_slots_.push_back(s);
}

const SingleHopRing::Node& SingleHopRing::MustGet(NodeAddr addr) const {
  const Slot s = SlotOf(addr);
  LORM_CHECK_MSG(s != kNoSlot, "unknown single-hop node");
  return slots_[s];
}

SingleHopRing::Node& SingleHopRing::MustGet(NodeAddr addr) {
  const Slot s = SlotOf(addr);
  LORM_CHECK_MSG(s != kNoSlot, "unknown single-hop node");
  return slots_[s];
}

std::size_t SingleHopRing::OracleIndexOf(Key id) const {
  const auto it = std::lower_bound(
      oracle_.begin(), oracle_.end(), id,
      [](const auto& e, Key k) { return e.first < k; });
  LORM_CHECK_MSG(it != oracle_.end() && it->first == id,
                 "id missing from the membership view");
  return static_cast<std::size_t>(it - oracle_.begin());
}

bool SingleHopRing::OracleContains(Key id) const {
  const auto it = std::lower_bound(
      oracle_.begin(), oracle_.end(), id,
      [](const auto& e, Key k) { return e.first < k; });
  return it != oracle_.end() && it->first == id;
}

void SingleHopRing::OracleInsert(Key id, Slot slot) {
  const auto it = std::lower_bound(
      oracle_.begin(), oracle_.end(), id,
      [](const auto& e, Key k) { return e.first < k; });
  oracle_.insert(it, {id, slot});
}

void SingleHopRing::OracleErase(Key id) {
  oracle_.erase(oracle_.begin() +
                static_cast<std::ptrdiff_t>(OracleIndexOf(id)));
}

SingleHopRing::Slot SingleHopRing::OwnerSlotOf(Key key) const {
  if (oracle_.empty()) return kNoSlot;
  const auto it = std::lower_bound(
      oracle_.begin(), oracle_.end(), key,
      [](const auto& e, Key k) { return e.first < k; });
  return it == oracle_.end() ? oracle_.front().second : it->second;
}

Key SingleHopRing::AddNode(NodeAddr addr) {
  const ConsistentHash ch(cfg_.bits);
  Key id = ch(static_cast<std::uint64_t>(addr) ^ cfg_.seed);
  std::uint64_t salt = 0;
  while (OracleContains(id)) {
    ++salt;
    id = MixHashes(static_cast<std::uint64_t>(addr) ^ cfg_.seed, salt) &
         (space_ - 1);
  }
  AddNodeWithId(addr, id);
  return id;
}

void SingleHopRing::AddNodeWithId(NodeAddr addr, Key id) {
  LORM_CHECK_MSG(id < space_, "single-hop id outside the identifier space");
  if (Contains(addr)) throw ConfigError("node address already in ring");
  if (OracleContains(id)) throw ConfigError("single-hop id collision");

  const bool first = by_addr_.empty();
  // Every existing member's view gains this entry: one EDRA event report
  // per member, plus the joiner's bootstrap lookup and bulk table transfer
  // (one message — the table rides in one stream).
  maintenance_.join_messages += by_addr_.size() + 2;
  const Slot self_slot = AllocateSlot(addr, id);
  OracleInsert(id, self_slot);
  by_addr_.Put(addr, self_slot);
  SpliceNeighbors(self_slot);

  if (first) {
    for (auto* obs : observers_) obs->OnJoin(addr, addr);
    return;
  }
  const std::size_t idx = OracleIndexOf(id);
  const Slot succ_slot =
      oracle_[(idx + 1) % oracle_.size()].second;
  for (auto* obs : observers_) obs->OnJoin(addr, slots_[succ_slot].addr);
}

void SingleHopRing::RemoveNode(NodeAddr addr) {
  const Slot self_slot = SlotOf(addr);
  LORM_CHECK_MSG(self_slot != kNoSlot, "unknown single-hop node");
  Node& n = slots_[self_slot];
  const bool last = by_addr_.size() == 1;
  // One departure report per surviving member, plus the key handoff.
  maintenance_.leave_messages += (by_addr_.size() - 1) + 1;
  NodeAddr succ = kNoNode;
  if (!last) {
    const std::size_t idx = OracleIndexOf(n.id);
    succ = slots_[oracle_[(idx + 1) % oracle_.size()].second].addr;
  }
  for (auto* obs : observers_) obs->OnLeave(addr, succ);

  OracleErase(n.id);
  by_addr_.Erase(addr);
  ReleaseSlot(self_slot);
  if (!last) {
    const Slot succ_slot = SlotOf(succ);
    if (succ_slot != kNoSlot) SpliceNeighbors(succ_slot);
  }
}

void SingleHopRing::FailNode(NodeAddr addr) {
  const Slot self_slot = SlotOf(addr);
  LORM_CHECK_MSG(self_slot != kNoSlot, "unknown single-hop node");
  for (auto* obs : observers_) obs->OnFail(addr);
  // Nothing is charged now — nobody has been told. The detection +
  // dissemination bill lands on the next maintenance window.
  ++pending_fail_events_;
  OracleErase(slots_[self_slot].id);
  by_addr_.Erase(addr);
  ReleaseSlot(self_slot);
}

std::vector<NodeAddr> SingleHopRing::Members() const {
  std::vector<NodeAddr> out;
  out.reserve(oracle_.size());
  for (const auto& [id, slot] : oracle_) out.push_back(slots_[slot].addr);
  return out;
}

Key SingleHopRing::IdOf(NodeAddr addr) const { return MustGet(addr).id; }

NodeAddr SingleHopRing::OwnerOf(Key key) const {
  const Slot s = OwnerSlotOf(key & (space_ - 1));
  return s == kNoSlot ? kNoNode : slots_[s].addr;
}

NodeAddr SingleHopRing::OwnerOfExcluding(Key key, NodeAddr excluded) const {
  if (excluded == kNoNode || !Contains(excluded)) return OwnerOf(key);
  if (oracle_.size() == 1) return kNoNode;
  const Slot s = OwnerSlotOf(key & (space_ - 1));
  if (s == kNoSlot) return kNoNode;
  if (slots_[s].addr != excluded) return slots_[s].addr;
  const std::size_t idx = OracleIndexOf(slots_[s].id);
  return slots_[oracle_[(idx + 1) % oracle_.size()].second].addr;
}

NodeAddr SingleHopRing::NthOracleSuccessor(NodeAddr addr, std::size_t steps,
                                           NodeAddr excluded) const {
  const Node& n = MustGet(addr);
  std::size_t idx = OracleIndexOf(n.id);
  NodeAddr cur = addr;
  std::size_t taken = 0;
  for (std::size_t walked = 0; taken < steps && walked < oracle_.size();
       ++walked) {
    idx = (idx + 1) % oracle_.size();
    const NodeAddr cand = slots_[oracle_[idx].second].addr;
    if (cand == excluded) continue;
    cur = cand;
    ++taken;
    if (cur == addr) break;  // capped at one revolution
  }
  return cur;
}

NodeAddr SingleHopRing::NthOraclePredecessor(NodeAddr addr, std::size_t steps,
                                             NodeAddr excluded) const {
  const Node& n = MustGet(addr);
  std::size_t idx = OracleIndexOf(n.id);
  NodeAddr cur = addr;
  std::size_t taken = 0;
  for (std::size_t walked = 0; taken < steps && walked < oracle_.size();
       ++walked) {
    idx = (idx + oracle_.size() - 1) % oracle_.size();
    const NodeAddr cand = slots_[oracle_[idx].second].addr;
    if (cand == excluded) continue;
    cur = cand;
    ++taken;
    if (cur == addr) break;
  }
  return cur;
}

NodeAddr SingleHopRing::Successor(NodeAddr addr) const {
  const Node& n = MustGet(addr);
  const Slot s = ResolveLink(n.successor);
  if (s != kNoSlot) return slots_[s].addr;
  // Stale link (the successor crashed since the last window): the full
  // table supplies the next live member, one detected failure, zero hops.
  maintenance_.dead_links_skipped += 1;
  const std::size_t idx = OracleIndexOf(n.id);
  return slots_[oracle_[(idx + 1) % oracle_.size()].second].addr;
}

NodeAddr SingleHopRing::Predecessor(NodeAddr addr) const {
  const Node& n = MustGet(addr);
  const Slot s = ResolveLink(n.predecessor);
  if (s != kNoSlot) return slots_[s].addr;
  maintenance_.dead_links_skipped += 1;
  const std::size_t idx = OracleIndexOf(n.id);
  return slots_[oracle_[(idx + oracle_.size() - 1) % oracle_.size()].second]
      .addr;
}

bool SingleHopRing::Owns(NodeAddr addr, Key key) const {
  const Node& n = MustGet(addr);
  if (oracle_.size() == 1) return true;
  const std::size_t idx = OracleIndexOf(n.id);
  const Key pred_id =
      oracle_[(idx + oracle_.size() - 1) % oracle_.size()].first;
  return chord::InIntervalOC(key & (space_ - 1), pred_id, n.id);
}

std::size_t SingleHopRing::Outlinks(NodeAddr addr) const {
  MustGet(addr);  // membership check
  return by_addr_.size() - 1;
}

std::vector<NodeAddr> SingleHopRing::FullViewOf(NodeAddr addr) const {
  const Node& n = MustGet(addr);
  const std::size_t idx = OracleIndexOf(n.id);
  std::vector<NodeAddr> out;
  out.reserve(oracle_.size());
  for (std::size_t i = 0; i < oracle_.size(); ++i) {
    out.push_back(slots_[oracle_[(idx + i) % oracle_.size()].second].addr);
  }
  return out;
}

// ---- Routing --------------------------------------------------------------

LookupResult SingleHopRing::Lookup(Key key, NodeAddr origin) const {
  LookupResult r;
  LookupInto(key, origin, r);
  return r;
}

void SingleHopRing::LookupInto(Key key, NodeAddr origin,
                               LookupResult& r) const {
  const std::uint64_t start_ns =
      obs::TracingActive() ? obs::MonotonicNowNs() : 0;
  r.ok = false;
  r.key = key & (space_ - 1);
  r.owner = kNoNode;
  r.hops = 0;
  r.cache_hits = 0;
  r.path.clear();
  const Slot origin_slot = SlotOf(origin);
  if (origin_slot != kNoSlot) {
    r.path.push_back(origin);
    // The full table names the owner directly: zero hops when the origin
    // owns the key itself, one hop otherwise.
    const Slot owner_slot = OwnerSlotOf(r.key);
    if (owner_slot != kNoSlot) {
      const Node& owner = slots_[owner_slot];
      r.owner = owner.addr;
      r.ok = true;
      if (owner_slot != origin_slot) {
        r.hops = 1;
        r.path.push_back(owner.addr);
      }
    }
  }
  if (obs::MetricsEnabled()) {
    static obs::Histogram& hops = obs::Registry::Global().GetHistogram(
        "singlehop.lookup.hops", obs::Histogram::LinearBounds(0.0, 1.0, 32));
    static obs::Counter& lookups =
        obs::Registry::Global().GetCounter("singlehop.lookups");
    static obs::Counter& failures =
        obs::Registry::Global().GetCounter("singlehop.lookup.failures");
    lookups.AddUnchecked(1);
    hops.RecordUnchecked(static_cast<double>(r.hops));
    if (!r.ok) failures.AddUnchecked(1);
  }
  const std::uint64_t dur_ns =
      start_ns != 0 ? obs::MonotonicNowNs() - start_ns : 0;
  // The lookup follows no stored link, so it can detect no dead ones.
  obs::OnLookup(r.path, r.hops, r.ok, /*dead_links_skipped=*/0, dur_ns,
                r.cache_hits);
}

// ---- Maintenance ----------------------------------------------------------

void SingleHopRing::SpliceNeighbors(Slot slot) {
  Node& n = slots_[slot];
  const std::size_t count = oracle_.size();
  const std::size_t idx = OracleIndexOf(n.id);
  const Slot succ = oracle_[(idx + 1) % count].second;
  const Slot pred = oracle_[(idx + count - 1) % count].second;
  n.successor = MakeLink(succ);
  n.predecessor = MakeLink(pred);
  slots_[pred].successor = MakeLink(slot);
  slots_[succ].predecessor = MakeLink(slot);
}

void SingleHopRing::FixNode(NodeAddr addr) {
  const Slot s = SlotOf(addr);
  LORM_CHECK_MSG(s != kNoSlot, "unknown single-hop node");
  SpliceNeighbors(s);
  maintenance_.stabilize_messages += 1;  // the node's heartbeat ping
}

void SingleHopRing::StabilizeAll() {
  // EDRA window: every crash since the last round is detected by its
  // heartbeat peer and its event report reaches every live member; one
  // heartbeat ping per node keeps detection running even in quiet rounds.
  maintenance_.stabilize_messages +=
      pending_fail_events_ * oracle_.size() + oracle_.size();
  pending_fail_events_ = 0;
  for (std::size_t i = 0; i < oracle_.size(); ++i) {
    const std::size_t next = (i + 1) % oracle_.size();
    Node& n = slots_[oracle_[i].second];
    n.successor = MakeLink(oracle_[next].second);
    slots_[oracle_[next].second].predecessor = MakeLink(oracle_[i].second);
  }
}

void SingleHopRing::AddObserver(MembershipObserver* obs) {
  observers_.push_back(obs);
}

void SingleHopRing::RemoveObserver(MembershipObserver* obs) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), obs),
                   observers_.end());
}

std::size_t SingleHopRing::ApproxMemoryBytes() const {
  std::size_t bytes = slots_.capacity() * sizeof(Node);
  bytes += free_slots_.capacity() * sizeof(Slot);
  bytes += oracle_.capacity() * sizeof(std::pair<Key, Slot>);
  bytes += by_addr_.MemoryBytes();
  return bytes;
}

SingleHopRing MakeSingleHopRing(std::size_t n, Config cfg,
                                bool deterministic_ids, NodeAddr base_addr) {
  SingleHopRing ring(cfg);
  if (deterministic_ids) {
    const std::uint64_t space = std::uint64_t{1} << cfg.bits;
    if (n > space) throw ConfigError("more nodes than identifiers");
    // Same seed-derived rotation + proportional placement as chord's
    // MakeRing, so the two substrates are comparable point for point.
    std::uint64_t st = cfg.seed;
    const Key offset = SplitMix64(st) & (space - 1);
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<Key>(
          (static_cast<unsigned __int128>(i) * space / n + offset) &
          (space - 1));
      ring.AddNodeWithId(static_cast<NodeAddr>(base_addr + i), id);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      ring.AddNode(static_cast<NodeAddr>(base_addr + i));
    }
  }
  ring.StabilizeAll();
  return ring;
}

}  // namespace lorm::singlehop
