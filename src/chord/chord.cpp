#include "chord/chord.hpp"

#include <algorithm>
#include <array>
#include <unordered_set>

#include "common/error.hpp"
#include "common/hashing.hpp"
#include "common/random.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lorm::chord {

bool InIntervalOC(Key x, Key lo, Key hi) {
  if (lo == hi) return true;  // degenerate interval covers the whole ring
  if (lo < hi) return x > lo && x <= hi;
  return x > lo || x <= hi;  // wrapped
}

bool InIntervalOO(Key x, Key lo, Key hi) {
  if (lo == hi) return x != lo;  // whole ring minus the endpoint
  if (lo < hi) return x > lo && x < hi;
  return x > lo || x < hi;  // wrapped
}

ChordRing::ChordRing(Config cfg) : cfg_(cfg) {
  if (cfg_.bits == 0 || cfg_.bits > 63) {
    throw ConfigError("ChordRing bits must be in [1, 63]");
  }
  if (cfg_.successor_list == 0) {
    throw ConfigError("ChordRing successor list must be non-empty");
  }
  if (cfg_.successor_list > 0xffff) {
    throw ConfigError("ChordRing successor list exceeds the u16 slab count");
  }
  space_ = std::uint64_t{1} << cfg_.bits;
  link_stride_ = cfg_.bits + cfg_.successor_list;
  if (cfg_.route_cache) route_cache_.Enable();
}

ChordRing::Slot ChordRing::SlotOf(NodeAddr addr) const {
  const std::uint32_t v = by_addr_.Find(addr);
  return v == AddrIndexMap::kAbsent ? kNoSlot : static_cast<Slot>(v);
}

ChordRing::Node& ChordRing::MustGet(NodeAddr addr) {
  const Slot s = SlotOf(addr);
  LORM_CHECK_MSG(s != kNoSlot, "unknown chord node");
  return slots_[s];
}

const ChordRing::Node& ChordRing::MustGet(NodeAddr addr) const {
  const Slot s = SlotOf(addr);
  LORM_CHECK_MSG(s != kNoSlot, "unknown chord node");
  return slots_[s];
}

ChordRing::Link ChordRing::MakeLink(Slot s) const {
  const Node& n = slots_[s];
  return Link{s, n.gen, n.addr, n.id};
}

ChordRing::Slot ChordRing::ResolveLink(const Link& l) const {
  if (l.slot != kNoSlot && slots_[l.slot].gen == l.gen) return l.slot;
  // Stale link: the slot was vacated since the link was built. The address
  // may still be a member (departed and rejoined elsewhere) — resolve it the
  // slow way, as the pre-slab address-keyed tables did on every access.
  return SlotOf(l.addr);
}

ChordRing::Slot ChordRing::AllocateSlot(NodeAddr addr, Key id) {
  Slot s;
  if (!free_slots_.empty()) {
    s = free_slots_.back();
    free_slots_.pop_back();
  } else {
    s = static_cast<Slot>(slots_.size());
    slots_.emplace_back();
    links_.resize(slots_.size() * link_stride_);
  }
  Node& n = slots_[s];
  n.id = id;
  n.addr = addr;
  n.live = true;  // gen was already bumped when the slot was vacated
  n.predecessor = Link{};
  n.finger_count = 0;
  n.succ_count = 0;
  route_cache_.EnsureSlots(slots_.size());
  return s;
}

void ChordRing::ReleaseSlot(Slot s) {
  Node& n = slots_[s];
  ++n.gen;  // invalidates every link that points here
  n.live = false;
  n.addr = kNoNode;
  n.predecessor = Link{};
  n.finger_count = 0;  // the slab extent stays in place for the next occupant
  n.succ_count = 0;
  free_slots_.push_back(s);
  // The generation bump above already invalidates shortcuts *to* this slot;
  // drop what the departed occupant had learned as well.
  route_cache_.ClearNode(s);
}

Key ChordRing::FingerStart(Key id, unsigned i) const {
  return (id + (std::uint64_t{1} << i)) & (space_ - 1);
}

Key ChordRing::AddNode(NodeAddr addr) {
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

void ChordRing::AddNodeWithId(NodeAddr addr, Key id) {
  LORM_CHECK_MSG(id < space_, "chord id outside the identifier space");
  if (Contains(addr)) throw ConfigError("node address already in ring");
  if (OracleContains(id)) throw ConfigError("chord id collision");

  const bool first = by_addr_.empty();
  const Slot self_slot = AllocateSlot(addr, id);
  OracleInsert(id, self_slot);
  by_addr_.Put(addr, self_slot);

  if (first) {
    Node& n = slots_[self_slot];
    n.predecessor = MakeLink(self_slot);
    const Link self_link = MakeLink(self_slot);
    SlotSuccessors(self_slot)[0] = self_link;
    n.succ_count = 1;
    Link* fingers = SlotFingers(self_slot);
    for (unsigned i = 0; i < cfg_.bits; ++i) fingers[i] = self_link;
    n.finger_count = static_cast<std::uint16_t>(cfg_.bits);
    maintenance_.join_messages += 1;  // bootstrap announcement
    for (auto* obs : observers_) obs->OnJoin(addr, addr);
    return;
  }

  // Splice into the successor/predecessor ring (the protocol's join+notify
  // step, done atomically because departures here are graceful).
  Node& self = slots_[self_slot];
  BuildState(self);  // routes through the oracle, which already includes us
  // Join cost: the bootstrap lookup (~log n hops), one message per table
  // entry built, and the two notify messages below.
  maintenance_.join_messages +=
      cfg_.bits / 2 + self.finger_count + self.succ_count + 2;
  const Slot succ_slot = ResolveLink(SlotSuccessors(self_slot)[0]);
  Node& s = slots_[succ_slot];
  const NodeAddr succ = s.addr;
  const Link pred = s.predecessor;
  self.predecessor = pred;
  s.predecessor = MakeLink(self_slot);
  // A crashed predecessor (no stabilization since) cannot be notified; the
  // stale link stays, as on every other neighbor of an unrepaired failure.
  const Slot pred_slot =
      pred.addr != kNoNode && pred.addr != addr ? ResolveLink(pred) : kNoSlot;
  if (pred_slot != kNoSlot) {
    Node& p = slots_[pred_slot];
    SlotSuccessors(pred_slot)[0] = MakeLink(self_slot);
    if (p.succ_count == 0) p.succ_count = 1;
  }
  for (auto* obs : observers_) obs->OnJoin(addr, succ);
}

void ChordRing::BulkAssign(
    const std::vector<std::pair<NodeAddr, Key>>& members) {
  LORM_CHECK_MSG(by_addr_.empty(), "BulkAssign requires an empty ring");
  LORM_CHECK_MSG(observers_.empty(),
                 "BulkAssign does not notify membership observers");
  slots_.reserve(members.size());
  links_.reserve(members.size() * link_stride_);
  oracle_.reserve(members.size());
  by_addr_.reserve(members.size());
  for (const auto& [addr, id] : members) {
    LORM_CHECK_MSG(id < space_, "chord id outside the identifier space");
    if (Contains(addr)) throw ConfigError("node address already in ring");
    const Slot s = AllocateSlot(addr, id);
    by_addr_.Put(addr, s);
    oracle_.push_back({id, s});
  }
  std::sort(oracle_.begin(), oracle_.end());
  for (std::size_t i = 1; i < oracle_.size(); ++i) {
    if (oracle_[i].first == oracle_[i - 1].first) {
      throw ConfigError("chord id collision");
    }
  }
  StabilizeAll();
}

void ChordRing::RemoveNode(NodeAddr addr) {
  const Slot self_slot = SlotOf(addr);
  LORM_CHECK_MSG(self_slot != kNoSlot, "unknown chord node");
  Node& n = slots_[self_slot];
  const bool last = by_addr_.size() == 1;
  const Slot succ_slot =
      last ? kNoSlot : FirstLiveSuccessorSlotExcept(n, addr);
  const NodeAddr succ = succ_slot == kNoSlot ? kNoNode : slots_[succ_slot].addr;
  // Two notify messages (pred, succ) plus the key-handoff transfer.
  maintenance_.leave_messages += 3;
  for (auto* obs : observers_) obs->OnLeave(addr, succ);

  if (!last) {
    const Link pred = n.predecessor;
    Node& s = slots_[succ_slot];
    if (pred.addr != kNoNode && pred.addr != addr) {
      s.predecessor = pred;
      // A crashed predecessor keeps its stale link until stabilization.
      const Slot pred_slot = ResolveLink(pred);
      if (pred_slot != kNoSlot) {
        Node& p = slots_[pred_slot];
        if (p.succ_count != 0 && SlotSuccessors(pred_slot)[0].addr == addr) {
          SlotSuccessors(pred_slot)[0] = MakeLink(succ_slot);
        }
      }
    } else {
      s.predecessor = MakeLink(succ_slot);  // degenerate two-node case
    }
  }
  OracleErase(n.id);
  by_addr_.Erase(addr);
  ReleaseSlot(self_slot);
}

void ChordRing::FailNode(NodeAddr addr) {
  const Slot self_slot = SlotOf(addr);
  LORM_CHECK_MSG(self_slot != kNoSlot, "unknown chord node");
  for (auto* obs : observers_) obs->OnFail(addr);
  // No splice, no handoff: neighbors discover the failure lazily.
  OracleErase(slots_[self_slot].id);
  by_addr_.Erase(addr);
  ReleaseSlot(self_slot);
}

std::vector<NodeAddr> ChordRing::Members() const {
  std::vector<NodeAddr> out;
  out.reserve(oracle_.size());
  for (const auto& [id, slot] : oracle_) out.push_back(slots_[slot].addr);
  return out;
}

Key ChordRing::IdOf(NodeAddr addr) const { return MustGet(addr).id; }

std::size_t ChordRing::OracleUpperBound(Key id) const {
  const auto it = std::upper_bound(
      oracle_.begin(), oracle_.end(), id,
      [](Key k, const std::pair<Key, Slot>& e) { return k < e.first; });
  return static_cast<std::size_t>(it - oracle_.begin());
}

std::size_t ChordRing::OracleIndexOf(Key id) const {
  const auto it = std::lower_bound(
      oracle_.begin(), oracle_.end(), id,
      [](const std::pair<Key, Slot>& e, Key k) { return e.first < k; });
  LORM_CHECK(it != oracle_.end() && it->first == id);
  return static_cast<std::size_t>(it - oracle_.begin());
}

bool ChordRing::OracleContains(Key id) const {
  const auto it = std::lower_bound(
      oracle_.begin(), oracle_.end(), id,
      [](const std::pair<Key, Slot>& e, Key k) { return e.first < k; });
  return it != oracle_.end() && it->first == id;
}

void ChordRing::OracleInsert(Key id, Slot slot) {
  const auto it = std::lower_bound(
      oracle_.begin(), oracle_.end(), id,
      [](const std::pair<Key, Slot>& e, Key k) { return e.first < k; });
  oracle_.insert(it, {id, slot});
}

void ChordRing::OracleErase(Key id) {
  oracle_.erase(oracle_.begin() +
                static_cast<std::ptrdiff_t>(OracleIndexOf(id)));
}

ChordRing::Slot ChordRing::OwnerSlotOf(Key key) const {
  LORM_CHECK_MSG(!oracle_.empty(), "OwnerOf on empty ring");
  // Binary search over the flat mirror instead of walking the std::map's
  // pointer tree: OwnerOf dominates BuildState/StabilizeAll and the benches'
  // oracle probes.
  const auto it = std::lower_bound(
      oracle_.begin(), oracle_.end(), key,
      [](const std::pair<Key, Slot>& e, Key k) { return e.first < k; });
  return it == oracle_.end() ? oracle_.front().second : it->second;
}

NodeAddr ChordRing::OwnerOf(Key key) const {
  return slots_[OwnerSlotOf(key)].addr;
}

NodeAddr ChordRing::OwnerOfExcluding(Key key, NodeAddr excluded) const {
  LORM_CHECK_MSG(!oracle_.empty(), "OwnerOfExcluding on empty ring");
  std::size_t idx = OracleUpperBound(key);
  // upper_bound lands one past an exact-id match; the owner convention is
  // (pred, self], so step back onto the exact match when there is one.
  if (idx > 0 && oracle_[idx - 1].first == key) --idx;
  for (std::size_t probed = 0; probed < oracle_.size(); ++probed) {
    const Slot s = oracle_[(idx + probed) % oracle_.size()].second;
    if (slots_[s].addr != excluded) return slots_[s].addr;
  }
  return kNoNode;  // every member excluded
}

NodeAddr ChordRing::NthOracleSuccessor(NodeAddr addr, std::size_t steps,
                                       NodeAddr excluded) const {
  std::size_t idx = OracleIndexOf(IdOf(addr));
  NodeAddr cur = addr;
  std::size_t taken = 0;
  for (std::size_t probed = 0; taken < steps && probed < oracle_.size();
       ++probed) {
    idx = (idx + 1) % oracle_.size();
    const NodeAddr next = slots_[oracle_[idx].second].addr;
    if (next == excluded) continue;
    cur = next;
    ++taken;
  }
  return cur;
}

NodeAddr ChordRing::NthOraclePredecessor(NodeAddr addr, std::size_t steps,
                                         NodeAddr excluded) const {
  std::size_t idx = OracleIndexOf(IdOf(addr));
  NodeAddr cur = addr;
  std::size_t taken = 0;
  for (std::size_t probed = 0; taken < steps && probed < oracle_.size();
       ++probed) {
    idx = (idx + oracle_.size() - 1) % oracle_.size();
    const NodeAddr prev = slots_[oracle_[idx].second].addr;
    if (prev == excluded) continue;
    cur = prev;
    ++taken;
  }
  return cur;
}

NodeAddr ChordRing::Successor(NodeAddr addr) const {
  const Node& n = MustGet(addr);
  return slots_[FirstLiveSuccessorSlot(n)].addr;
}

NodeAddr ChordRing::Predecessor(NodeAddr addr) const {
  return MustGet(addr).predecessor.addr;
}

bool ChordRing::OwnsNode(const Node& n, Key key) const {
  if (n.predecessor.addr == kNoNode || n.predecessor.addr == n.addr) {
    return true;
  }
  const Slot pred_slot = ResolveLink(n.predecessor);
  Key pred_id;
  if (pred_slot == kNoSlot) {
    // The predecessor failed: the failure detector fires and the node adopts
    // the closest live predecessor — the state the next stabilization round
    // converges to. (Claiming the whole ring here would terminate lookups at
    // the wrong owner.)
    ++maintenance_.dead_links_skipped;
    const std::size_t idx = OracleIndexOf(n.id);
    pred_id = (idx == 0) ? oracle_.back().first : oracle_[idx - 1].first;
    if (pred_id == n.id) return true;  // alone in the ring
  } else {
    pred_id = slots_[pred_slot].id;
  }
  return InIntervalOC(key, pred_id, n.id);
}

bool ChordRing::Owns(NodeAddr addr, Key key) const {
  return OwnsNode(MustGet(addr), key);
}

namespace {

/// Counts the distinct addresses in buf[0..count): sort + unique on the
/// caller's stack buffer. The previous per-entry std::find dedup was O(k^2)
/// in the routing-table size and dominated Fig 3(a)'s measurement loop.
std::size_t CountDistinct(NodeAddr* buf, std::size_t count) {
  std::sort(buf, buf + count);
  return static_cast<std::size_t>(std::unique(buf, buf + count) - buf);
}

}  // namespace

std::size_t ChordRing::Outlinks(NodeAddr addr) const {
  const Node& n = MustGet(addr);
  const Slot slot = SlotIndexOf(n);
  const std::size_t cap = n.finger_count + n.succ_count + 1;
  std::array<NodeAddr, 128> stack;
  std::vector<NodeAddr> heap;  // only for oversized successor-list configs
  NodeAddr* buf = stack.data();
  if (cap > stack.size()) {
    heap.resize(cap);
    buf = heap.data();
  }
  std::size_t count = 0;
  auto consider = [&](const Link& l) {
    if (l.addr != kNoNode && l.addr != addr && LinkAlive(l)) {
      buf[count++] = l.addr;
    }
  };
  const Link* fingers = SlotFingers(slot);
  const Link* succs = SlotSuccessors(slot);
  for (std::size_t i = 0; i < n.finger_count; ++i) consider(fingers[i]);
  for (std::size_t i = 0; i < n.succ_count; ++i) consider(succs[i]);
  consider(n.predecessor);
  return CountDistinct(buf, count);
}

std::size_t ChordRing::FingerTableSize(NodeAddr addr) const {
  const Node& n = MustGet(addr);
  std::array<NodeAddr, 64> buf;  // bits <= 63 fingers, always fits
  std::size_t count = 0;
  const Link* fingers = SlotFingers(SlotIndexOf(n));
  for (std::size_t i = 0; i < n.finger_count; ++i) {
    const Link& f = fingers[i];
    if (f.addr != kNoNode && f.addr != addr && LinkAlive(f)) {
      buf[count++] = f.addr;
    }
  }
  return CountDistinct(buf.data(), count);
}

std::vector<NodeAddr> ChordRing::NeighborsOf(NodeAddr addr) const {
  const Node& n = MustGet(addr);
  std::vector<NodeAddr> out;
  auto consider = [&](NodeAddr a) {
    if (a == kNoNode || a == addr) return;
    if (std::find(out.begin(), out.end(), a) == out.end()) out.push_back(a);
  };
  const Slot slot = SlotIndexOf(n);
  const Link* fingers = SlotFingers(slot);
  const Link* succs = SlotSuccessors(slot);
  for (std::size_t i = 0; i < n.finger_count; ++i) consider(fingers[i].addr);
  for (std::size_t i = 0; i < n.succ_count; ++i) consider(succs[i].addr);
  consider(n.predecessor.addr);
  return out;
}

std::vector<NodeAddr> ChordRing::FingersOf(NodeAddr addr) const {
  const Node& n = MustGet(addr);
  std::vector<NodeAddr> out;
  out.reserve(n.finger_count);
  const Link* fingers = SlotFingers(SlotIndexOf(n));
  for (std::size_t i = 0; i < n.finger_count; ++i) out.push_back(fingers[i].addr);
  return out;
}

std::vector<NodeAddr> ChordRing::SuccessorListOf(NodeAddr addr) const {
  const Node& n = MustGet(addr);
  std::vector<NodeAddr> out;
  out.reserve(n.succ_count);
  const Link* succs = SlotSuccessors(SlotIndexOf(n));
  for (std::size_t i = 0; i < n.succ_count; ++i) out.push_back(succs[i].addr);
  return out;
}

ChordRing::Slot ChordRing::FirstLiveSuccessorSlot(const Node& n) const {
  const Link* succs = SlotSuccessors(SlotIndexOf(n));
  for (std::size_t i = 0; i < n.succ_count; ++i) {
    const Slot slot = ResolveLink(succs[i]);
    if (slot != kNoSlot) return slot;
    ++maintenance_.dead_links_skipped;
  }
  // Whole successor list died (only possible under extreme churn between
  // maintenance rounds): detect the failure and recover from the oracle,
  // as a real node would recover through its failure detector + backup list.
  std::size_t idx = OracleUpperBound(n.id);
  if (idx == oracle_.size()) idx = 0;
  return oracle_[idx].second;
}

ChordRing::Slot ChordRing::FirstLiveSuccessorSlotExcept(
    const Node& n, NodeAddr excluded) const {
  const Link* succs = SlotSuccessors(SlotIndexOf(n));
  for (std::size_t i = 0; i < n.succ_count; ++i) {
    const Link& s = succs[i];
    if (s.addr == excluded) continue;
    const Slot slot = ResolveLink(s);
    if (slot != kNoSlot) return slot;
  }
  std::size_t idx = OracleUpperBound(n.id);
  for (std::size_t guard = 0; guard <= oracle_.size(); ++guard) {
    if (idx == oracle_.size()) idx = 0;
    if (slots_[oracle_[idx].second].addr != excluded) return oracle_[idx].second;
    ++idx;
  }
  return kNoSlot;
}

ChordRing::Slot ChordRing::ClosestPrecedingSlot(const Node& n, Key key) const {
  // Fingers from most- to least-significant, then the successor list; pick
  // the live node whose ID most closely precedes the key. With a current
  // generation the target's ID comes straight from the link — the loop
  // touches no map.
  const Slot self = SlotIndexOf(n);
  const Link* fingers = SlotFingers(self);
  for (std::size_t i = n.finger_count; i-- > 0;) {
    const Link& f = fingers[i];
    if (f.addr == kNoNode || f.addr == n.addr) continue;
    Slot slot;
    Key fid;
    if (f.slot != kNoSlot && slots_[f.slot].gen == f.gen) {
      slot = f.slot;
      fid = f.id;
    } else {
      slot = SlotOf(f.addr);
      if (slot == kNoSlot) {
        ++maintenance_.dead_links_skipped;
        continue;
      }
      fid = slots_[slot].id;  // the address rejoined with a different ID
    }
    if (InIntervalOO(fid, n.id, key)) return slot;
  }
  Slot best = kNoSlot;
  Key best_id = n.id;
  const Link* succs = SlotSuccessors(self);
  for (std::size_t i = 0; i < n.succ_count; ++i) {
    const Link& s = succs[i];
    if (s.addr == kNoNode || s.addr == n.addr) continue;
    Slot slot;
    Key sid;
    if (s.slot != kNoSlot && slots_[s.slot].gen == s.gen) {
      slot = s.slot;
      sid = s.id;
    } else {
      slot = SlotOf(s.addr);
      if (slot == kNoSlot) continue;
      sid = slots_[slot].id;
    }
    if (!InIntervalOO(sid, n.id, key)) continue;
    if (best == kNoSlot || InIntervalOO(best_id, n.id, sid)) {
      best = slot;
      best_id = sid;
    }
  }
  return best;
}

LookupResult ChordRing::Lookup(Key key, NodeAddr origin) const {
  LookupResult r;
  LookupInto(key, origin, r);
  return r;
}

bool ChordRing::StepOnce(LookupState& st, LookupResult& r) const {
  if (OwnsNode(slots_[st.cur], r.key)) {
    r.owner = slots_[st.cur].addr;
    r.ok = true;
    return false;
  }
  if (route_cache_.enabled()) {
    Link shortcut;
    if (route_cache_.Probe(st.cur, r.key, shortcut)) {
      // Same liveness discipline as a finger, plus an ownership re-check
      // with the walk's own termination predicate: a stale or wrong
      // shortcut can never route to an owner the plain walk would reject.
      if (shortcut.slot != kNoSlot && shortcut.slot != st.cur &&
          slots_[shortcut.slot].gen == shortcut.gen &&
          OwnsNode(slots_[shortcut.slot], r.key)) {
        cache::TickRouteHit();
        st.cur = shortcut.slot;
        ++r.hops;
        ++r.cache_hits;
        r.path.push_back(slots_[st.cur].addr);
        return true;
      }
      route_cache_.Evict(st.cur, r.key);
    }
    cache::TickRouteMiss();
  }
  const Node& n = slots_[st.cur];
  const Slot succ = FirstLiveSuccessorSlot(n);
  if (succ == st.cur) {
    // Sole member believes it owns everything; Owns() should have caught
    // this, but guard against a dangling predecessor pointer.
    r.owner = slots_[st.cur].addr;
    r.ok = true;
    return false;
  }
  Slot next;
  if (InIntervalOC(r.key, n.id, slots_[succ].id)) {
    next = succ;
  } else {
    next = ClosestPrecedingSlot(n, r.key);
    if (next == kNoSlot || next == st.cur) next = succ;
  }
  st.cur = next;
  ++r.hops;
  r.path.push_back(slots_[st.cur].addr);
  // Past the cap, ok stays false: routing failure (should not happen).
  return r.hops <= st.max_hops;
}

void ChordRing::LookupInto(Key key, NodeAddr origin, LookupResult& r) const {
  // Timestamp taken only while a trace is active on this thread, so the
  // off-state cost stays the TLS null check.
  const std::uint64_t start_ns =
      obs::TracingActive() ? obs::MonotonicNowNs() : 0;
  const std::uint64_t dead_before = maintenance_.dead_links_skipped;
  r.ok = false;
  r.key = key & (space_ - 1);
  r.owner = kNoNode;
  r.hops = 0;
  r.cache_hits = 0;
  r.path.clear();
  LookupState st;
  st.cur = SlotOf(origin);
  st.max_hops = by_addr_.size() + 4 * cfg_.bits + 8;
  if (st.cur != kNoSlot) {
    r.path.push_back(origin);
    while (StepOnce(st, r)) {
    }
  }
  // Dead links this walk detected. Walks run one at a time, so the
  // counter's growth across the walk is exactly this walk's share.
  const std::uint64_t dead_skips =
      maintenance_.dead_links_skipped - dead_before;
  if (r.ok && route_cache_.enabled() && r.hops > 0) {
    // Teach every node on the path a direct link to the owner.
    const Link owner_link = MakeLink(st.cur);
    for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
      const Slot s = SlotOf(r.path[i]);
      if (s != kNoSlot && s != st.cur) {
        route_cache_.Insert(s, r.key, owner_link);
      }
    }
  }
  // Report to the observability layer on every exit path. Costs one flag
  // load + one thread-local null check when obs is off; records nothing
  // else, so routing behavior and results are untouched.
  if (obs::MetricsEnabled()) {
    static obs::Histogram& hops = obs::Registry::Global().GetHistogram(
        "chord.lookup.hops", obs::Histogram::LinearBounds(0.0, 1.0, 32));
    static obs::Counter& lookups =
        obs::Registry::Global().GetCounter("chord.lookups");
    static obs::Counter& failures =
        obs::Registry::Global().GetCounter("chord.lookup.failures");
    static obs::Counter& dead_skip_count = obs::Registry::Global().GetCounter(
        "chord.lookup.dead_links_skipped");
    lookups.AddUnchecked(1);
    hops.RecordUnchecked(static_cast<double>(r.hops));
    if (!r.ok) failures.AddUnchecked(1);
    if (dead_skips != 0) dead_skip_count.AddUnchecked(dead_skips);
  }
  const std::uint64_t dur_ns =
      start_ns != 0 ? obs::MonotonicNowNs() - start_ns : 0;
  obs::OnLookup(r.path, r.hops, r.ok, dead_skips, dur_ns, r.cache_hits);
}

void ChordRing::BuildState(Node& n) {
  const Slot self = SlotIndexOf(n);
  Link* fingers = SlotFingers(self);
  for (unsigned i = 0; i < cfg_.bits; ++i) {
    fingers[i] = MakeLink(OwnerSlotOf(FingerStart(n.id, i)));
  }
  n.finger_count = static_cast<std::uint16_t>(cfg_.bits);
  Link* succs = SlotSuccessors(self);
  n.succ_count = 0;
  std::size_t idx = OracleUpperBound(n.id);
  for (std::size_t k = 0; k < cfg_.successor_list; ++k) {
    if (idx == oracle_.size()) idx = 0;
    if (slots_[oracle_[idx].second].addr == n.addr) break;  // wrapped all the way
    succs[n.succ_count++] = MakeLink(oracle_[idx].second);
    ++idx;
  }
  if (n.succ_count == 0) {
    succs[0] = MakeLink(SlotOf(n.addr));
    n.succ_count = 1;
  }
}

void ChordRing::FixNode(NodeAddr addr) {
  Node& n = MustGet(addr);
  BuildState(n);
  maintenance_.stabilize_messages += n.finger_count + n.succ_count + 1;
}

void ChordRing::StabilizeAll() {
  // One sweep over the oracle in id order. Each node ends with exactly the
  // state BuildState gives it plus the oracle predecessor, but the owner of
  // finger i comes from a per-finger cursor instead of a binary search: the
  // target id + 2^i only grows with id, so every cursor moves forward, at
  // most 2n steps over the whole pass. Cursors index the doubled oracle —
  // position p >= n stands for oracle_[p - n] one revolution on (id +
  // space) — so targets past the top of the space need no wrap test.
  const std::size_t n = oracle_.size();
  // Links to every member in id order, built once: the writes below copy
  // them sequentially instead of re-reading random node headers.
  std::vector<Link> by_id(n);
  for (std::size_t j = 0; j < n; ++j) by_id[j] = MakeLink(oracle_[j].second);
  const auto doubled_id = [&](std::size_t p) {
    return p < n ? oracle_[p].first : oracle_[p - n].first + space_;
  };
  std::array<std::size_t, 64> cursor{};  // bits <= 63
  // The successor list holds every other member up to its configured length.
  const std::size_t succ_len =
      n <= 1 ? 1 : std::min(cfg_.successor_list, n - 1);
  for (std::size_t j = 0; j < n; ++j) {
    const Slot self = oracle_[j].second;
    Node& node = slots_[self];
    Link* fingers = SlotFingers(self);
    for (unsigned i = 0; i < cfg_.bits; ++i) {
      // id + 2^i < id + space = doubled_id(j + n): the cursor stops by then.
      const Key target = node.id + (Key{1} << i);
      std::size_t& p = cursor[i];
      while (doubled_id(p) < target) ++p;
      fingers[i] = by_id[p < n ? p : p - n];
    }
    node.finger_count = static_cast<std::uint16_t>(cfg_.bits);
    // Successors oracle_[j+1 .. j+succ_len] with wrap; a lone node is its
    // own successor.
    Link* succs = SlotSuccessors(self);
    for (std::size_t k = 0; k < succ_len; ++k) {
      succs[k] = by_id[(j + 1 + k) % n];
    }
    node.succ_count = static_cast<std::uint16_t>(succ_len);
    // The predecessor is what repeated stabilize() rounds converge to.
    node.predecessor = by_id[j == 0 ? n - 1 : j - 1];
    maintenance_.stabilize_messages += node.finger_count + node.succ_count + 1;
  }
}

void ChordRing::AddObserver(MembershipObserver* obs) {
  observers_.push_back(obs);
}

void ChordRing::RemoveObserver(MembershipObserver* obs) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), obs),
                   observers_.end());
}

std::size_t ChordRing::ApproxMemoryBytes() const {
  std::size_t bytes = slots_.capacity() * sizeof(Node);
  bytes += links_.capacity() * sizeof(Link);
  bytes += free_slots_.capacity() * sizeof(Slot);
  bytes += oracle_.capacity() * sizeof(std::pair<Key, Slot>);
  bytes += by_addr_.MemoryBytes();
  return bytes;
}

ChordRing MakeRing(std::size_t n, Config cfg, bool deterministic_ids,
                   NodeAddr base_addr) {
  ChordRing ring(cfg);
  const std::uint64_t space = std::uint64_t{1} << cfg.bits;
  std::vector<std::pair<NodeAddr, Key>> members;
  members.reserve(n);
  if (deterministic_ids) {
    if (n > space) throw ConfigError("more nodes than identifiers");
    // Seed-derived rotation: rings built with different seeds place the same
    // addresses at different (still evenly spaced) positions. Without this,
    // Mercury's m hubs would all map the same address to the same sector and
    // every hub's hot key region would land on the same node.
    std::uint64_t st = cfg.seed;
    const Key offset = SplitMix64(st) & (space - 1);
    for (std::size_t i = 0; i < n; ++i) {
      // Proportional placement floor(i * space / n): evenly spread over the
      // whole space even when space is not a multiple of n.
      const auto id = static_cast<Key>(
          (static_cast<unsigned __int128>(i) * space / n + offset) &
          (space - 1));
      members.push_back({static_cast<NodeAddr>(base_addr + i), id});
    }
  } else {
    // Replays AddNode's hash + collision-salting stream against a hash set
    // instead of the growing oracle, so the assigned IDs are identical to n
    // sequential AddNode calls.
    const ConsistentHash ch(cfg.bits);
    std::unordered_set<Key> used;
    used.reserve(n * 2);
    for (std::size_t i = 0; i < n; ++i) {
      const auto addr = static_cast<NodeAddr>(base_addr + i);
      Key id = ch(static_cast<std::uint64_t>(addr) ^ cfg.seed);
      std::uint64_t salt = 0;
      while (used.count(id) != 0) {
        ++salt;
        id = MixHashes(static_cast<std::uint64_t>(addr) ^ cfg.seed, salt) &
             (space - 1);
      }
      used.insert(id);
      members.push_back({addr, id});
    }
  }
  ring.BulkAssign(members);
  return ring;
}

}  // namespace lorm::chord
