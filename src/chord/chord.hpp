// Chord DHT simulator (Stoica et al., IEEE/ACM ToN 2003).
//
// This is the substrate the paper runs Mercury, SWORD and MAAN on ("to be
// comparable, we use Chord for attribute hubs in Mercury, and we replace
// Bamboo DHT with Chord in SWORD", §IV). The simulator is message-level:
//
//  * every node keeps its own finger table, successor list and predecessor;
//  * Lookup() walks those tables hop by hop from the querying node, exactly
//    as the iterative Chord protocol does, and reports the real hop count
//    and path — hop metrics in the figures come from here, never formulas;
//  * joins and graceful departures splice the successor/predecessor ring
//    immediately (the protocol's notify step) and leave finger tables stale
//    until FixFingers/StabilizeAll runs, so churn experiments exercise
//    routing through partially stale state, as in the paper's §V-C;
//  * a global sorted index of members serves purely as the maintenance
//    oracle (what stabilization converges to) and for O(1) test assertions.
//
// Storage layout: nodes live in a contiguous slot slab (`slots_`, one
// cache-line node header per slot) with a per-slot generation counter;
// routing-table entries are `Link`s holding the resolved slot, the
// generation observed when the link was built, and the target's cached ID.
// The links themselves live in a second contiguous slab (`links_`): every
// slot owns a fixed extent of `bits + successor_list` entries — fingers
// first, successor list after — so a node's routing arrays sit at an
// address computable from its slot index alone, with no per-node heap
// allocations to chase. Every lookup takes the same walk, whether or not
// maintenance has run since the last membership change: liveness is a
// single generation compare and IDs come from the link itself — no hash
// probes while the generation matches. Address-based resolution
// (`by_addr_`) runs once per membership change and as the fallback for
// stale links, which exactly reproduces address semantics when a node
// departs (or departs and rejoins) between maintenance rounds.
//
// The ring is configurable between the paper's deterministic mode (an
// 11-bit space holding all 2048 IDs) and the standard random-ID mode
// (IDs = consistent hash of the node address in a large space).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "cache/route_cache.hpp"
#include "common/maintenance.hpp"
#include "common/flat_map.hpp"
#include "common/types.hpp"

namespace lorm::chord {

using lorm::MaintenanceStats;

/// Position in the Chord identifier circle.
using Key = std::uint64_t;

/// True iff `x` lies in the half-open ring interval (lo, hi] (mod 2^bits).
bool InIntervalOC(Key x, Key lo, Key hi);
/// True iff `x` lies in the open ring interval (lo, hi) (mod 2^bits).
bool InIntervalOO(Key x, Key lo, Key hi);

struct Config {
  /// Identifier-space size is 2^bits. The paper uses bits=11 with 2048 nodes.
  unsigned bits = 24;
  /// Length of each node's successor list (>= 1).
  std::size_t successor_list = 4;
  /// Seed for ID assignment in random-ID mode.
  std::uint64_t seed = 0x5EEDC0DEull;
  /// Learn per-node shortcut links from completed lookups and consult them
  /// before the finger tables (see cache/route_cache.hpp). Off by default:
  /// the uncached walk is the paper's protocol and stays byte-identical.
  bool route_cache = false;
};

/// Result of routing a lookup through the overlay.
struct LookupResult {
  bool ok = false;
  Key key = 0;                  ///< the looked-up key
  NodeAddr owner = kNoNode;     ///< node whose ID sector contains the key
  HopCount hops = 0;            ///< inter-node hops from origin to owner
  std::vector<NodeAddr> path;   ///< origin first, owner last
  /// Hops taken through route-cache shortcuts (0 with the cache off).
  std::uint64_t cache_hits = 0;
};

/// Observer of ring membership changes; the discovery layer uses this to
/// re-home stored resource information when key ownership moves.
class MembershipObserver {
 public:
  virtual ~MembershipObserver() = default;
  /// Called after `node` has joined (it is already in the ownership
  /// oracle); keys in (pred(node), node] moved from `successor` to `node`.
  virtual void OnJoin(NodeAddr node, NodeAddr successor) = 0;
  /// Called before `node` leaves, while it is still in the ownership
  /// oracle; all its keys move to `successor` (kNoNode when the last node
  /// leaves). Handlers that need post-departure ownership use
  /// OwnerOfExcluding / the Nth* walks with `node` excluded.
  virtual void OnLeave(NodeAddr node, NodeAddr successor) = 0;
  /// Called when `node` fails abruptly, before it leaves the ownership
  /// oracle (its state is still readable). The ring performs no handoff:
  /// with replication off everything the node stored is lost until
  /// providers re-advertise (soft state); replicated services use this
  /// hook to restore coverage from surviving replicas.
  virtual void OnFail(NodeAddr node) { (void)node; }
};


class ChordRing {
 public:
  /// Index into the node slot slab.
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = 0xffffffffu;

  explicit ChordRing(Config cfg);

  // ---- Membership -------------------------------------------------------

  /// Joins a new node with the given address; its ID is the consistent hash
  /// of the address (salted on collision). Returns its ring ID.
  Key AddNode(NodeAddr addr);

  /// Joins a new node at an explicit ring ID (deterministic mode; the
  /// paper's fully populated 11-bit ring). Throws on ID collision.
  void AddNodeWithId(NodeAddr addr, Key id);

  /// Bulk membership for large static rings: pre-sizes the slab and address
  /// index, builds the sorted oracle with one sort instead of n spliced
  /// inserts, and stabilizes every node once — O(n log n) total where n
  /// sequential joins cost O(n^2) oracle memmoves. The routing state is
  /// exactly what the join path + StabilizeAll converge to (asserted in
  /// tests); only the per-join message accounting is skipped. Requires an
  /// empty ring with no registered observers.
  void BulkAssign(const std::vector<std::pair<NodeAddr, Key>>& members);

  /// Graceful departure: splices the ring and notifies observers.
  void RemoveNode(NodeAddr addr);

  /// Abrupt failure: the node vanishes without notifying anyone. Neighbors'
  /// pointers to it go stale until routing skips them and maintenance
  /// repairs them; anything it stored is lost (observers get OnFail).
  void FailNode(NodeAddr addr);

  std::size_t size() const { return by_addr_.size(); }
  bool Contains(NodeAddr addr) const { return by_addr_.Contains(addr); }
  std::vector<NodeAddr> Members() const;

  // ---- Structure queries (oracle / protocol state) -----------------------

  Key IdOf(NodeAddr addr) const;
  /// Oracle: the current owner (successor) of `key`.
  NodeAddr OwnerOf(Key key) const;
  /// Oracle owner of `key` as if `excluded` had already left the ring.
  /// Membership observers fire while the departing/failed node is still in
  /// the oracle (so its state stays readable); handoff logic uses this to
  /// compute post-event ownership. `excluded` = kNoNode degrades to OwnerOf.
  NodeAddr OwnerOfExcluding(Key key, NodeAddr excluded) const;
  /// Oracle: the node `steps` positions clockwise of `addr` (0 = itself),
  /// skipping `excluded` if given; the walk is capped at one ring
  /// revolution. This is the successor-list-replication placement oracle:
  /// replica i of a key lives on the i-th oracle successor of its owner.
  NodeAddr NthOracleSuccessor(NodeAddr addr, std::size_t steps,
                              NodeAddr excluded = kNoNode) const;
  /// Counterclockwise counterpart of NthOracleSuccessor.
  NodeAddr NthOraclePredecessor(NodeAddr addr, std::size_t steps,
                                NodeAddr excluded = kNoNode) const;
  /// The node's own successor pointer (protocol state).
  NodeAddr Successor(NodeAddr addr) const;
  NodeAddr Predecessor(NodeAddr addr) const;
  /// True iff `key` is in (pred(node), node] per the node's own state.
  bool Owns(NodeAddr addr, Key key) const;

  /// Number of distinct live remote nodes in the routing state (fingers,
  /// successor list, predecessor). This is the "outlinks" metric of Fig 3(a).
  std::size_t Outlinks(NodeAddr addr) const;

  /// Distinct finger-table targets only (the classic log n figure).
  std::size_t FingerTableSize(NodeAddr addr) const;

  /// Every distinct node the given node can reach in one hop (fingers,
  /// successor list, predecessor — live or stale). Exposed so tests can
  /// verify that lookup paths only ever traverse real routing-table links.
  std::vector<NodeAddr> NeighborsOf(NodeAddr addr) const;

  /// Raw finger-table targets in table order (index i covers id + 2^i),
  /// stale entries included. Lets the micro benches re-run the exact lookup
  /// walk through the public address-based API as a reference check on the
  /// slot-slab routing path.
  std::vector<NodeAddr> FingersOf(NodeAddr addr) const;
  /// Raw successor-list targets in list order, stale entries included.
  std::vector<NodeAddr> SuccessorListOf(NodeAddr addr) const;

  // ---- Routing ----------------------------------------------------------

  /// Iterative Chord lookup from `origin`, using only per-node tables.
  LookupResult Lookup(Key key, NodeAddr origin) const;

  /// Same walk, but reuses `out` (notably its path buffer) instead of
  /// returning a fresh result: after warm-up the steady-state query path
  /// performs no heap allocation. A missing origin fails at once (ok stays
  /// false, no hops, empty path).
  void LookupInto(Key key, NodeAddr origin, LookupResult& out) const;

  // ---- Maintenance ------------------------------------------------------

  /// Rebuilds one node's fingers/successor-list to the converged state
  /// (what repeated fix_fingers would reach).
  void FixNode(NodeAddr addr);
  /// One maintenance round over every node: each ends with FixNode's state
  /// plus its oracle predecessor, billed as FixNode bills it. One sweep over
  /// the oracle in id order with a forward-only cursor per finger, so a
  /// round costs O(n * bits) instead of a binary search per finger.
  void StabilizeAll();

  void AddObserver(MembershipObserver* obs);
  void RemoveObserver(MembershipObserver* obs);

  const MaintenanceStats& maintenance() const { return maintenance_; }
  void ResetMaintenanceStats() { maintenance_ = {}; }

  /// Address of the node-header slab. Exposed so tests can assert its
  /// cache-line alignment (Node is alignas(64)).
  std::uintptr_t SlotSlabAddress() const {
    return reinterpret_cast<std::uintptr_t>(slots_.data());
  }

  unsigned bits() const { return cfg_.bits; }
  /// 2^bits as a value; bits == 64 is not supported for rings.
  std::uint64_t space() const { return space_; }
  const Config& config() const { return cfg_; }

  /// Estimated resident bytes of the overlay state (slot slab, per-node
  /// routing vectors, oracle, address index) — fig_scale's footprint column.
  std::size_t ApproxMemoryBytes() const;

 private:
  /// One routing-table entry: the target's slot and the slot generation at
  /// link-build time, plus its address and ring ID cached from the same
  /// moment. While the generation still matches, the target is alive and
  /// `id` is its current ID — liveness costs one compare, zero probes. On a
  /// mismatch the occupant changed, and resolution falls back to the
  /// address (the target may have rejoined at another slot), reproducing
  /// the address-keyed semantics exactly.
  struct Link {
    Slot slot = kNoSlot;
    std::uint32_t gen = 0;
    NodeAddr addr = kNoNode;
    Key id = 0;
  };

  /// Node header: everything but the routing arrays, which live in the
  /// link slab at extent `slot * link_stride_` (fingers, then successors).
  /// Line-aligned so the walk's header read is exactly one cache line.
  struct alignas(64) Node {
    Key id = 0;
    NodeAddr addr = kNoNode;
    std::uint32_t gen = 0;  ///< bumped every time the slot is vacated
    std::uint16_t finger_count = 0;  ///< live prefix of the finger extent
    std::uint16_t succ_count = 0;    ///< live prefix of the successor extent
    bool live = false;
    Link predecessor;
  };
  static_assert(sizeof(Node) == 64, "Node header must stay one cache line");

  Node& MustGet(NodeAddr addr);
  const Node& MustGet(NodeAddr addr) const;
  /// The node's slot index, recovered from its slab position.
  Slot SlotIndexOf(const Node& n) const {
    return static_cast<Slot>(&n - slots_.data());
  }
  /// The slot's finger extent (finger_count valid entries).
  Link* SlotFingers(Slot s) {
    return links_.data() + std::size_t{s} * link_stride_;
  }
  const Link* SlotFingers(Slot s) const {
    return links_.data() + std::size_t{s} * link_stride_;
  }
  /// The slot's successor-list extent (succ_count valid entries).
  Link* SlotSuccessors(Slot s) { return SlotFingers(s) + cfg_.bits; }
  const Link* SlotSuccessors(Slot s) const {
    return SlotFingers(s) + cfg_.bits;
  }
  /// addr -> slot, or kNoSlot when the address is not a member.
  Slot SlotOf(NodeAddr addr) const;
  /// Snapshot link to the slot's current occupant.
  Link MakeLink(Slot s) const;
  /// Live slot the link currently leads to, or kNoSlot if the target is
  /// gone. Generation compare on the fast path; by_addr_ fallback for stale
  /// links only.
  Slot ResolveLink(const Link& l) const;
  bool LinkAlive(const Link& l) const { return ResolveLink(l) != kNoSlot; }
  Slot AllocateSlot(NodeAddr addr, Key id);
  void ReleaseSlot(Slot s);
  /// Oracle owner of `key`, as a slot.
  Slot OwnerSlotOf(Key key) const;
  bool OwnsNode(const Node& n, Key key) const;
  /// First live entry of the node's successor list (falls back to oracle if
  /// the whole list died; counts as a detected failure, not a hop).
  Slot FirstLiveSuccessorSlot(const Node& n) const;
  /// Like FirstLiveSuccessorSlot but never returns `excluded` (used while
  /// the excluded node is departing).
  Slot FirstLiveSuccessorSlotExcept(const Node& n, NodeAddr excluded) const;
  Slot ClosestPrecedingSlot(const Node& n, Key key) const;
  /// Position of one walk between loop iterations.
  struct LookupState {
    Slot cur = kNoSlot;        ///< slab position of the walk head
    std::size_t max_hops = 0;  ///< routing-failure cap for this walk
  };
  /// One iteration of the lookup loop (hop, cache shortcut, or
  /// termination); returns false when the walk completed.
  bool StepOnce(LookupState& st, LookupResult& r) const;
  void BuildState(Node& n);
  Key FingerStart(Key id, unsigned i) const;
  /// Index of the first oracle entry with id > `id` (modular: size() wraps
  /// to 0 at the caller), and the exact-match index (LORM_CHECKs presence).
  std::size_t OracleUpperBound(Key id) const;
  std::size_t OracleIndexOf(Key id) const;
  bool OracleContains(Key id) const;
  /// Splices one membership change into the sorted oracle: one contiguous
  /// memmove per join or departure (construction sorts once instead, see
  /// BulkAssign).
  void OracleInsert(Key id, Slot slot);
  void OracleErase(Key id);

  Config cfg_;
  std::uint64_t space_;
  std::vector<Node> slots_;  // entries stay put
  /// Routing-array slab: link_stride_ entries per slot (bits fingers, then
  /// successor_list successors). Grows with slots_, entries stay put.
  std::vector<Link> links_;
  std::size_t link_stride_ = 0;
  std::vector<Slot> free_slots_;
  /// The oracle index: all (id, slot) pairs sorted by id. Kept flat — every
  /// consumer (OwnerOf, BuildState, the recovery fallbacks) binary-searches
  /// or scans contiguously; iteration order matches the std::map it
  /// replaced, so Members() and stabilization output are unchanged.
  std::vector<std::pair<Key, Slot>> oracle_;
  AddrIndexMap by_addr_;  // flat addr->slot table; resolved once per change
  std::vector<MembershipObserver*> observers_;
  mutable MaintenanceStats maintenance_;  // mutable: routing is const
  /// Learned shortcuts (cfg_.route_cache); mutable: lookups teach it.
  mutable cache::RouteCacheTable<Link> route_cache_;
};

/// Populates a ring with `n` nodes and addresses base..base+n-1.
/// In deterministic mode, IDs are evenly spaced over the full space (with
/// bits = ceil(log2 n) and n a power of two this is the paper's fully
/// populated ring). In hashed mode every ID is what n sequential AddNode
/// calls would assign, collision salting included. The routing state is
/// what those joins plus one StabilizeAll converge to; only the per-join
/// message accounting is skipped. Built in bulk (BulkAssign: one sort,
/// one stabilization sweep), O(n log n) in all — what lets the scale
/// sweeps reach n = 10^6.
ChordRing MakeRing(std::size_t n, Config cfg, bool deterministic_ids,
                   NodeAddr base_addr = 0);

}  // namespace lorm::chord
