// Per-node resource directories.
//
// A directory node pools resource-information tuples and answers sub-queries
// against them (paper §III: "the operation in resource discovery is to pool
// together information of available resources in a number of directory
// nodes"). Entries carry the DHT placement key they were stored under so
// ownership changes under churn can re-home exactly the affected entries.
// A tuple's value is its schema ordinal (resource/attribute.hpp), so range
// scans order and compare it directly, with no schema access and no second
// copy.
//
// Storage is two flat levels, so a probe costs one hash probe and two binary
// searches over contiguous arrays, with no tree-node hops:
//
//   * DirectoryStore maps an owner address to a slot through an
//     AddrIndexMap (common/flat_map.hpp). Slots hold heap-allocated
//     directories, so a directory never moves while the slab grows; a
//     dropped owner's slot is recycled for the next new owner.
//   * Each Directory keeps its attribute buckets in one vector sorted by
//     attribute. A bucket is a vector sorted by ordinal plus an insert
//     buffer merged in lazily: advertising appends, and the first read
//     after a batch of inserts pays one stable sort + in-place merge per
//     touched attribute (skipped when the buffer is already in order or
//     lands wholly after the sorted run).
//
// Both the stable sort and the merge keep equal ordinals in insertion order,
// so per-directory iteration visits entries in (attr, ordinal,
// insertion-order) sequence. Store-wide loops run in slot order; their
// effects (sums and estimator histogram counts) do not depend on it. The
// lazy merge is guarded by an atomic dirty flag + mutex so the concurrent
// read-only query replay stays race-free (reads in the merged steady state
// cost one relaxed atomic load).
//
// The template parameter is the overlay key type (chord::Key or
// cycloid::CycloidId).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "chord/chord.hpp"
#include "common/error.hpp"
#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "discovery/selectivity.hpp"
#include "resource/resource_info.hpp"

namespace lorm::discovery {

/// Entry predicate that accepts every directory entry.
inline constexpr auto kAnyEntry = [](const auto&) { return true; };

template <typename KeyT>
class Directory {
 public:
  struct Entry {
    resource::ResourceInfo info;
    KeyT key{};  ///< DHT key the entry was placed under
    /// Soft-state reporting period the entry was advertised in.
    std::uint64_t epoch = 0;
    /// Record kind for systems that store one tuple under several keys
    /// (MAAN: 0 = value record, 1 = attribute record). Others leave it 0.
    std::uint8_t tag = 0;
    /// 0 = primary copy (lives on the key's owner and re-homes with it);
    /// 1..r-1 = replica copies placed on the owner's successors for crash
    /// resilience. Replicas stay where they were put and are rebuilt by the
    /// next soft-state epoch.
    std::uint8_t replica = 0;
  };

  Directory() = default;
  // The merge guard makes directories address-stable; the store keeps each
  // one behind a pointer in its slot slab, which never copies or moves one.
  Directory(const Directory&) = delete;
  Directory& operator=(const Directory&) = delete;

  // Dropping a whole directory (node crash, TakeAll re-homing through the
  // store) must surrender its entries' estimator counts too.
  ~Directory() {
    if (est_ == nullptr) return;
    for (const auto& [attr, b] : buckets_) {
      for (const Entry& e : b.sorted) est_->Remove(attr, OrdinalOf(e));
      for (const Entry& e : b.pending) est_->Remove(attr, OrdinalOf(e));
    }
  }

  /// Attaches the planner's selectivity estimator; every insert/erase from
  /// now on is mirrored into its per-attribute histograms. Pass nullptr to
  /// detach. Never touched on the query path.
  void SetEstimator(SelectivityEstimator* est) { est_ = est; }

  void Insert(Entry e) {
    if (est_ != nullptr) est_->Add(e.info.attr, OrdinalOf(e));
    const AttrId attr = e.info.attr;
    auto it = LowerBound(attr);
    if (it == buckets_.end() || it->first != attr) {
      it = buckets_.emplace(it, attr, Bucket{});
    }
    it->second.pending.push_back(std::move(e));
    size_.fetch_add(1, std::memory_order_relaxed);
    dirty_.store(true, std::memory_order_release);
  }

  std::size_t size() const { return size_.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }

  /// All entries for `attr` whose ordinal lies in [lo, hi].
  template <typename Fn>
  void ForEachMatch(AttrId attr, double lo, double hi, Fn&& fn) const {
    MergePending();
    const auto bit = FindBucket(attr);
    if (bit == buckets_.end()) return;
    const std::vector<Entry>& v = bit->second.sorted;
    auto it = std::lower_bound(
        v.begin(), v.end(), lo,
        [](const Entry& e, double x) { return OrdinalOf(e) < x; });
    for (; it != v.end() && OrdinalOf(*it) <= hi; ++it) fn(*it);
  }

  /// Removes and returns every entry satisfying `pred(entry)`.
  template <typename Pred>
  std::vector<Entry> TakeIf(Pred&& pred) {
    std::vector<Entry> out;
    EraseIfImpl(pred, &out);
    return out;
  }

  /// TakeIf over `attr`'s entries only: the same entries, in the same
  /// order, as TakeIf with an `info.attr == attr` conjunct, but only that
  /// attribute's bucket is scanned.
  template <typename Pred>
  std::vector<Entry> TakeIf(AttrId attr, Pred&& pred) {
    // Pending inserts are merged exactly when the unscoped TakeIf merges
    // them: a merge left for later would land on the next query instead.
    MergePending();
    std::vector<Entry> out;
    const auto it = FindBucket(attr);
    if (it == buckets_.end()) return out;
    const std::size_t removed = EraseFromBucket(it->second, pred, &out);
    if (it->second.sorted.empty()) buckets_.erase(it);
    size_.fetch_sub(removed, std::memory_order_relaxed);
    return out;
  }

  std::vector<Entry> TakeAll() {
    return TakeIf([](const Entry&) { return true; });
  }

  /// In-place variant of TakeIf for call sites that only need the removal
  /// count (provider withdrawal, soft-state expiry): nothing is moved into
  /// a result vector.
  template <typename Pred>
  std::size_t EraseIf(Pred&& pred) {
    return EraseIfImpl(pred, nullptr);
  }

  /// Removes all entries advertised by `provider`; returns how many.
  std::size_t EraseProvider(NodeAddr provider) {
    return EraseIf(
        [provider](const Entry& e) { return e.info.provider == provider; });
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    MergePending();
    for (const auto& [attr, b] : buckets_) {
      for (const Entry& e : b.sorted) fn(e);
    }
  }

 private:
  struct Bucket {
    std::vector<Entry> sorted;   ///< by (ordinal, insertion order)
    std::vector<Entry> pending;  ///< inserts since the last merge
  };

  static double OrdinalOf(const Entry& e) { return e.info.value.ordinal(); }

  /// (attr, bucket) pairs sorted by attr; every bucket holds an entry.
  using BucketVec = std::vector<std::pair<AttrId, Bucket>>;

  /// First bucket whose attribute is not below `attr`.
  typename BucketVec::iterator LowerBound(AttrId attr) const {
    return std::lower_bound(
        buckets_.begin(), buckets_.end(), attr,
        [](const auto& slot, AttrId a) { return slot.first < a; });
  }

  /// `attr`'s bucket, or buckets_.end().
  typename BucketVec::iterator FindBucket(AttrId attr) const {
    const auto it = LowerBound(attr);
    return it != buckets_.end() && it->first == attr ? it : buckets_.end();
  }

  /// Folds every bucket's insert buffer into its sorted run. Safe to call
  /// from concurrent readers; in the merged steady state it costs a single
  /// atomic load.
  void MergePending() const {
    if (!dirty_.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lock(merge_mu_);
    if (!dirty_.load(std::memory_order_relaxed)) return;
    for (auto& [attr, b] : buckets_) {
      if (b.pending.empty()) continue;
      const auto by_ordinal = [](const Entry& x, const Entry& y) {
        return x.info.value < y.info.value;
      };
      // stable_sort + merging older-before-newer preserves insertion order
      // among equal ordinals (pending entries all post-date sorted ones).
      // Both allocate a scratch buffer, so each is skipped when it would
      // leave the order as it is.
      if (!std::is_sorted(b.pending.begin(), b.pending.end(), by_ordinal)) {
        std::stable_sort(b.pending.begin(), b.pending.end(), by_ordinal);
      }
      const bool appends =
          b.sorted.empty() ||
          b.sorted.back().info.value <= b.pending.front().info.value;
      const auto mid = static_cast<std::ptrdiff_t>(b.sorted.size());
      b.sorted.insert(b.sorted.end(),
                      std::make_move_iterator(b.pending.begin()),
                      std::make_move_iterator(b.pending.end()));
      b.pending.clear();
      if (!appends) {
        std::inplace_merge(b.sorted.begin(), b.sorted.begin() + mid,
                           b.sorted.end(), by_ordinal);
      }
    }
    dirty_.store(false, std::memory_order_release);
  }

  /// Removes the entries of one merged bucket that satisfy `pred`, moving
  /// them into `out` when given. Returns the removal count; dropping the
  /// emptied bucket and adjusting size_ are the caller's.
  template <typename Pred>
  std::size_t EraseFromBucket(Bucket& b, Pred& pred, std::vector<Entry>* out) {
    std::vector<Entry>& v = b.sorted;
    std::size_t removed = 0;
    auto dst = v.begin();
    for (auto src = v.begin(); src != v.end(); ++src) {
      if (pred(*src)) {
        if (est_ != nullptr) est_->Remove(src->info.attr, OrdinalOf(*src));
        if (out != nullptr) out->push_back(std::move(*src));
        ++removed;
      } else {
        if (dst != src) *dst = std::move(*src);
        ++dst;
      }
    }
    v.erase(dst, v.end());
    return removed;
  }

  template <typename Pred>
  std::size_t EraseIfImpl(Pred& pred, std::vector<Entry>* out) {
    MergePending();
    std::size_t removed = 0;
    for (auto& [attr, b] : buckets_) removed += EraseFromBucket(b, pred, out);
    std::erase_if(buckets_,
                  [](const auto& slot) { return slot.second.sorted.empty(); });
    size_.fetch_sub(removed, std::memory_order_relaxed);
    return removed;
  }

  // Mutable plus the guard pair so the lazy merge can run under const reads.
  mutable BucketVec buckets_;
  mutable std::atomic<bool> dirty_{false};
  mutable std::mutex merge_mu_;
  /// Relaxed atomic: size()/TotalEntries() are read by parallel replay
  /// workers while another worker's first read after an insert batch runs
  /// MergePending; the count itself only changes under the single-writer
  /// phases, but the read must still be well-defined.
  std::atomic<std::size_t> size_{0};
  /// Optional planner hook; owned by the service, outlives the store.
  SelectivityEstimator* est_ = nullptr;
};

// A Chord-keyed entry is the 24-byte tuple plus its placement bookkeeping;
// directories hold one per advertised tuple (two for MAAN-style systems).
static_assert(sizeof(Directory<chord::Key>::Entry) <= 48);

/// Directory node address -> its directory, plus the bookkeeping shared by
/// every system.
template <typename KeyT>
class DirectoryStore {
 public:
  using Dir = Directory<KeyT>;
  using Entry = typename Dir::Entry;

  const Dir* Find(NodeAddr owner) const { return DirOf(owner); }

  void Insert(NodeAddr owner, Entry e) {
    GetOrCreate(owner).Insert(std::move(e));
  }

  /// Attaches the estimator to every existing directory and to every one
  /// created from now on.
  void SetEstimator(SelectivityEstimator* est) {
    est_ = est;
    ForEachDir([est](Dir& d) { d.SetEstimator(est); });
  }

  std::vector<Entry> TakeAll(NodeAddr owner) {
    Dir* d = DirOf(owner);
    if (d == nullptr) return {};
    auto out = d->TakeAll();
    Drop(owner);
    return out;
  }

  template <typename Pred>
  std::vector<Entry> TakeIf(NodeAddr owner, Pred&& pred) {
    Dir* d = DirOf(owner);
    if (d == nullptr) return {};
    return d->TakeIf(std::forward<Pred>(pred));
  }

  /// TakeIf(owner, pred) over `attr`'s bucket only (Directory::TakeIf).
  template <typename Pred>
  std::vector<Entry> TakeIf(NodeAddr owner, AttrId attr, Pred&& pred) {
    Dir* d = DirOf(owner);
    if (d == nullptr) return {};
    return d->TakeIf(attr, std::forward<Pred>(pred));
  }

  /// Count-only variant of TakeIf(owner, pred).
  template <typename Pred>
  std::size_t EraseIf(NodeAddr owner, Pred&& pred) {
    Dir* d = DirOf(owner);
    if (d == nullptr) return 0;
    return d->EraseIf(std::forward<Pred>(pred));
  }

  /// Destroys `owner`'s directory (surrendering its estimator counts) and
  /// frees its slot for reuse.
  void Drop(NodeAddr owner) {
    const std::uint32_t slot = index_.Find(owner);
    if (slot == AddrIndexMap::kAbsent) return;
    index_.Erase(owner);
    slots_[slot].reset();
    free_.push_back(slot);
  }

  std::size_t SizeAt(NodeAddr owner) const {
    const Dir* d = Find(owner);
    return d ? d->size() : 0;
  }

  std::size_t TotalEntries() const {
    std::size_t total = 0;
    ForEachDir([&total](const Dir& d) { total += d.size(); });
    return total;
  }

  std::size_t EraseProviderEverywhere(NodeAddr provider) {
    std::size_t n = 0;
    ForEachDir([&](Dir& d) { n += d.EraseProvider(provider); });
    return n;
  }

  /// Soft-state expiry: drops entries advertised before `cutoff`.
  std::size_t ExpireBefore(std::uint64_t cutoff) {
    std::size_t n = 0;
    ForEachDir([&](Dir& d) {
      n += d.EraseIf([cutoff](const Entry& e) { return e.epoch < cutoff; });
    });
    return n;
  }

 private:
  /// `owner`'s directory, or nullptr.
  Dir* DirOf(NodeAddr owner) const {
    const std::uint32_t slot = index_.Find(owner);
    return slot == AddrIndexMap::kAbsent ? nullptr : slots_[slot].get();
  }

  /// Runs fn on every live directory, in slot order.
  template <typename Fn>
  void ForEachDir(Fn&& fn) const {
    for (const auto& d : slots_) {
      if (d) fn(*d);
    }
  }

  Dir& GetOrCreate(NodeAddr owner) {
    std::uint32_t slot = index_.Find(owner);
    if (slot != AddrIndexMap::kAbsent) return *slots_[slot];
    LORM_CHECK_MSG(owner != kNoNode, "directory owner is kNoNode");
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    slots_[slot] = std::make_unique<Dir>();
    slots_[slot]->SetEstimator(est_);
    index_.Put(owner, slot);
    return *slots_[slot];
  }

  AddrIndexMap index_;  ///< owner -> slot
  /// Slot slab; a null slot is free and listed in free_.
  std::vector<std::unique_ptr<Dir>> slots_;
  std::vector<std::uint32_t> free_;
  SelectivityEstimator* est_ = nullptr;
};

}  // namespace lorm::discovery
