// Flat open-addressing NodeAddr -> index map for the DHT membership tables.
//
// The rings resolve a lookup's origin address to its slab slot on every
// lookup. With std::unordered_map that probe is two dependent cache misses
// (bucket array -> heap node) that serialize ahead of the walk's first hop.
// This table stores 8-byte {addr, index} entries inline in one
// power-of-two array — a single probe line, L2-resident for rings of tens
// of thousands of members.
//
// Deletion uses backward-shift (no tombstones), so heavy churn cannot
// degrade probe lengths. The map does not support iteration — the rings
// enumerate membership through their sorted oracle instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace lorm {

/// Maps live NodeAddr values to 32-bit indices (slab slots). kNoNode is
/// reserved as the empty-bucket sentinel and must never be inserted.
class AddrIndexMap {
 public:
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  AddrIndexMap() { Rehash(kMinBuckets); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void reserve(std::size_t n) {
    std::size_t want = kMinBuckets;
    while (want * kMaxLoadNum < n * kMaxLoadDen) want <<= 1;
    if (want > buckets_.size()) Rehash(want);
  }

  /// Returns the mapped index, or kAbsent. The empty test comes first so
  /// kNoNode (the empty-bucket key) is never found.
  std::uint32_t Find(NodeAddr addr) const {
    std::size_t i = Home(addr);
    while (true) {
      const Entry& e = buckets_[i];
      if (e.key == kNoNode) return kAbsent;
      if (e.key == addr) return e.val;
      i = (i + 1) & mask_;
    }
  }

  bool Contains(NodeAddr addr) const { return Find(addr) != kAbsent; }

  /// Inserts or overwrites.
  void Put(NodeAddr addr, std::uint32_t val) {
    if ((size_ + 1) * kMaxLoadDen > buckets_.size() * kMaxLoadNum) {
      Rehash(buckets_.size() * 2);
    }
    std::size_t i = Home(addr);
    while (true) {
      Entry& e = buckets_[i];
      if (e.key == addr) {
        e.val = val;
        return;
      }
      if (e.key == kNoNode) {
        e = {addr, val};
        ++size_;
        return;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Removes addr if present. Backward-shift: re-seats the probe run that
  /// follows the hole so no tombstone is left behind.
  void Erase(NodeAddr addr) {
    std::size_t i = Home(addr);
    while (true) {
      Entry& e = buckets_[i];
      if (e.key == kNoNode) return;
      if (e.key == addr) break;
      i = (i + 1) & mask_;
    }
    --size_;
    std::size_t hole = i;
    std::size_t j = (i + 1) & mask_;
    while (buckets_[j].key != kNoNode) {
      const std::size_t home = Home(buckets_[j].key);
      // Move j into the hole only if the hole does not cut j off from its
      // home run (circular distance test).
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        buckets_[hole] = buckets_[j];
        hole = j;
      }
      j = (j + 1) & mask_;
    }
    buckets_[hole] = Entry{};
  }

  std::size_t MemoryBytes() const { return buckets_.size() * sizeof(Entry); }

 private:
  struct Entry {
    NodeAddr key = kNoNode;
    std::uint32_t val = 0;
  };

  static constexpr std::size_t kMinBuckets = 16;
  // Max load factor 1/2: probe runs stay a handful of entries and the
  // probe line stays the only touched line; even so the table is smaller
  // than the node-based map it replaced (8 bytes/bucket vs ~40/entry).
  static constexpr std::size_t kMaxLoadNum = 1;
  static constexpr std::size_t kMaxLoadDen = 2;

  std::size_t Home(NodeAddr addr) const {
    // Fibonacci scramble: membership addresses are often dense small
    // integers, which raw masking would pile into one run.
    return ((addr * std::uint64_t{0x9e3779b97f4a7c15}) >> 32) & mask_;
  }

  void Rehash(std::size_t n) {
    std::vector<Entry> old = std::move(buckets_);
    buckets_.assign(n, Entry{});
    mask_ = n - 1;
    size_ = 0;
    for (const Entry& e : old) {
      if (e.key != kNoNode) Put(e.key, e.val);
    }
  }

  std::vector<Entry> buckets_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace lorm
