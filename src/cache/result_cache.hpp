// Query-result cache for the discovery services.
//
// Keyed on (attribute, ordinal range): a sub-query that resolved completely
// stores its post-dedup match list; an identical later sub-query is served
// from the cache with zero routing hops and zero directory probes. The root
// of a range is a function of the range alone — never of the requester — so
// a cached answer is exactly what a fresh walk by any requester would find.
//
// This is the only result cache: a query whose k sub-queries all hit costs k
// probes plus the requester's linear join, whatever the sub-query order.
//
// The invalidation contract keeps cached answers from ever diverging from
// Directory ground truth: the owning service calls InvalidateAttr on every
// re-advertisement of that attribute and InvalidateAll on every membership
// event (join/leave/crash can re-home any arc), on soft-state expiry
// (ExpireBefore) and on provider withdrawal. Stale-by-construction is
// impossible; the cache trades hit rate for that guarantee.
//
// Counters (interned on first use, so cache-off runs leave the registry
// untouched): lorm.cache.result.{hits,misses,inserts,evictions} — evictions
// count individual cached ranges dropped by invalidation or capacity.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "resource/resource_info.hpp"

namespace lorm::cache {

class ResultCache {
 public:
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Copies the cached matches for (attr, [lo, hi]) into `out` and returns
  /// true, or returns false (and ticks a miss) when absent. Only call when
  /// enabled.
  bool Lookup(AttrId attr, double lo, double hi,
              std::vector<resource::ResourceInfo>& out) const;

  /// Records the complete, post-dedup match list of a fully resolved
  /// sub-query. No-op when disabled.
  void Store(AttrId attr, double lo, double hi,
             const std::vector<resource::ResourceInfo>& matches);

  /// Drops every cached range of `attr` (a new advertisement changed its
  /// ground truth).
  void InvalidateAttr(AttrId attr);

  /// Drops everything (membership change, expiry, withdrawal).
  void InvalidateAll();

 private:
  struct RangeKey {
    std::uint64_t lo_bits = 0;
    std::uint64_t hi_bits = 0;
    friend bool operator==(const RangeKey&, const RangeKey&) = default;
  };
  struct RangeKeyHash {
    std::size_t operator()(const RangeKey& k) const;
  };
  using AttrBucket = std::unordered_map<RangeKey, std::vector<resource::ResourceInfo>,
                                        RangeKeyHash>;

  static RangeKey KeyOf(double lo, double hi);

  /// Distinct ranges cached per attribute before the bucket is recycled;
  /// bounds memory against adversarial range diversity.
  static constexpr std::size_t kMaxRangesPerAttr = 512;

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::unordered_map<AttrId, AttrBucket> buckets_;
};

}  // namespace lorm::cache
