#include "cache/result_cache.hpp"

#include <cstring>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace lorm::cache {

namespace {

void TickResultHit() {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("lorm.cache.result.hits");
  c.AddUnchecked(1);
}

void TickResultMiss() {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("lorm.cache.result.misses");
  c.AddUnchecked(1);
}

void TickResultInsert() {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("lorm.cache.result.inserts");
  c.AddUnchecked(1);
}

void TickResultEvictions(std::size_t count) {
  if (count == 0 || !obs::MetricsEnabled()) return;
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("lorm.cache.result.evictions");
  c.AddUnchecked(static_cast<std::uint64_t>(count));
}

}  // namespace

ResultCache::RangeKey ResultCache::KeyOf(double lo, double hi) {
  // Bit-exact keys: the services derive lo/hi deterministically from the
  // query's AttrValues, so equal ranges produce equal bit patterns.
  RangeKey k;
  std::memcpy(&k.lo_bits, &lo, sizeof lo);
  std::memcpy(&k.hi_bits, &hi, sizeof hi);
  return k;
}

std::size_t ResultCache::RangeKeyHash::operator()(const RangeKey& k) const {
  const std::uint64_t h =
      (k.lo_bits ^ (k.hi_bits * 0x9E3779B97F4A7C15ull)) * 0xBF58476D1CE4E5B9ull;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

bool ResultCache::Lookup(AttrId attr, double lo, double hi,
                         std::vector<resource::ResourceInfo>& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto bucket = buckets_.find(attr);
  if (bucket != buckets_.end()) {
    const auto entry = bucket->second.find(KeyOf(lo, hi));
    if (entry != bucket->second.end()) {
      out = entry->second;
      TickResultHit();
      return true;
    }
  }
  TickResultMiss();
  return false;
}

void ResultCache::Store(AttrId attr, double lo, double hi,
                        const std::vector<resource::ResourceInfo>& matches) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  AttrBucket& bucket = buckets_[attr];
  if (bucket.size() >= kMaxRangesPerAttr) {
    TickResultEvictions(bucket.size());
    bucket.clear();
  }
  bucket[KeyOf(lo, hi)] = matches;
  TickResultInsert();
}

void ResultCache::InvalidateAttr(AttrId attr) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t dropped = 0;
  if (const auto bucket = buckets_.find(attr); bucket != buckets_.end()) {
    dropped = bucket->second.size();
    TickResultEvictions(dropped);
    buckets_.erase(bucket);
  }
  if (obs::FlightEnabled()) {
    obs::RecordFlight(obs::FlightEventKind::kCacheInvalidate, "result_cache",
                      kNoNode, dropped, attr);
  }
}

void ResultCache::InvalidateAll() {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t dropped = 0;
  for (const auto& [attr, bucket] : buckets_) dropped += bucket.size();
  TickResultEvictions(dropped);
  buckets_.clear();
  if (obs::FlightEnabled()) {
    obs::RecordFlight(obs::FlightEventKind::kCacheInvalidate, "result_cache",
                      kNoNode, dropped, ~std::uint64_t{0});
  }
}

}  // namespace lorm::cache
