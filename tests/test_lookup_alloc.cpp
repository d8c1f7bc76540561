// The data-layout overhaul's contract: after warm-up, the steady-state
// lookup path performs zero heap allocations. LookupInto reuses the
// caller's path buffer, ClosestPreceding reads each candidate's ID from its
// generation-checked link in the link slab, and OwnsNode's oracle fallback
// never fires on a stable network — so a warm lookup loop must not touch
// the allocator at all. The same holds one layer up for a warm directory
// probe (ProbeDirectory on a merged store).
//
// Verified with counting global operator new/delete: the counter is
// process-wide, so each probe region runs single-threaded with no other
// live threads (gtest's main thread only).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "chord/chord.hpp"
#include "common/random.hpp"
#include "cycloid/cycloid.hpp"
#include "discovery/query_executor.hpp"
#include "singlehop/singlehop.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

// Kept out of line: once GCC inlines these std::free bodies into callers
// that used `new`, it reports -Wmismatched-new-delete on every such pair.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace lorm {
namespace {

/// Allocations observed while running `fn`.
template <typename Fn>
std::uint64_t CountAllocations(Fn&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(LookupAllocFree, ChordWarmLookupLoopDoesNotAllocate) {
  chord::Config cfg;
  cfg.bits = 20;
  auto ring = chord::MakeRing(2048, cfg, /*deterministic_ids=*/false);
  const auto members = ring.Members();

  Rng rng(29);
  chord::LookupResult res;
  // Warm-up: grows res.path to the longest route this loop will see (the
  // path vector keeps its capacity across LookupInto calls).
  for (int i = 0; i < 2000; ++i) {
    ring.LookupInto(rng.NextBelow(ring.space()),
                    members[rng.NextBelow(members.size())], res);
  }

  Rng replay(29);  // same sequence: warmed capacity is guaranteed to fit
  const std::uint64_t allocs = CountAllocations([&] {
    for (int i = 0; i < 2000; ++i) {
      ring.LookupInto(replay.NextBelow(ring.space()),
                      members[replay.NextBelow(members.size())], res);
    }
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(LookupAllocFree, CycloidWarmLookupLoopDoesNotAllocate) {
  cycloid::Config cfg;
  cfg.dimension = 8;
  auto net = cycloid::MakeCycloid(2048, cfg);
  const auto members = net.Members();
  const auto d = net.dimension();

  Rng rng(31);
  cycloid::LookupResult res;
  for (int i = 0; i < 2000; ++i) {
    const cycloid::CycloidId key{static_cast<unsigned>(rng.NextBelow(d)),
                                 rng.NextBelow(std::uint64_t{1} << d)};
    net.LookupInto(key, members[rng.NextBelow(members.size())], res);
  }

  Rng replay(31);
  const std::uint64_t allocs = CountAllocations([&] {
    for (int i = 0; i < 2000; ++i) {
      const cycloid::CycloidId key{
          static_cast<unsigned>(replay.NextBelow(d)),
          replay.NextBelow(std::uint64_t{1} << d)};
      net.LookupInto(key, members[replay.NextBelow(members.size())], res);
    }
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(LookupAllocFree, SingleHopWarmLookupLoopDoesNotAllocate) {
  singlehop::Config cfg;
  cfg.bits = 20;
  auto ring = singlehop::MakeSingleHopRing(2048, cfg,
                                           /*deterministic_ids=*/false);
  const auto members = ring.Members();

  Rng rng(43);
  singlehop::LookupResult res;
  for (int i = 0; i < 2000; ++i) {
    ring.LookupInto(rng.NextBelow(ring.space()),
                    members[rng.NextBelow(members.size())], res);
  }

  Rng replay(43);
  std::uint64_t hops = 0;
  const std::uint64_t allocs = CountAllocations([&] {
    for (int i = 0; i < 2000; ++i) {
      ring.LookupInto(replay.NextBelow(ring.space()),
                      members[replay.NextBelow(members.size())], res);
      hops += res.hops;
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(hops, 0u);  // the loop routed real one-hop lookups
}

TEST(LookupAllocFree, ChordCachedWarmLookupLoopDoesNotAllocate) {
  // Same contract with the route cache on: probes, shortcut jumps and
  // teaching inserts all work in the table pre-sized at AllocateSlot time,
  // so the warm cache-on path is allocation-free too.
  chord::Config cfg;
  cfg.bits = 20;
  cfg.route_cache = true;
  auto ring = chord::MakeRing(2048, cfg, /*deterministic_ids=*/false);
  const auto members = ring.Members();

  Rng rng(29);
  chord::LookupResult res;
  for (int i = 0; i < 2000; ++i) {
    ring.LookupInto(rng.NextBelow(ring.space()),
                    members[rng.NextBelow(members.size())], res);
  }

  Rng replay(29);
  std::uint64_t shortcut_hops = 0;
  const std::uint64_t allocs = CountAllocations([&] {
    for (int i = 0; i < 2000; ++i) {
      ring.LookupInto(replay.NextBelow(ring.space()),
                      members[replay.NextBelow(members.size())], res);
      shortcut_hops += res.cache_hits;
    }
  });
  EXPECT_EQ(allocs, 0u);
  // The replay repeats the warm-up stream, so the taught shortcuts must
  // actually fire (proving the zero above measured the cache-on path).
  EXPECT_GT(shortcut_hops, 0u);
}

TEST(LookupAllocFree, CycloidCachedWarmLookupLoopDoesNotAllocate) {
  cycloid::Config cfg;
  cfg.dimension = 8;
  cfg.route_cache = true;
  auto net = cycloid::MakeCycloid(2048, cfg);
  const auto members = net.Members();
  const auto d = net.dimension();

  Rng rng(31);
  cycloid::LookupResult res;
  for (int i = 0; i < 2000; ++i) {
    const cycloid::CycloidId key{static_cast<unsigned>(rng.NextBelow(d)),
                                 rng.NextBelow(std::uint64_t{1} << d)};
    net.LookupInto(key, members[rng.NextBelow(members.size())], res);
  }

  Rng replay(31);
  std::uint64_t shortcut_hops = 0;
  const std::uint64_t allocs = CountAllocations([&] {
    for (int i = 0; i < 2000; ++i) {
      const cycloid::CycloidId key{
          static_cast<unsigned>(replay.NextBelow(d)),
          replay.NextBelow(std::uint64_t{1} << d)};
      net.LookupInto(key, members[replay.NextBelow(members.size())], res);
      shortcut_hops += res.cache_hits;
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(shortcut_hops, 0u);
}

TEST(LookupAllocFree, WarmDirectoryProbeLoopDoesNotAllocate) {
  // A probe on a merged store is a slot-index probe plus two binary
  // searches; with the caller's matches buffer pre-reserved, nothing in it
  // may allocate. Owners are sparse and some (owner, attr) pairs are absent.
  constexpr AttrId kAttrs = 16;
  constexpr std::size_t kOwners = 256;
  discovery::DirectoryStore<std::uint64_t> store;
  Rng rng(53);
  for (int i = 0; i < 20000; ++i) {
    discovery::DirectoryStore<std::uint64_t>::Entry e;
    e.info.attr = static_cast<AttrId>(rng.NextBelow(kAttrs));
    e.info.value =
        resource::AttrValue::Number(static_cast<double>(rng.NextBelow(1000)));
    e.info.provider = static_cast<NodeAddr>(rng.NextBelow(4096));
    store.Insert(static_cast<NodeAddr>(rng.NextBelow(kOwners) * 7919),
                 std::move(e));
  }

  std::vector<resource::ResourceInfo> matches;
  matches.reserve(store.TotalEntries());
  discovery::QueryStats stats;
  auto probe_loop = [&](std::uint64_t seed) {
    Rng probes(seed);
    std::uint64_t found = 0;
    for (int i = 0; i < 4000; ++i) {
      const auto owner =
          static_cast<NodeAddr>(probes.NextBelow(kOwners + 8) * 7919);
      const auto attr = static_cast<AttrId>(probes.NextBelow(kAttrs + 2));
      const double lo = static_cast<double>(probes.NextBelow(1000));
      matches.clear();
      discovery::ProbeDirectory(store, owner, attr, lo, lo + 100.0,
                                discovery::kAnyEntry, matches, stats);
      found += matches.size();
    }
    return found;
  };
  const std::uint64_t warm = probe_loop(59);  // merges every insert buffer

  std::uint64_t found = 0;
  const std::uint64_t allocs =
      CountAllocations([&] { found = probe_loop(59); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(found, warm);
  EXPECT_GT(found, 0u);  // the loop returned real matches
}

TEST(LookupAllocFree, FreshResultStillAllocatesOnlyForThePath) {
  // Sanity-check the counter itself: a cold LookupResult must allocate
  // (its path vector grows), proving the zero above is not a dead counter.
  chord::Config cfg;
  cfg.bits = 16;
  auto ring = chord::MakeRing(256, cfg, /*deterministic_ids=*/false);
  const auto members = ring.Members();
  const std::uint64_t allocs = CountAllocations([&] {
    chord::LookupResult cold;
    ring.LookupInto(ring.space() / 2, members.front(), cold);
  });
  EXPECT_GT(allocs, 0u);
}

}  // namespace
}  // namespace lorm
