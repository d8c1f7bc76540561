// Discovery-core tests: per-node directories and the provider join.
#include <gtest/gtest.h>

#include <vector>

#include "common/random.hpp"
#include "discovery/directory.hpp"
#include "discovery/join.hpp"
#include "resource/attribute.hpp"

namespace lorm::discovery {
namespace {

using resource::AttrValue;
using resource::ResourceInfo;

Directory<std::uint64_t>::Entry E(AttrId attr, double ordinal,
                                  NodeAddr provider, std::uint64_t key = 0) {
  Directory<std::uint64_t>::Entry e;
  e.info = ResourceInfo{attr, AttrValue::Number(ordinal), provider};
  e.ordinal = ordinal;
  e.key = key;
  return e;
}

TEST(DirectoryTest, InsertAndRangeMatch) {
  Directory<std::uint64_t> dir;
  dir.Insert(E(0, 1.0, 10));
  dir.Insert(E(0, 2.0, 11));
  dir.Insert(E(0, 3.0, 12));
  dir.Insert(E(1, 2.0, 13));  // other attribute, same ordinal
  EXPECT_EQ(dir.size(), 4u);

  std::vector<NodeAddr> hits;
  dir.ForEachMatch(0, 1.5, 3.0, [&](const auto& e) {
    hits.push_back(e.info.provider);
  });
  EXPECT_EQ(hits, (std::vector<NodeAddr>{11, 12}));

  hits.clear();
  dir.ForEachMatch(1, 0.0, 10.0, [&](const auto& e) {
    hits.push_back(e.info.provider);
  });
  EXPECT_EQ(hits, (std::vector<NodeAddr>{13}));
}

TEST(DirectoryTest, PointMatchIsInclusive) {
  Directory<std::uint64_t> dir;
  dir.Insert(E(0, 2.0, 11));
  int hits = 0;
  dir.ForEachMatch(0, 2.0, 2.0, [&](const auto&) { ++hits; });
  EXPECT_EQ(hits, 1);
  dir.ForEachMatch(0, 2.1, 2.2, [&](const auto&) { ++hits; });
  EXPECT_EQ(hits, 1);
}

TEST(DirectoryTest, DuplicateValuesCoexist) {
  Directory<std::uint64_t> dir;
  dir.Insert(E(0, 2.0, 11));
  dir.Insert(E(0, 2.0, 12));
  dir.Insert(E(0, 2.0, 11));  // same provider re-advertises
  EXPECT_EQ(dir.size(), 3u);
  int hits = 0;
  dir.ForEachMatch(0, 2.0, 2.0, [&](const auto&) { ++hits; });
  EXPECT_EQ(hits, 3);
}

TEST(DirectoryTest, TakeIfRemovesAndReturns) {
  Directory<std::uint64_t> dir;
  dir.Insert(E(0, 1.0, 10, 100));
  dir.Insert(E(0, 2.0, 11, 200));
  dir.Insert(E(0, 3.0, 12, 300));
  const auto taken =
      dir.TakeIf([](const auto& e) { return e.key >= 200; });
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_EQ(dir.size(), 1u);
  const auto all = dir.TakeAll();
  EXPECT_EQ(all.size(), 1u);
  EXPECT_TRUE(dir.empty());
}

TEST(DirectoryTest, EraseProvider) {
  Directory<std::uint64_t> dir;
  dir.Insert(E(0, 1.0, 10));
  dir.Insert(E(1, 2.0, 10));
  dir.Insert(E(0, 3.0, 11));
  EXPECT_EQ(dir.EraseProvider(10), 2u);
  EXPECT_EQ(dir.size(), 1u);
  EXPECT_EQ(dir.EraseProvider(99), 0u);
}

TEST(DirectoryStoreTest, PerOwnerBookkeeping) {
  DirectoryStore<std::uint64_t> store;
  store.Insert(1, E(0, 1.0, 10));
  store.Insert(1, E(0, 2.0, 11));
  store.Insert(2, E(0, 3.0, 12));
  EXPECT_EQ(store.SizeAt(1), 2u);
  EXPECT_EQ(store.SizeAt(2), 1u);
  EXPECT_EQ(store.SizeAt(99), 0u);
  EXPECT_EQ(store.TotalEntries(), 3u);
  ASSERT_NE(store.Find(1), nullptr);
  EXPECT_EQ(store.Find(99), nullptr);

  const auto moved = store.TakeAll(1);
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(store.TotalEntries(), 1u);
  EXPECT_EQ(store.EraseProviderEverywhere(12), 1u);
  EXPECT_EQ(store.TotalEntries(), 0u);
}

TEST(DirectoryTest, AttrScopedTakeMatchesFilteredTakeIf) {
  resource::AttributeRegistry registry;
  for (const char* name : {"a0", "a1", "a2"}) {
    registry.RegisterNumeric(name, 0.0, 100.0);
  }
  SelectivityEstimator scoped_est, filtered_est;
  scoped_est.Configure(registry);
  filtered_est.Configure(registry);
  Directory<std::uint64_t> scoped, filtered;
  scoped.SetEstimator(&scoped_est);
  filtered.SetEstimator(&filtered_est);

  Rng rng(0xD1CE);
  std::uint64_t seq = 0;
  auto insert_batch = [&](int count) {
    for (int i = 0; i < count; ++i) {
      // Few distinct ordinals, so equal-ordinal runs test order stability.
      const auto attr = static_cast<AttrId>(rng.NextBelow(3));
      const double ordinal = static_cast<double>(rng.NextBelow(8));
      const auto provider = static_cast<NodeAddr>(rng.NextBelow(50));
      scoped.Insert(E(attr, ordinal, provider, seq));
      filtered.Insert(E(attr, ordinal, provider, seq));
      ++seq;
    }
  };
  auto keys_of = [](const std::vector<Directory<std::uint64_t>::Entry>& v) {
    std::vector<std::uint64_t> keys;
    for (const auto& e : v) keys.push_back(e.key);
    return keys;
  };
  auto remaining = [](const Directory<std::uint64_t>& d) {
    std::vector<std::uint64_t> keys;
    d.ForEach([&](const auto& e) { keys.push_back(e.key); });
    return keys;
  };

  for (int round = 0; round < 40; ++round) {
    insert_batch(static_cast<int>(rng.NextBelow(30)));
    // Half the rounds take while inserts are still pending.
    if (rng.NextBool()) (void)remaining(scoped);
    const auto attr = static_cast<AttrId>(rng.NextBelow(4));  // 3: absent
    const std::uint64_t modulus = 1 + rng.NextBelow(3);  // 1 takes all
    const auto pred = [modulus](const auto& e) { return e.key % modulus == 0; };
    const auto got = scoped.TakeIf(attr, pred);
    const auto want = filtered.TakeIf(
        [&](const auto& e) { return e.info.attr == attr && pred(e); });
    ASSERT_EQ(keys_of(got), keys_of(want)) << "round " << round;
    for (const auto& e : got) EXPECT_EQ(e.info.attr, attr);
    ASSERT_EQ(scoped.size(), filtered.size());
    ASSERT_EQ(remaining(scoped), remaining(filtered));
    for (AttrId a = 0; a < 3; ++a) {
      ASSERT_EQ(scoped_est.CountOf(a), filtered_est.CountOf(a));
    }
    ASSERT_EQ(scoped_est.TotalCount(), scoped.size());
  }

  // Emptying a bucket drops it; the attribute then reads empty and takes
  // new inserts normally.
  for (AttrId a = 0; a < 3; ++a) {
    (void)scoped.TakeIf(a, [](const auto&) { return true; });
    EXPECT_EQ(scoped_est.CountOf(a), 0u);
    int hits = 0;
    scoped.ForEachMatch(a, 0.0, 100.0, [&](const auto&) { ++hits; });
    EXPECT_EQ(hits, 0);
  }
  EXPECT_TRUE(scoped.empty());
  EXPECT_EQ(scoped_est.TotalCount(), 0u);
  EXPECT_TRUE(scoped.TakeIf(1, [](const auto&) { return true; }).empty());
  scoped.Insert(E(1, 5.0, 7, 999));
  EXPECT_EQ(scoped.size(), 1u);
  EXPECT_EQ(scoped_est.CountOf(1), 1u);
  EXPECT_EQ(remaining(scoped), (std::vector<std::uint64_t>{999}));
}

TEST(DirectoryStoreTest, AttrScopedTakeTouchesOneOwnerAndAttr) {
  DirectoryStore<std::uint64_t> store;
  store.Insert(1, E(0, 1.0, 10, 1));
  store.Insert(1, E(1, 1.0, 11, 2));
  store.Insert(1, E(1, 2.0, 12, 3));
  store.Insert(2, E(1, 3.0, 13, 4));
  const auto moved =
      store.TakeIf(1, AttrId{1}, [](const auto& e) { return e.key >= 2; });
  ASSERT_EQ(moved.size(), 2u);
  EXPECT_EQ(moved[0].key, 2u);
  EXPECT_EQ(moved[1].key, 3u);
  EXPECT_EQ(store.SizeAt(1), 1u);
  EXPECT_EQ(store.SizeAt(2), 1u);
  EXPECT_TRUE(
      store.TakeIf(99, AttrId{1}, [](const auto&) { return true; }).empty());
}

TEST(JoinTest, IntersectsProviderSets) {
  using V = std::vector<ResourceInfo>;
  const V a{{0, AttrValue::Number(1), 10},
            {0, AttrValue::Number(2), 11},
            {0, AttrValue::Number(3), 12}};
  const V b{{1, AttrValue::Number(1), 11},
            {1, AttrValue::Number(2), 12},
            {1, AttrValue::Number(9), 13}};
  const V c{{2, AttrValue::Number(1), 12},
            {2, AttrValue::Number(1), 11}};
  EXPECT_EQ(JoinProviders({a, b, c}), (std::vector<NodeAddr>{11, 12}));
}

TEST(JoinTest, DuplicateProvidersCountOnce) {
  using V = std::vector<ResourceInfo>;
  const V a{{0, AttrValue::Number(1), 10}, {0, AttrValue::Number(2), 10}};
  const V b{{1, AttrValue::Number(1), 10}};
  EXPECT_EQ(JoinProviders({a, b}), (std::vector<NodeAddr>{10}));
}

TEST(JoinTest, EmptySubResultYieldsEmptyJoin) {
  using V = std::vector<ResourceInfo>;
  const V a{{0, AttrValue::Number(1), 10}};
  const V none{};
  EXPECT_TRUE(JoinProviders({a, none}).empty());
  EXPECT_TRUE(JoinProviders({}).empty());
  EXPECT_EQ(JoinProviders({a}), (std::vector<NodeAddr>{10}));
}

TEST(DedupTest, RemovesExactDuplicatesOnly) {
  using V = std::vector<ResourceInfo>;
  V matches{{0, AttrValue::Number(1), 10},
            {0, AttrValue::Number(1), 10},   // replica duplicate
            {0, AttrValue::Number(1), 11},   // same value, other provider
            {0, AttrValue::Number(2), 10},   // same provider, other value
            {1, AttrValue::Number(1), 10}};  // other attribute
  DedupMatches(matches);
  EXPECT_EQ(matches.size(), 4u);
}

TEST(DedupTest, EmptyAndSingleton) {
  std::vector<ResourceInfo> none;
  DedupMatches(none);
  EXPECT_TRUE(none.empty());
  std::vector<ResourceInfo> one{{0, AttrValue::Number(1), 10}};
  DedupMatches(one);
  EXPECT_EQ(one.size(), 1u);
}

TEST(DirectoryTest, ExpireBeforeDropsOldEpochsOnly) {
  DirectoryStore<std::uint64_t> store;
  auto e0 = E(0, 1.0, 10);
  e0.epoch = 0;
  auto e1 = E(0, 2.0, 11);
  e1.epoch = 1;
  store.Insert(1, e0);
  store.Insert(1, e1);
  EXPECT_EQ(store.ExpireBefore(1), 1u);
  EXPECT_EQ(store.TotalEntries(), 1u);
  EXPECT_EQ(store.ExpireBefore(0), 0u);
}

}  // namespace
}  // namespace lorm::discovery
