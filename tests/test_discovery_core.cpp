// Discovery-core tests: per-node directories and the provider join.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
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
  e.key = key;
  return e;
}

std::vector<std::uint64_t> KeysOf(
    const std::vector<Directory<std::uint64_t>::Entry>& v) {
  std::vector<std::uint64_t> keys;
  for (const auto& e : v) keys.push_back(e.key);
  return keys;
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
    ASSERT_EQ(KeysOf(got), KeysOf(want)) << "round " << round;
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

// Store model test: seeded random operation sequences run against the
// store and against a plain reference model (owner -> entries in insertion
// order). A directory visits its entries in (attr, ordinal, insertion)
// order, so the model's view of an owner is its entries stably sorted by
// (attr, ordinal). After every step the returned entries, every owner's
// contents, sizes and the attached estimator's counts must agree.
struct StoreModel {
  using Entry = Directory<std::uint64_t>::Entry;

  /// `owner`'s entries in directory iteration order.
  std::vector<Entry> View(NodeAddr owner) const {
    const auto it = dirs.find(owner);
    if (it == dirs.end()) return {};
    std::vector<Entry> v = it->second;
    std::stable_sort(v.begin(), v.end(), [](const Entry& a, const Entry& b) {
      if (a.info.attr != b.info.attr) return a.info.attr < b.info.attr;
      return a.info.value < b.info.value;
    });
    return v;
  }

  /// Removes and returns (in view order) `owner`'s entries matching `pred`.
  template <typename Pred>
  std::vector<Entry> Take(NodeAddr owner, Pred pred) {
    std::vector<Entry> out;
    for (const Entry& e : View(owner)) {
      if (pred(e)) out.push_back(e);
    }
    const auto it = dirs.find(owner);
    if (it != dirs.end()) std::erase_if(it->second, pred);
    return out;
  }

  template <typename Pred>
  std::size_t EraseEverywhere(Pred pred) {
    std::size_t n = 0;
    for (auto& [owner, v] : dirs) n += std::erase_if(v, pred);
    return n;
  }

  std::map<NodeAddr, std::vector<Entry>> dirs;
};

TEST(DirectoryStoreTest, MatchesReferenceModel) {
  constexpr AttrId kAttrs = 5;
  constexpr int kOrdinals = 8;  // few distinct ordinals: long equal runs
  resource::AttributeRegistry registry;
  // One estimator bin per integer ordinal, so bins can be read back.
  for (const char* name : {"a0", "a1", "a2", "a3", "a4"}) {
    registry.RegisterNumeric(name, 0.0, SelectivityEstimator::kBins);
  }
  // Dense small addresses next to sparse large ones.
  const std::vector<NodeAddr> owners{0, 1, 2, 3, 7, 1000, 65537, 0xfffffffeu};

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SelectivityEstimator est;
    est.Configure(registry);
    DirectoryStore<std::uint64_t> store;
    store.SetEstimator(&est);
    StoreModel model;
    Rng rng(seed);
    std::uint64_t seq = 0;

    auto check = [&](int step) {
      std::size_t total = 0;
      std::vector<std::uint64_t> per_attr(kAttrs, 0);
      std::vector<std::vector<std::uint64_t>> per_bin(
          kAttrs, std::vector<std::uint64_t>(kOrdinals, 0));
      for (const NodeAddr o : owners) {
        const auto view = model.View(o);
        ASSERT_EQ(store.Find(o) != nullptr, model.dirs.count(o) == 1)
            << "seed " << seed << " step " << step << " owner " << o;
        ASSERT_EQ(store.SizeAt(o), view.size())
            << "seed " << seed << " step " << step << " owner " << o;
        if (const auto* d = store.Find(o)) {
          std::vector<std::uint64_t> got;
          d->ForEach([&](const auto& e) { got.push_back(e.key); });
          ASSERT_EQ(got, KeysOf(view))
              << "seed " << seed << " step " << step << " owner " << o;
        }
        total += view.size();
        for (const auto& e : view) {
          ++per_attr[e.info.attr];
          ++per_bin[e.info.attr][static_cast<std::size_t>(e.info.value.ordinal())];
        }
      }
      ASSERT_EQ(store.TotalEntries(), total) << "step " << step;
      ASSERT_EQ(est.TotalCount(), total) << "step " << step;
      for (AttrId a = 0; a < kAttrs; ++a) {
        ASSERT_EQ(est.CountOf(a), per_attr[a]) << "step " << step;
        if (per_attr[a] == 0) continue;
        for (int b = 0; b < kOrdinals; ++b) {
          ASSERT_EQ(est.EstimateMatches(a, b, b) * SelectivityEstimator::kBins,
                    static_cast<double>(per_bin[a][b]))
              << "step " << step << " attr " << a << " bin " << b;
        }
      }
    };

    for (int step = 0; step < 1500; ++step) {
      const NodeAddr owner = owners[rng.NextBelow(owners.size())];
      const auto attr = static_cast<AttrId>(rng.NextBelow(kAttrs + 1));
      const std::uint64_t modulus = 1 + rng.NextBelow(3);  // 1 takes all
      const auto pred = [modulus](const auto& e) {
        return e.key % modulus == 0;
      };
      const auto attr_pred = [&](const auto& e) {
        return e.info.attr == attr && pred(e);
      };
      const std::uint64_t op = rng.NextBelow(20);
      if (op < 8) {  // inserts dominate so directories grow
        auto e = E(static_cast<AttrId>(rng.NextBelow(kAttrs)),
                   static_cast<double>(rng.NextBelow(kOrdinals)),
                   static_cast<NodeAddr>(rng.NextBelow(6)), seq++);
        e.epoch = rng.NextBelow(4);
        model.dirs[owner].push_back(e);
        store.Insert(owner, std::move(e));
      } else if (op == 8) {
        ASSERT_EQ(KeysOf(store.TakeIf(owner, pred)),
                  KeysOf(model.Take(owner, pred)));
      } else if (op == 9) {
        ASSERT_EQ(KeysOf(store.TakeIf(owner, attr, pred)),
                  KeysOf(model.Take(owner, attr_pred)));
      } else if (op == 10) {
        ASSERT_EQ(KeysOf(store.TakeAll(owner)), KeysOf(model.View(owner)));
        model.dirs.erase(owner);
      } else if (op == 11) {
        const std::size_t want = model.Take(owner, pred).size();
        ASSERT_EQ(store.EraseIf(owner, pred), want);
      } else if (op == 12) {
        store.Drop(owner);
        model.dirs.erase(owner);
      } else if (op == 13) {
        const std::uint64_t cutoff = rng.NextBelow(3);
        ASSERT_EQ(store.ExpireBefore(cutoff),
                  model.EraseEverywhere(
                      [cutoff](const auto& e) { return e.epoch < cutoff; }));
      } else if (op == 14) {
        const auto provider = static_cast<NodeAddr>(rng.NextBelow(6));
        ASSERT_EQ(store.EraseProviderEverywhere(provider),
                  model.EraseEverywhere([provider](const auto& e) {
                    return e.info.provider == provider;
                  }));
      } else {
        const double lo = static_cast<double>(rng.NextBelow(kOrdinals));
        const double hi = lo + static_cast<double>(rng.NextBelow(4));
        std::vector<std::uint64_t> got, want;
        if (const auto* d = store.Find(owner)) {
          d->ForEachMatch(attr, lo, hi,
                          [&](const auto& e) { got.push_back(e.key); });
        }
        for (const auto& e : model.View(owner)) {
          const double ordinal = e.info.value.ordinal();
          if (e.info.attr == attr && ordinal >= lo && ordinal <= hi) {
            want.push_back(e.key);
          }
        }
        ASSERT_EQ(got, want) << "seed " << seed << " step " << step;
      }
      check(step);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(DirectoryStoreTest, RecreatedOwnerStartsEmptyWithEstimator) {
  resource::AttributeRegistry registry;
  registry.RegisterNumeric("a0", 0.0, 100.0);
  registry.RegisterNumeric("a1", 0.0, 100.0);
  SelectivityEstimator est;
  est.Configure(registry);
  DirectoryStore<std::uint64_t> store;
  store.SetEstimator(&est);
  store.Insert(5, E(0, 1.0, 10, 1));
  store.Insert(5, E(1, 2.0, 11, 2));
  store.Insert(9, E(1, 3.0, 12, 3));
  ASSERT_EQ(est.TotalCount(), 3u);

  store.Drop(5);  // frees a slot and surrenders its counts
  EXPECT_EQ(store.Find(5), nullptr);
  EXPECT_EQ(est.CountOf(0), 0u);
  EXPECT_EQ(est.CountOf(1), 1u);

  // A new owner takes the freed slot; it must not see the old entries and
  // must report to the estimator.
  store.Insert(6, E(0, 4.0, 13, 4));
  EXPECT_EQ(store.SizeAt(6), 1u);
  EXPECT_EQ(store.SizeAt(5), 0u);
  EXPECT_EQ(est.CountOf(0), 1u);
  int hits = 0;
  store.Find(6)->ForEachMatch(1, 0.0, 100.0, [&](const auto&) { ++hits; });
  EXPECT_EQ(hits, 0);

  // The dropped owner comes back empty, also through TakeAll.
  store.Insert(5, E(1, 5.0, 14, 5));
  EXPECT_EQ(KeysOf(store.TakeAll(5)), (std::vector<std::uint64_t>{5}));
  EXPECT_EQ(store.Find(5), nullptr);
  store.Insert(5, E(0, 6.0, 15, 6));
  EXPECT_EQ(store.SizeAt(5), 1u);
  EXPECT_EQ(store.TotalEntries(), 3u);
  EXPECT_EQ(est.TotalCount(), 3u);
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
