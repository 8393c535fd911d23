// Differential suite for the batched localize inspector: the batched,
// cache-backed localize() must produce BIT-IDENTICAL Localized output
// (ghost layout, local indices, gather/scatter-add schedules) to the
// hash-based element-wise oracle localizeReference() on any reference
// pattern — duplicates, all-local, all-remote, empty ranks, single
// elements, adversarial owner skew — over random translation tables under
// both storage policies.  Plus the dereference-cache contract: hit/miss
// accounting via obs snapshot diffs, uid keying across live tables, the
// stale-cache regression (chaos::remap takes the old table's shard away on
// every rank and upserts every migrant for the new table), and shard
// lifetime (a dead table's shard is pruned, a remapped one survives with its
// new table).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <random>

#include "chaos/deref_cache.h"
#include "chaos/irreg_array.h"
#include "chaos/localize.h"
#include "chaos/partition.h"
#include "chaos/remap.h"
#include "chaos/ttable.h"
#include "obs/metrics.h"
#include "transport/world.h"

namespace mc::chaos {
namespace {

using layout::Index;
using transport::Comm;
using transport::World;
using Storage = TranslationTable::Storage;

void expectPlansEqual(const std::vector<sched::OffsetPlan>& got,
                      const std::vector<sched::OffsetPlan>& want,
                      const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].peer, want[i].peer) << what << " plan " << i;
    EXPECT_EQ(got[i].expandedOffsets(), want[i].expandedOffsets())
        << what << " plan " << i;
  }
}

void expectLocalizedEqual(const Localized& got, const Localized& want) {
  EXPECT_EQ(got.localIndices, want.localIndices);
  EXPECT_EQ(got.ghostCount, want.ghostCount);
  expectPlansEqual(got.gatherSched.sends, want.gatherSched.sends, "gather sends");
  expectPlansEqual(got.gatherSched.recvs, want.gatherSched.recvs, "gather recvs");
  EXPECT_EQ(got.gatherSched.localPairs, want.gatherSched.localPairs);
  expectPlansEqual(got.scatterAddSched.sends, want.scatterAddSched.sends,
                   "scatter sends");
  expectPlansEqual(got.scatterAddSched.recvs, want.scatterAddSched.recvs,
                   "scatter recvs");
}

/// Runs both inspectors on the same inputs and cross-checks them.
void differential(Comm& c, const TranslationTable& table,
                  std::span<const Index> refs) {
  const Localized oracle = localizeReference(c, table, refs);
  const Localized batched = localize(c, table, refs);
  expectLocalizedEqual(batched, oracle);
}

class LocalizeBatchP
    : public ::testing::TestWithParam<std::tuple<Storage, int, unsigned>> {};

TEST_P(LocalizeBatchP, RandomRefsMatchOracle) {
  const auto [storage, nprocs, seed] = GetParam();
  World::runSPMD(nprocs, [storage = storage, seed = seed](Comm& c) {
    const Index n = 257;
    const auto mine = randomPartition(n, c.size(), c.rank(), seed);
    const auto table =
        TranslationTable::build(c, mine, n, storage);
    // Heavy duplication: ~3n draws from n indices.
    std::mt19937 rng(seed * 977u + static_cast<unsigned>(c.rank()));
    std::uniform_int_distribution<Index> pick(0, n - 1);
    std::vector<Index> refs(static_cast<size_t>(3 * n));
    for (Index& g : refs) g = pick(rng);
    differential(c, table, refs);
    // Second pass over fresh refs: the batched path now runs against a
    // warm cache and must still match exactly.
    for (Index& g : refs) g = pick(rng);
    differential(c, table, refs);
  });
}

INSTANTIATE_TEST_SUITE_P(
    StorageProcsSeeds, LocalizeBatchP,
    ::testing::Combine(::testing::Values(Storage::kReplicated,
                                         Storage::kDistributed),
                       ::testing::Values(1, 2, 4, 8),
                       ::testing::Values(1u, 2u, 3u)));

TEST(LocalizeBatch, AllLocalRefsMatchOracle) {
  World::runSPMD(4, [](Comm& c) {
    const Index n = 120;
    const auto mine = randomPartition(n, c.size(), c.rank(), 7);
    const auto table =
        TranslationTable::build(c, mine, n, Storage::kDistributed);
    // Every rank references only its own elements (twice, for duplicates).
    std::vector<Index> refs(mine.begin(), mine.end());
    refs.insert(refs.end(), mine.begin(), mine.end());
    const Localized oracle = localizeReference(c, table, refs);
    const Localized batched = localize(c, table, refs);
    expectLocalizedEqual(batched, oracle);
    EXPECT_EQ(batched.ghostCount, 0);
    EXPECT_TRUE(batched.gatherSched.sends.empty());
    EXPECT_TRUE(batched.gatherSched.recvs.empty());
  });
}

TEST(LocalizeBatch, AllRemoteRefsMatchOracle) {
  World::runSPMD(4, [](Comm& c) {
    const Index n = 96;
    // Block partition: easy to reference exclusively the next rank's block.
    const auto mine = blockPartition(n, c.size(), c.rank());
    const auto table =
        TranslationTable::build(c, mine, n, Storage::kDistributed);
    const auto theirs =
        blockPartition(n, c.size(), (c.rank() + 1) % c.size());
    std::vector<Index> refs(theirs.begin(), theirs.end());
    if (c.size() > 1) {
      const Localized batched = localize(c, table, refs);
      EXPECT_EQ(batched.ghostCount, static_cast<Index>(refs.size()));
      expectLocalizedEqual(batched, localizeReference(c, table, refs));
    } else {
      differential(c, table, refs);
    }
  });
}

TEST(LocalizeBatch, EmptyAndSingleElementRanksMatchOracle) {
  World::runSPMD(4, [](Comm& c) {
    const Index n = 64;
    const auto mine = randomPartition(n, c.size(), c.rank(), 11);
    const auto table =
        TranslationTable::build(c, mine, n, Storage::kDistributed);
    // Rank 0: empty reference list; rank 1: a single reference; the rest:
    // a handful.  Collectivity must hold with uneven participation.
    std::vector<Index> refs;
    if (c.rank() == 1) refs = {n - 1};
    if (c.rank() >= 2) refs = {0, n / 2, 0, n - 1, n / 2};
    differential(c, table, refs);
  });
}

TEST(LocalizeBatch, AdversarialOwnerSkewMatchesOracle) {
  World::runSPMD(4, [](Comm& c) {
    // Rank 0 owns 90% of the elements; everyone references mostly rank 0.
    const Index n = 200;
    const Index cut = (n * 9) / 10;
    std::vector<Index> mine;
    if (c.rank() == 0) {
      mine.resize(static_cast<size_t>(cut));
      std::iota(mine.begin(), mine.end(), Index{0});
    } else {
      for (Index g = cut + c.rank() - 1; g < n;
           g += static_cast<Index>(c.size() - 1)) {
        mine.push_back(g);
      }
    }
    const auto table =
        TranslationTable::build(c, mine, n, Storage::kDistributed);
    std::mt19937 rng(13u + static_cast<unsigned>(c.rank()));
    std::uniform_int_distribution<Index> skewed(0, cut - 1);
    std::uniform_int_distribution<Index> any(0, n - 1);
    std::vector<Index> refs;
    for (int i = 0; i < 300; ++i) {
      refs.push_back((i % 10 == 0) ? any(rng) : skewed(rng));
    }
    differential(c, table, refs);
  });
}

// --- dereference-cache contract --------------------------------------------

TEST(DerefCache, SecondLocalizeHitsEntirelyInCache) {
  World::runSPMD(4, [](Comm& c) {
    const Index n = 150;
    const auto mine = randomPartition(n, c.size(), c.rank(), 21);
    const auto table =
        TranslationTable::build(c, mine, n, Storage::kDistributed);
    std::vector<Index> refs;
    for (Index g = c.rank(); g < n; g += 3) refs.push_back(g % n);
    const size_t distinct = [&] {
      std::vector<Index> u(refs);
      std::sort(u.begin(), u.end());
      u.erase(std::unique(u.begin(), u.end()), u.end());
      return u.size();
    }();

    (void)localize(c, table, refs);
    const obs::Snapshot before = obs::threadRegistry().snapshot();
    (void)localize(c, table, refs);
    const obs::Snapshot diff = obs::threadRegistry().snapshot() - before;
    // Same distinct set again: all hits, no misses, nothing inserted.
    EXPECT_EQ(diff.get("localize.deref_cache.hits"),
              static_cast<double>(distinct));
    EXPECT_EQ(diff.get("localize.deref_cache.misses"), 0.0);
    EXPECT_EQ(diff.get("localize.deref_cache.insertions"), 0.0);
  });
}

TEST(DerefCache, UidKeyingKeepsConcurrentTablesSeparate) {
  World::runSPMD(4, [](Comm& c) {
    const Index n = 90;
    const auto mineA = randomPartition(n, c.size(), c.rank(), 31);
    const auto mineB = randomPartition(n, c.size(), c.rank(), 32);
    const auto tableA =
        TranslationTable::build(c, mineA, n, Storage::kDistributed);
    const auto tableB =
        TranslationTable::build(c, mineB, n, Storage::kDistributed);
    EXPECT_NE(tableA.uid(), tableB.uid());
    std::vector<Index> refs;
    for (Index g = 0; g < n; g += 2) refs.push_back(g);
    // Interleave the two tables; each must resolve against its own shard.
    for (int round = 0; round < 3; ++round) {
      differential(c, tableA, refs);
      differential(c, tableB, refs);
    }
  });
}

TEST(DerefCache, RemapInvalidatesOldTableShard) {
  World::runSPMD(4, [](Comm& c) {
    const Index n = 128;
    auto table = std::make_shared<const TranslationTable>(
        TranslationTable::build(c, randomPartition(n, c.size(), c.rank(), 41),
                                n, Storage::kDistributed));
    IrregArray<double> arr(c, table,
                           randomPartition(n, c.size(), c.rank(), 41));
    arr.fillByGlobal([](Index g) { return static_cast<double>(g); });

    // Warm the cache for the old table.
    std::vector<Index> refs;
    for (Index g = 0; g < n; g += 2) refs.push_back(g);
    (void)localize(c, *table, refs);
    const double entriesBefore =
        obs::threadRegistry().snapshot().get("localize.deref_cache.entries");
    std::vector<Index> all(static_cast<std::size_t>(n));
    std::iota(all.begin(), all.end(), Index{0});
    std::vector<ElementLoc> locs(all.size());
    std::vector<std::uint8_t> cachedBefore(all.size());
    (void)derefCache().lookupSorted(table->uid(), all, locs.data(),
                                    cachedBefore.data());

    const obs::Snapshot before = obs::threadRegistry().snapshot();
    std::vector<Index> migrated;
    IrregArray<double> moved =
        remap(arr, randomPartition(n, c.size(), c.rank(), 99),
              Storage::kDistributed, &migrated);
    const obs::Snapshot diff = obs::threadRegistry().snapshot() - before;
    // remap took the old table's shard on this rank and handed it to the
    // new table: nothing dropped, the cached migrants rewritten in place
    // and the uncached ones inserted, so the entries grow by exactly those.
    std::size_t wasCached = 0;
    for (const Index g : migrated) {
      wasCached += cachedBefore[static_cast<std::size_t>(g)];
    }
    EXPECT_GE(diff.get("localize.deref_cache.invalidations"), 1.0);
    EXPECT_EQ(diff.get("localize.deref_cache.retarget_updated"),
              static_cast<double>(wasCached));
    EXPECT_EQ(diff.get("localize.deref_cache.retarget_inserted"),
              static_cast<double>(migrated.size() - wasCached));
    EXPECT_EQ(obs::threadRegistry().snapshot().get(
                  "localize.deref_cache.entries"),
              entriesBefore + static_cast<double>(migrated.size() - wasCached));
    // Every migrant hits under the new table.
    std::vector<std::uint8_t> hit(migrated.size());
    EXPECT_EQ(derefCache().lookupSorted(moved.table().uid(), migrated,
                                        locs.data(), hit.data()),
              migrated.size());
    EXPECT_EQ(diff.get("chaos.remap.migrants"),
              static_cast<double>(migrated.size()));
    // Every cached entry equals an uncached dereference of the new table.
    const std::vector<ElementLoc> truth = moved.table().dereference(c, all);
    std::vector<std::uint8_t> cachedNow(all.size());
    (void)derefCache().lookupSorted(moved.table().uid(), all, locs.data(),
                                    cachedNow.data());
    for (std::size_t g = 0; g < all.size(); ++g) {
      if (cachedNow[g]) {
        EXPECT_EQ(locs[g], truth[g]) << "global " << g;
      }
    }
    // Data survived the move.
    for (size_t i = 0; i < moved.myGlobals().size(); ++i) {
      EXPECT_EQ(moved.raw()[i],
                static_cast<double>(moved.myGlobals()[i]));
    }
    // The stale-cache bug class: a localize against the NEW table must
    // resolve to the new owners — differentially checked against the
    // uncached oracle — and re-priming the old table's shard must MISS
    // (its entries moved to the new table), not serve stale locations.
    differential(c, moved.table(), refs);
    const obs::Snapshot prime = obs::threadRegistry().snapshot();
    (void)localize(c, *table, refs);
    const obs::Snapshot primeDiff =
        obs::threadRegistry().snapshot() - prime;
    EXPECT_EQ(primeDiff.get("localize.deref_cache.misses"),
              static_cast<double>(refs.size()));
  });
}

size_t distinctCount(std::vector<Index> refs) {
  std::sort(refs.begin(), refs.end());
  return static_cast<size_t>(
      std::unique(refs.begin(), refs.end()) - refs.begin());
}

// A table built per epoch must not leave its shard behind: once table A is
// gone, the next insert (table B's misses) prunes A's shard, so the cache
// holds exactly B's distinct references.
TEST(DerefCache, DeadTableShardIsPrunedAtNextInsert) {
  World::runSPMD(4, [](Comm& c) {
    const Index n = 160;
    derefCache().clear();
    std::vector<Index> refsA, refsB;
    for (Index g = c.rank(); g < n; g += 2) refsA.push_back(g);
    for (Index g = 0; g < n; g += 3) refsB.push_back((g * 7 + c.rank()) % n);
    refsB.push_back(refsB.front());  // a duplicate counts once
    {
      const auto tableA = TranslationTable::build(
          c, randomPartition(n, c.size(), c.rank(), 61), n,
          Storage::kDistributed);
      (void)tableA.dereferenceCached(c, refsA);
      EXPECT_EQ(derefCacheStats().entries, distinctCount(refsA));
    }
    const auto tableB = TranslationTable::build(
        c, randomPartition(n, c.size(), c.rank(), 62), n,
        Storage::kDistributed);
    const std::uint64_t expiredBefore = derefCacheStats().expired;
    EXPECT_EQ(tableB.dereferenceCached(c, refsB),
              tableB.dereference(c, refsB));
    EXPECT_EQ(derefCacheStats().entries, distinctCount(refsB));
    EXPECT_EQ(derefCacheStats().expired - expiredBefore,
              distinctCount(refsA));
  });
}

// remap hands the old table's shard to the new table, liveness included:
// the shard outlives the old table, and every entry — the rewritten migrant
// too — still hits.
TEST(DerefCache, RetargetedShardSurvivesOldTable) {
  World::runSPMD(4, [](Comm& c) {
    const Index n = 128;
    derefCache().clear();
    std::vector<std::vector<Index>> mine;
    for (int r = 0; r < c.size(); ++r) {
      mine.push_back(randomPartition(n, c.size(), r, 71));
    }
    // One element moves: rank 0's last goes to the end of rank 1's list,
    // so no other element changes (owner, offset).
    std::vector<std::vector<Index>> next = mine;
    const Index moved = next[0].back();
    next[0].pop_back();
    next[1].push_back(moved);
    const auto& myOld = mine[static_cast<size_t>(c.rank())];
    // Other ranks' elements: on ranks 2 and 3 these include the one that
    // moves.
    std::vector<Index> refs;
    for (Index g = 0; g < n; ++g) {
      if (std::find(myOld.begin(), myOld.end(), g) == myOld.end()) {
        refs.push_back(g);
      }
    }
    auto table = std::make_shared<const TranslationTable>(
        TranslationTable::build(c, myOld, n, Storage::kDistributed));
    auto arr = std::make_unique<IrregArray<double>>(c, table, myOld);
    (void)table->dereferenceCached(c, refs);
    std::vector<Index> migrated;
    const DerefCacheStats beforeRemap = derefCacheStats();
    IrregArray<double> after =
        remap(*arr, next[static_cast<size_t>(c.rank())],
              Storage::kDistributed, &migrated);
    EXPECT_EQ(migrated, std::vector<Index>{moved});
    // remap dereferenced nothing.
    EXPECT_EQ(derefCacheStats().hits, beforeRemap.hits);
    EXPECT_EQ(derefCacheStats().misses, beforeRemap.misses);
    arr.reset();
    table.reset();  // the old table's last copy dies
    // Force a prune: any insert on this rank runs it.
    const auto other = TranslationTable::build(
        c, myOld, n, Storage::kReplicated);
    (void)other.dereferenceCached(c, std::vector<Index>{0});
    const DerefCacheStats before = derefCacheStats();
    EXPECT_EQ(after.table().dereferenceCached(c, refs),
              after.table().dereference(c, refs));
    EXPECT_EQ(derefCacheStats().hits - before.hits, refs.size());
    EXPECT_EQ(derefCacheStats().misses - before.misses, 0u);
  });
}

TEST(DerefCache, CachedDereferenceMatchesUncachedOnRawQueries) {
  World::runSPMD(4, [](Comm& c) {
    const Index n = 140;
    const auto mine = randomPartition(n, c.size(), c.rank(), 51);
    for (const Storage storage :
         {Storage::kReplicated, Storage::kDistributed}) {
      const auto table = TranslationTable::build(c, mine, n, storage);
      std::mt19937 rng(7u * static_cast<unsigned>(c.rank() + 1));
      std::uniform_int_distribution<Index> pick(0, n - 1);
      for (int round = 0; round < 4; ++round) {
        // Unsorted, duplicate-heavy query lists of varying length.
        std::vector<Index> q(static_cast<size_t>(20 + 30 * round));
        for (Index& g : q) g = pick(rng);
        EXPECT_EQ(table.dereferenceCached(c, q), table.dereference(c, q));
      }
    }
  });
}

}  // namespace
}  // namespace mc::chaos
