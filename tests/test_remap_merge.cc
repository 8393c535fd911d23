// Tests for the adaptive-application features: chaos::remap (repartition a
// live irregular array — including its patched translation table, checked
// differentially against a fresh build, and its payload move, checked
// bitwise against the old schedule-by-dereference path), sched::merge (one
// message per peer for grouped transfers), and Parti global reductions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <random>
#include <regex>
#include <string>

#include "chaos/deref_cache.h"
#include "chaos/irreg_copy.h"
#include "chaos/localize.h"
#include "chaos/migration.h"
#include "chaos/partition.h"
#include "chaos/remap.h"
#include "oracles/migrant_records.h"
#include "oracles/reference_executor.h"
#include "parti/dist_array.h"
#include "transport/world.h"

namespace mc {
namespace {

using chaos::IrregArray;
using chaos::TranslationTable;
using layout::Index;
using layout::Point;
using layout::Shape;
using transport::Comm;
using transport::World;

TEST(Remap, PreservesValuesUnderNewDistribution) {
  for (int np : {1, 2, 4}) {
    World::runSPMD(np, [&](Comm& c) {
      const Index n = 40;
      const auto oldMine = chaos::blockPartition(n, c.size(), c.rank());
      auto table = std::make_shared<const TranslationTable>(
          TranslationTable::build(c, oldMine, n,
                                  TranslationTable::Storage::kDistributed));
      IrregArray<double> x(c, table, oldMine);
      x.fillByGlobal([](Index g) { return 3.0 * static_cast<double>(g) + 1.0; });

      const auto newMine = chaos::randomPartition(n, c.size(), c.rank(), 99);
      IrregArray<double> y = chaos::remap(
          x, newMine, TranslationTable::Storage::kDistributed);
      EXPECT_EQ(y.localCount(), static_cast<Index>(newMine.size()));
      const auto img = y.gatherGlobal();
      for (Index g = 0; g < n; ++g) {
        EXPECT_DOUBLE_EQ(img[static_cast<size_t>(g)],
                         3.0 * static_cast<double>(g) + 1.0)
            << "np=" << np;
      }
    });
  }
}

TEST(Remap, StorageCanChange) {
  World::runSPMD(3, [](Comm& c) {
    const Index n = 21;
    const auto oldMine = chaos::cyclicPartition(n, c.size(), c.rank());
    auto table = std::make_shared<const TranslationTable>(
        TranslationTable::build(c, oldMine, n,
                                TranslationTable::Storage::kReplicated));
    IrregArray<int> x(c, table, oldMine);
    x.fillByGlobal([](Index g) { return static_cast<int>(g * g); });
    const auto newMine = chaos::blockPartition(n, c.size(), c.rank());
    IrregArray<int> y =
        chaos::remap(x, newMine, TranslationTable::Storage::kDistributed);
    EXPECT_EQ(y.table().storage(), TranslationTable::Storage::kDistributed);
    const auto img = y.gatherGlobal();
    for (Index g = 0; g < n; ++g) {
      EXPECT_EQ(img[static_cast<size_t>(g)], static_cast<int>(g * g));
    }
  });
}

TEST(Remap, LocalizeWorksAfterRemap) {
  // The inspector/executor contract: schedules must be rebuilt after a
  // remap, and the rebuilt ones must see the new distribution.
  World::runSPMD(2, [](Comm& c) {
    const Index n = 16;
    const auto oldMine = chaos::blockPartition(n, c.size(), c.rank());
    auto table = std::make_shared<const TranslationTable>(
        TranslationTable::build(c, oldMine, n,
                                TranslationTable::Storage::kDistributed));
    IrregArray<double> x(c, table, oldMine);
    x.fillByGlobal([](Index g) { return static_cast<double>(g); });
    const auto newMine = chaos::cyclicPartition(n, c.size(), c.rank());
    IrregArray<double> y =
        chaos::remap(x, newMine, TranslationTable::Storage::kDistributed);

    std::vector<Index> refs;
    for (Index k = 0; k < n; ++k) refs.push_back((k * 5) % n);
    const chaos::Localized loc = chaos::localize(c, y.table(), refs);
    std::vector<double> ghost(static_cast<size_t>(loc.ghostCount));
    chaos::gatherGhosts<double>(c, loc, y.raw(), ghost);
    for (size_t i = 0; i < refs.size(); ++i) {
      const Index li = loc.localIndices[i];
      const double v = li < y.localCount()
                           ? y.raw()[static_cast<size_t>(li)]
                           : ghost[static_cast<size_t>(li - y.localCount())];
      EXPECT_DOUBLE_EQ(v, static_cast<double>(refs[i]));
    }
  });
}

// Runs a 3-rank remap from the block partition of 12 onto `next`, and
// returns the message of the error it raised ("" when none).
std::string remapError(const std::vector<std::vector<Index>>& next) {
  try {
    World::runSPMD(3, [&](Comm& c) {
      const Index n = 12;
      const auto oldMine = chaos::blockPartition(n, c.size(), c.rank());
      auto table = std::make_shared<const TranslationTable>(
          TranslationTable::build(c, oldMine, n,
                                  TranslationTable::Storage::kDistributed));
      IrregArray<double> x(c, table, oldMine);
      (void)chaos::remap(x, next[static_cast<std::size_t>(c.rank())],
                         TranslationTable::Storage::kDistributed);
    });
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Remap, DuplicateAssignmentRaisesOwnedTwice) {
  // Ranks 0 and 1 both claim global 4.
  const std::string what =
      remapError({{0, 1, 2, 3, 4}, {4, 5, 6, 7}, {8, 9, 10, 11}});
  EXPECT_NE(what.find("global index 4 owned twice"), std::string::npos)
      << what;
}

TEST(Remap, GappedAssignmentRaisesUnowned) {
  // Nobody claims global 11.
  const std::string what =
      remapError({{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10}});
  EXPECT_NE(what.find("global index 11 unowned"), std::string::npos)
      << what;
}

// migrantRecords keeps migratedGlobals' partial-assignment contract: an
// index owned in only one of the two assignments is a migrant whose other
// side is proc -1.
TEST(Remap, MigrantRecordsAcceptPartialAssignments) {
  World::runSPMD(2, [](Comm& c) {
    // Old: rank 0 {0, 1}, rank 1 {2}.  New: rank 0 {1}, rank 1 {2, 3}.
    const std::vector<Index> oldMine =
        c.rank() == 0 ? std::vector<Index>{0, 1} : std::vector<Index>{2};
    const std::vector<Index> newMine =
        c.rank() == 0 ? std::vector<Index>{1} : std::vector<Index>{2, 3};
    const auto migrants = chaos::migrantRecords(c, oldMine, newMine, 4);
    ASSERT_EQ(migrants.size(), 3u);
    EXPECT_EQ(migrants[0].global, 0);  // dropped
    EXPECT_EQ(migrants[0].from(), (chaos::ElementLoc{0, 0}));
    EXPECT_EQ(migrants[0].to().proc, -1);
    EXPECT_EQ(migrants[1].global, 1);  // same owner, new offset
    EXPECT_EQ(migrants[1].from(), (chaos::ElementLoc{0, 1}));
    EXPECT_EQ(migrants[1].to(), (chaos::ElementLoc{0, 0}));
    EXPECT_EQ(migrants[2].global, 3);  // new
    EXPECT_EQ(migrants[2].from().proc, -1);
    EXPECT_EQ(migrants[2].to(), (chaos::ElementLoc{1, 1}));
    EXPECT_EQ(chaos::migratedGlobals(c, oldMine, newMine, 4),
              (std::vector<Index>{0, 1, 3}));
  });
}

/// Every rank's assignment, in local order, generated identically on every
/// rank from one seed.
using Assignment = std::vector<std::vector<Index>>;

Assignment randomAssignment(Index n, int np, std::mt19937& rng) {
  Assignment a(static_cast<std::size_t>(np));
  std::uniform_int_distribution<int> owner(0, np - 1);
  for (Index g = 0; g < n; ++g) {
    a[static_cast<std::size_t>(owner(rng))].push_back(g);
  }
  for (auto& mine : a) std::shuffle(mine.begin(), mine.end(), rng);
  return a;
}

/// Drift: `moves` random elements change owner, so part sizes grow and
/// shrink.  `stable` keeps survivors' slots (stableRemapOrder, which
/// compacts a shrinking part); otherwise each part is listed ascending.
Assignment drift(const Assignment& old, Index n, int moves, bool stable,
                 std::mt19937& rng) {
  const int np = static_cast<int>(old.size());
  std::vector<int> owner(static_cast<std::size_t>(n));
  for (int r = 0; r < np; ++r) {
    for (const Index g : old[static_cast<std::size_t>(r)]) {
      owner[static_cast<std::size_t>(g)] = r;
    }
  }
  std::uniform_int_distribution<Index> pickG(0, n - 1);
  std::uniform_int_distribution<int> pickR(0, np - 1);
  for (int k = 0; k < moves; ++k) {
    owner[static_cast<std::size_t>(pickG(rng))] = pickR(rng);
  }
  Assignment next(static_cast<std::size_t>(np));
  for (Index g = 0; g < n; ++g) {
    next[static_cast<std::size_t>(owner[static_cast<std::size_t>(g)])]
        .push_back(g);
  }
  if (stable) {
    for (int r = 0; r < np; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      next[rr] = chaos::stableRemapOrder(old[rr], next[rr]);
    }
  }
  return next;
}

std::uint64_t payloadBits(Index g) {
  std::uint64_t x = static_cast<std::uint64_t>(g) * 0x9E3779B97F4A7C15ull;
  x ^= x >> 29;
  return x * 0xBF58476D1CE4E5B9ull;
}

// Differential fuzz over drift partitions on 2-5 ranks, every storage pair:
// the patched table equals a fresh TranslationTable::build of the new
// assignment (fingerprint and every dereference), remap makes no
// dereference, and the payload lands bitwise where the old
// schedule-by-dereference path (buildIrregCopySchedule against the fresh
// table, run by the reference executor) puts it.
TEST(Remap, PatchedTableMatchesFreshBuildAndOldMovePath) {
  using Storage = TranslationTable::Storage;
  const Storage kinds[] = {Storage::kReplicated, Storage::kDistributed};
  std::size_t offsetOnly = 0, grew = 0, shrank = 0;
  for (int np = 2; np <= 5; ++np) {
    World::runSPMD(np, [&](Comm& c) {
      for (int trial = 0; trial < 16; ++trial) {
        const Storage from = kinds[trial % 2];
        const Storage to = kinds[(trial / 2) % 2];
        const bool stable = trial % 8 < 6;
        const Index n = 23 + 11 * trial;
        std::mt19937 rng(1000u * static_cast<unsigned>(np) +
                         static_cast<unsigned>(trial));
        const Assignment oldA = randomAssignment(n, np, rng);
        const Assignment newA =
            drift(oldA, n, 1 + trial % 5 + static_cast<int>(n) / 10, stable,
                  rng);
        const auto me = static_cast<std::size_t>(c.rank());
        const double cost = 1e-7 * (1 + trial % 3);

        auto table = std::make_shared<const TranslationTable>(
            TranslationTable::build(c, oldA[me], n, from, cost));
        IrregArray<double> x(c, table, oldA[me]);
        for (std::size_t i = 0; i < oldA[me].size(); ++i) {
          const std::uint64_t bits = payloadBits(oldA[me][i]);
          std::memcpy(&x.raw()[i], &bits, sizeof bits);
        }

        const auto before = chaos::derefCacheStats();
        std::vector<Index> migrated;
        IrregArray<double> y = chaos::remap(x, newA[me], to, &migrated);
        EXPECT_EQ(chaos::derefCacheStats().hits, before.hits);
        EXPECT_EQ(chaos::derefCacheStats().misses, before.misses);

        const TranslationTable fresh =
            TranslationTable::build(c, newA[me], n, to, cost);
        EXPECT_EQ(y.table().storage(), to);
        EXPECT_NE(y.table().uid(), table->uid());
        EXPECT_EQ(y.table().localFingerprint(), fresh.localFingerprint())
            << "np=" << np << " trial=" << trial;
        std::vector<Index> all(static_cast<std::size_t>(n));
        std::iota(all.begin(), all.end(), Index{0});
        EXPECT_EQ(y.table().dereference(c, all), fresh.dereference(c, all))
            << "np=" << np << " trial=" << trial;

        // The old move path: dereference every old-owned global against
        // the fresh table and build the copy schedule from the answers.
        std::vector<Index> srcOffsets(oldA[me].size());
        std::iota(srcOffsets.begin(), srcOffsets.end(), Index{0});
        const sched::Schedule byDeref =
            chaos::buildIrregCopySchedule(c, fresh, srcOffsets, oldA[me]);
        std::vector<double> want(newA[me].size(), 0.0);
        sched::reference::execute<double>(c, byDeref, x.raw(), want,
                                          c.nextUserTag());
        ASSERT_EQ(y.raw().size(), want.size());
        EXPECT_EQ(std::memcmp(y.raw().data(), want.data(),
                              want.size() * sizeof(double)),
                  0)
            << "np=" << np << " trial=" << trial;

        const auto migrants =
            chaos::migrantRecords(c, oldA[me], newA[me], n);
        std::vector<Index> globals;
        for (const chaos::Migrant& m : migrants) {
          globals.push_back(m.global);
          if (c.rank() == 0 && m.fromProc == m.toProc) ++offsetOnly;
        }
        EXPECT_EQ(migrated, globals);
        if (c.rank() == 0) {
          for (std::size_t r = 0; r < oldA.size(); ++r) {
            grew += newA[r].size() > oldA[r].size() ? 1 : 0;
            shrank += newA[r].size() < oldA[r].size() ? 1 : 0;
          }
        }
      }
    });
  }
  // The fuzz really covered slot compaction and part-size changes.
  EXPECT_GT(offsetOnly, 0u);
  EXPECT_GT(grew, 0u);
  EXPECT_GT(shrank, 0u);
}

/// One migrantRecords run: every rank's records, or the named error the
/// world raised ("global index g owned twice" / "... out of range").
struct RecordsOutcome {
  std::vector<std::vector<chaos::Migrant>> perRank;
  std::string error;
};

template <typename Records>
RecordsOutcome recordsOutcome(const Assignment& oldA, const Assignment& newA,
                              Index n, Records records) {
  RecordsOutcome out;
  out.perRank.resize(oldA.size());
  try {
    World::runSPMD(static_cast<int>(oldA.size()), [&](Comm& c) {
      const auto me = static_cast<std::size_t>(c.rank());
      out.perRank[me] = records(c, oldA[me], newA[me], n);
    });
  } catch (const Error& e) {
    // The message carries the raising source line; compare the named
    // error only.
    static const std::regex named("global index [0-9]+ [a-z ]+");
    std::cmatch m;
    const std::string what = e.what();
    out.error = std::regex_search(what.c_str(), m, named) ? m.str() : what;
    out.perRank.clear();
  }
  return out;
}

/// Claims global `g` a second time in `a`, on a random rank.
void duplicate(Assignment& a, Index g, std::mt19937& rng) {
  a[std::uniform_int_distribution<std::size_t>(0, a.size() - 1)(rng)]
      .push_back(g);
}

// Differential fuzz: the changed-slot routing of chaos::migrantRecords
// gives the full-routing oracle's records on complete, partial and
// duplicated assignments over 2-5 ranks, or raises the same named error.
// A duplicated case holds exactly one index twice, so every rank that
// raises names the same index.
TEST(Remap, MigrantRecordsMatchFullRoutingOracle) {
  std::size_t raised = 0, partialOk = 0;
  for (int np = 2; np <= 5; ++np) {
    for (int trial = 0; trial < 24; ++trial) {
      std::mt19937 rng(7000u * static_cast<unsigned>(np) +
                       static_cast<unsigned>(trial));
      const Index n = 5 + (13 * trial) % 97;
      Assignment oldA = randomAssignment(n, np, rng);
      Assignment newA = drift(oldA, n, 1 + trial % 7, trial % 4 != 3, rng);
      std::uniform_int_distribution<Index> pickG(0, n - 1);
      const int kind = trial % 6;
      if (kind == 1 || kind == 2 || kind == 5) {
        // Partial: a few indices unowned in the new assignment (2), the
        // old one (5) or both (1).
        for (int k = 0; k < 1 + trial % 3; ++k) {
          const Index g = pickG(rng);
          if (kind != 2) {
            for (auto& lane : oldA) std::erase(lane, g);
          }
          if (kind != 5) {
            for (auto& lane : newA) std::erase(lane, g);
          }
        }
      } else if (kind == 3) {
        // One index held twice: in the old assignment, the new one or both.
        const Index g = pickG(rng);
        if (trial % 3 != 1) duplicate(oldA, g, rng);
        if (trial % 3 != 0) duplicate(newA, g, rng);
      } else if (kind == 4) {
        // One rank holds an index in two unchanged slots (never routed).
        auto& o = oldA[static_cast<std::size_t>(trial % np)];
        auto& w = newA[static_cast<std::size_t>(trial % np)];
        const std::size_t len = std::min(o.size(), w.size());
        o.resize(len);
        w.resize(len);
        const Index g = pickG(rng);
        o.insert(o.end(), {g, g});
        w.insert(w.end(), {g, g});
      }
      const RecordsOutcome got = recordsOutcome(
          oldA, newA, n,
          [](Comm& c, std::span<const Index> o, std::span<const Index> w,
             Index size) { return chaos::migrantRecords(c, o, w, size); });
      const RecordsOutcome want = recordsOutcome(
          oldA, newA, n,
          [](Comm& c, std::span<const Index> o, std::span<const Index> w,
             Index size) {
            return chaos::reference::migrantRecords(c, o, w, size);
          });
      EXPECT_EQ(got.error, want.error) << "np=" << np << " trial=" << trial;
      EXPECT_EQ(got.perRank, want.perRank)
          << "np=" << np << " trial=" << trial;
      raised += want.error.empty() ? 0 : 1;
      partialOk += want.error.empty() && kind != 0 ? 1 : 0;
    }
  }
  // The fuzz really covered both outcomes and the partial contract.
  EXPECT_GT(raised, 0u);
  EXPECT_GT(partialOk, 0u);
}

TEST(ScheduleMerge, OneMessagePerPeerForGroupedTransfers) {
  World::runSPMD(2, [](Comm& c) {
    // Two disjoint transfers 0 -> 1 into different slots.
    sched::Schedule s1, s2;
    if (c.rank() == 0) {
      s1.sends.push_back(sched::OffsetPlan{1, {0, 1}});
      s2.sends.push_back(sched::OffsetPlan{1, {4, 5}});
    } else {
      s1.recvs.push_back(sched::OffsetPlan{0, {0, 1}});
      s2.recvs.push_back(sched::OffsetPlan{0, {6, 7}});
    }
    const std::vector<sched::Schedule> parts{s1, s2};
    const sched::Schedule merged = sched::merge(parts);
    std::vector<double> src{10, 11, 12, 13, 14, 15, 16, 17};
    std::vector<double> dst(8, 0.0);
    c.resetStats();
    sched::execute<double>(c, merged, src, dst, c.nextUserTag());
    if (c.rank() == 0) {
      EXPECT_EQ(c.stats().messagesSent, 1u);  // one message for both parts
    } else {
      EXPECT_EQ(c.stats().messagesReceived, 1u);
      EXPECT_DOUBLE_EQ(dst[0], 10);
      EXPECT_DOUBLE_EQ(dst[1], 11);
      EXPECT_DOUBLE_EQ(dst[6], 14);
      EXPECT_DOUBLE_EQ(dst[7], 15);
    }
  });
}

TEST(ScheduleMerge, EquivalentToSequentialExecution) {
  World::runSPMD(3, [](Comm& c) {
    // Ring transfers in two parts; merged result == sequential results.
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    sched::Schedule s1, s2;
    s1.sends.push_back(sched::OffsetPlan{next, {0}});
    s1.recvs.push_back(sched::OffsetPlan{prev, {4}});
    s2.sends.push_back(sched::OffsetPlan{next, {1, 2}});
    s2.recvs.push_back(sched::OffsetPlan{prev, {5, 6}});
    std::vector<double> src{1.0 + c.rank(), 10.0 + c.rank(), 20.0 + c.rank(), 0};
    std::vector<double> seq(8, 0.0), mrg(8, 0.0);
    sched::execute<double>(c, s1, src, seq, c.nextUserTag());
    sched::execute<double>(c, s2, src, seq, c.nextUserTag());
    const std::vector<sched::Schedule> parts{s1, s2};
    sched::execute<double>(c, sched::merge(parts), src, mrg, c.nextUserTag());
    EXPECT_EQ(seq, mrg);
  });
}

TEST(ScheduleMerge, RejectsMixedLocalCopyPolicies) {
  sched::Schedule a, b;
  a.bufferLocalCopies = true;
  b.bufferLocalCopies = false;
  const std::vector<sched::Schedule> parts{a, b};
  EXPECT_THROW(sched::merge(parts), Error);
}

TEST(ScheduleMerge, EmptyInput) {
  EXPECT_TRUE(sched::merge({}).sends.empty());
}

TEST(PartiReductions, SumAndMax) {
  for (int np : {1, 3, 4}) {
    World::runSPMD(np, [](Comm& c) {
      parti::BlockDistArray<double> a(c, Shape::of({6, 7}), 1);
      a.fillByPoint([](const Point& p) {
        return static_cast<double>(p[0] * 7 + p[1]);
      });
      EXPECT_DOUBLE_EQ(parti::globalSum(a), 41.0 * 42.0 / 2.0);
      EXPECT_DOUBLE_EQ(parti::globalMax(a), 41.0);
    });
  }
}

TEST(PartiReductions, MaxWithEmptyBlocks) {
  // 2x2 array over 8 processors: most own nothing.
  World::runSPMD(8, [](Comm& c) {
    parti::BlockDistArray<int> a(c, Shape::of({2, 2}), 0);
    a.fillByPoint([](const Point& p) { return static_cast<int>(p[0] + p[1]); });
    EXPECT_EQ(parti::globalMax(a), 2);
    EXPECT_EQ(parti::globalSum(a), 0 + 1 + 1 + 2);
  });
}

}  // namespace
}  // namespace mc
