// Incremental delta schedules: DistDelta bookkeeping, computeDelta
// exactness, and the load-bearing property of patchSchedule — a patched
// schedule is bit-identical (plans AND provenance) to a full inspector
// rebuild of the new distributions, so its data movement is bitwise equal
// too.  Also covers the satellite machinery: deltaFromMigratedIndices /
// chaos::migratedGlobals / stableRemapOrder, the redistribution move,
// ScheduleCache::getOrPatch, Executor::rebind buffer reuse, and the
// dereference cache's hand-over across a remap.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <random>

#include "chaos/deref_cache.h"
#include "chaos/migration.h"
#include "chaos/partition.h"
#include "chaos/remap.h"
#include "core/adapters/chaos_adapter.h"
#include "core/adapters/hpf_adapter.h"
#include "core/schedule_cache.h"
#include "hpfrt/hpf_array.h"
#include "layout/dist_delta.h"
#include "oracles/reference_executor.h"
#include "oracles/schedule_oracle.h"
#include "transport/world.h"

namespace mc::core {
namespace {

using chaos::IrregArray;
using chaos::TranslationTable;
using layout::DistDelta;
using layout::Index;
using layout::LinInterval;
using layout::Point;
using layout::RegularSection;
using layout::Shape;
using transport::Comm;
using transport::World;

// ---------------------------------------------------------------------------
// DistDelta unit tests (no world needed).

TEST(DistDelta, MergesAdjacentAndOverlapping) {
  DistDelta d;
  d.add(0, 4);
  d.add(4, 6);   // adjacent: merges
  d.add(2, 5);   // overlapping: already covered
  d.add(10, 12);
  ASSERT_EQ(d.intervals().size(), 2u);
  EXPECT_EQ(d.intervals()[0], (LinInterval{0, 6}));
  EXPECT_EQ(d.intervals()[1], (LinInterval{10, 12}));
  EXPECT_EQ(d.migratedElements(), 8);
}

TEST(DistDelta, OutOfOrderAddsNormalize) {
  DistDelta d;
  d.add(10, 12);
  d.add(0, 2);
  d.add(11, 15);
  ASSERT_EQ(d.intervals().size(), 2u);
  EXPECT_EQ(d.intervals()[0], (LinInterval{0, 2}));
  EXPECT_EQ(d.intervals()[1], (LinInterval{10, 15}));
  EXPECT_TRUE(d.contains(0));
  EXPECT_FALSE(d.contains(2));
  EXPECT_TRUE(d.contains(14));
  EXPECT_FALSE(d.contains(15));
}

TEST(DistDelta, EmptyAndInvertedIntervalsIgnored) {
  DistDelta d;
  d.add(5, 5);
  d.add(7, 3);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.migratedElements(), 0);
}

TEST(DistDelta, AddRunStrided) {
  DistDelta d;
  d.addRun(0, 3, 4);  // positions 0, 4, 8
  ASSERT_EQ(d.intervals().size(), 3u);
  EXPECT_TRUE(d.contains(4));
  EXPECT_FALSE(d.contains(5));
  DistDelta e;
  e.addRun(2, 5, 1);  // contiguous block [2, 7)
  ASSERT_EQ(e.intervals().size(), 1u);
  EXPECT_EQ(e.intervals()[0], (LinInterval{2, 7}));
}

TEST(DistDelta, UnionWith) {
  DistDelta a;
  a.add(0, 4);
  DistDelta b;
  b.add(2, 8);
  b.add(20, 22);
  a.unionWith(b);
  ASSERT_EQ(a.intervals().size(), 2u);
  EXPECT_EQ(a.intervals()[0], (LinInterval{0, 8}));
  EXPECT_EQ(a.intervals()[1], (LinInterval{20, 22}));
}

TEST(DistDelta, FingerprintIsContentAddressed) {
  DistDelta a;
  a.add(0, 4);
  a.add(4, 8);  // normalizes to [0, 8)
  DistDelta b;
  b.add(0, 8);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  DistDelta c;
  c.add(0, 9);
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

// ---------------------------------------------------------------------------
// stableRemapOrder (local, no world).

TEST(Migration, StableRemapOrderKeepsSurvivorSlots) {
  const std::vector<Index> oldMine = {4, 9, 1, 7};
  // 9 departs, 3 and 12 arrive: 9's slot is reused, the extra appends.
  const std::vector<Index> newAny = {12, 1, 3, 4, 7};
  const auto out = chaos::stableRemapOrder(oldMine, newAny);
  EXPECT_EQ(out, (std::vector<Index>{4, 3, 1, 7, 12}));
}

TEST(Migration, StableRemapOrderShrinkCompacts) {
  const std::vector<Index> oldMine = {4, 9, 1, 7};
  const std::vector<Index> newAny = {7, 4};
  const auto out = chaos::stableRemapOrder(oldMine, newAny);
  EXPECT_EQ(out, (std::vector<Index>{4, 7}));
}

// ---------------------------------------------------------------------------
// Deterministic assignment fixtures for the distributed tests.

constexpr int kProcs = 4;

struct Assignment {
  std::vector<std::vector<Index>> mine;  // per rank, local order
};

Assignment basePartition(Index n, unsigned seed) {
  Assignment a;
  for (int r = 0; r < kProcs; ++r) {
    a.mine.push_back(chaos::randomPartition(n, kProcs, r, seed));
  }
  return a;
}

/// Moves `moves` deterministic elements to a different owner and re-stables
/// every rank's local order so survivors keep their offsets.
Assignment mutate(const Assignment& oldA, Index n, int moves, unsigned salt) {
  std::vector<int> owner(static_cast<std::size_t>(n), -1);
  for (int r = 0; r < kProcs; ++r) {
    for (const Index g : oldA.mine[static_cast<std::size_t>(r)]) {
      owner[static_cast<std::size_t>(g)] = r;
    }
  }
  for (int k = 0; k < moves; ++k) {
    const auto g = static_cast<std::size_t>(
        (static_cast<Index>(k) * 131 + static_cast<Index>(salt) * 17) % n);
    owner[g] = (owner[g] + 1 + k % (kProcs - 1)) % kProcs;
  }
  Assignment newA;
  newA.mine.resize(kProcs);
  for (Index g = 0; g < n; ++g) {
    newA.mine[static_cast<std::size_t>(owner[static_cast<std::size_t>(g)])]
        .push_back(g);
  }
  for (int r = 0; r < kProcs; ++r) {
    auto& lane = newA.mine[static_cast<std::size_t>(r)];
    lane = chaos::stableRemapOrder(oldA.mine[static_cast<std::size_t>(r)],
                                   lane);
  }
  return newA;
}

std::shared_ptr<IrregArray<double>> makeChaosArray(Comm& c, Index n,
                                                   const Assignment& a,
                                                   double base) {
  auto table = std::make_shared<const TranslationTable>(
      TranslationTable::build(c, a.mine[static_cast<std::size_t>(c.rank())],
                              n, TranslationTable::Storage::kReplicated));
  auto arr = std::make_shared<IrregArray<double>>(
      c, table, a.mine[static_cast<std::size_t>(c.rank())]);
  arr->fillByGlobal(
      [base](Index g) { return base + static_cast<double>(g); });
  return arr;
}

void expectSchedEqual(const McSchedule& a, const McSchedule& b) {
  ASSERT_EQ(a.plan.sends.size(), b.plan.sends.size());
  for (std::size_t i = 0; i < a.plan.sends.size(); ++i) {
    EXPECT_EQ(a.plan.sends[i].peer, b.plan.sends[i].peer);
    EXPECT_EQ(a.plan.sends[i].runs, b.plan.sends[i].runs);
    EXPECT_EQ(a.plan.sends[i].offsets, b.plan.sends[i].offsets);
  }
  ASSERT_EQ(a.plan.recvs.size(), b.plan.recvs.size());
  for (std::size_t i = 0; i < a.plan.recvs.size(); ++i) {
    EXPECT_EQ(a.plan.recvs[i].peer, b.plan.recvs[i].peer);
    EXPECT_EQ(a.plan.recvs[i].runs, b.plan.recvs[i].runs);
    EXPECT_EQ(a.plan.recvs[i].offsets, b.plan.recvs[i].offsets);
  }
  EXPECT_EQ(a.plan.localRuns, b.plan.localRuns);
  EXPECT_EQ(a.plan.localPairs, b.plan.localPairs);
  EXPECT_EQ(a.sendSegs, b.sendSegs);
  EXPECT_EQ(a.recvSegs, b.recvSegs);
  EXPECT_EQ(a.numElements, b.numElements);
  EXPECT_EQ(a.hasProvenance, b.hasProvenance);
}

/// The fuzz scenario: chaos source (replicated table) copied into an HPF
/// cyclic array; the chaos side repartitions with a bounded number of
/// migrations.
struct Scenario {
  static constexpr Index kN = 48;  // chaos array size
  static constexpr Index kM = 32;  // elements copied

  std::shared_ptr<IrregArray<double>> oldArr;
  std::shared_ptr<IrregArray<double>> newArr;
  std::shared_ptr<hpfrt::HpfArray<double>> dstArr;
  DistObject oldSrc;
  DistObject newSrc;
  DistObject dst;
  SetOfRegions srcSet;
  SetOfRegions dstSet;

  Scenario(Comm& c, unsigned seed, int moves)
      : Scenario(c, basePartition(kN, seed), moves, seed) {}

  Scenario(Comm& c, const Assignment& oldA, int moves, unsigned salt)
      : oldArr(makeChaosArray(c, kN, oldA, 100.0)),
        newArr(makeChaosArray(c, kN, mutate(oldA, kN, moves, salt), 100.0)),
        dstArr(std::make_shared<hpfrt::HpfArray<double>>(
            c, hpfrt::HpfDist(Shape::of({kM}),
                              {hpfrt::DimDist{hpfrt::DistKind::kCyclic,
                                              c.size(), 1}}))),
        oldSrc(ChaosAdapter::describe(*oldArr)),
        newSrc(ChaosAdapter::describe(*newArr)),
        dst(HpfAdapter::describe(*dstArr)) {
    // 5 is coprime to 48: kM distinct global indices, non-monotone order.
    std::vector<Index> ids;
    for (Index k = 0; k < kM; ++k) ids.push_back((5 * k + 2) % kN);
    srcSet.add(Region::indices(ids));
    dstSet.add(Region::section(RegularSection::of({0}, {kM - 1}, {1})));
  }

  std::vector<double> executed(Comm& c, const McSchedule& sched) {
    dstArr->fillByPoint([](const Point&) { return -1.0; });
    sched::execute<double>(c, sched.plan, newArr->raw(), dstArr->raw(),
                           c.nextUserTag());
    return dstArr->gatherGlobal();
  }
  /// The same move through the copy-per-step reference executor.
  std::vector<double> referenceExecuted(Comm& c, const McSchedule& sched) {
    dstArr->fillByPoint([](const Point&) { return -1.0; });
    sched::reference::execute<double>(c, sched.plan, newArr->raw(),
                                      dstArr->raw(), c.nextUserTag());
    return dstArr->gatherGlobal();
  }
};

// ---------------------------------------------------------------------------
// The tentpole property: patched == fresh rebuild, bit for bit.

void runDifferentialFuzz(Method method) {
  World::runSPMD(kProcs, [&](Comm& c) {
    for (const unsigned seed : {7u, 21u}) {
      for (const int moves : {0, 1, 5, 16}) {
        Scenario s(c, seed, moves);
        const McSchedule old = computeSchedule(c, s.oldSrc, s.srcSet, s.dst,
                                               s.dstSet, method);
        ASSERT_TRUE(old.hasProvenance);
        const DistDelta delta = computeDelta(s.oldSrc, s.newSrc, s.srcSet);
        const McSchedule patched = patchSchedule(
            c, old, delta, s.newSrc, s.srcSet, s.dst, s.dstSet);
        const McSchedule fresh = computeSchedule(c, s.newSrc, s.srcSet,
                                                 s.dst, s.dstSet, method);
        expectSchedEqual(patched, fresh);
        EXPECT_EQ(s.executed(c, patched), s.executed(c, fresh));
        if (moves == 0) {
          EXPECT_TRUE(delta.empty());
          expectSchedEqual(patched, old);
        }
        // Over-approximation is harmless: widen the delta arbitrarily.
        DistDelta over = delta;
        over.add(1, 6);
        over.add(Scenario::kM - 3, Scenario::kM);
        expectSchedEqual(patchSchedule(c, old, over, s.newSrc, s.srcSet,
                                       s.dst, s.dstSet),
                         fresh);
      }
    }
  });
}

TEST(ScheduleDelta, PatchedEqualsFreshCooperation) {
  runDifferentialFuzz(Method::kCooperation);
}

TEST(ScheduleDelta, PatchedEqualsFreshDuplication) {
  runDifferentialFuzz(Method::kDuplication);
}

TEST(ScheduleDelta, FullDeltaEqualsFresh) {
  World::runSPMD(kProcs, [](Comm& c) {
    Scenario s(c, 11u, 9);
    const McSchedule old =
        computeSchedule(c, s.oldSrc, s.srcSet, s.dst, s.dstSet);
    DistDelta all;
    all.add(0, Scenario::kM);
    const McSchedule patched =
        patchSchedule(c, old, all, s.newSrc, s.srcSet, s.dst, s.dstSet);
    const McSchedule fresh =
        computeSchedule(c, s.newSrc, s.srcSet, s.dst, s.dstSet);
    expectSchedEqual(patched, fresh);
    const auto& ps = lastPatchStats();
    EXPECT_EQ(ps.segmentsReused, 0u);
    EXPECT_EQ(ps.elementsPatched, Scenario::kM);
  });
}

TEST(ScheduleDelta, PatchStatsCountReuse) {
  World::runSPMD(kProcs, [](Comm& c) {
    Scenario s(c, 3u, 2);
    const McSchedule old =
        computeSchedule(c, s.oldSrc, s.srcSet, s.dst, s.dstSet);
    const DistDelta delta = computeDelta(s.oldSrc, s.newSrc, s.srcSet);
    EXPECT_LT(delta.migratedElements(), Scenario::kM);
    (void)patchSchedule(c, old, delta, s.newSrc, s.srcSet, s.dst, s.dstSet);
    const auto& ps = lastPatchStats();
    EXPECT_EQ(ps.elementsPatched, delta.migratedElements());
    // Somebody in the program reuses segments (a rank whose elements all
    // migrated may not — check the aggregate).
    const auto reused = c.allreduceValue(
        static_cast<Index>(ps.segmentsReused),
        [](Index a, Index b) { return a + b; });
    EXPECT_GT(reused, 0);
  });
}

// The destination side repartitions too: an HPF redistribution (cyclic ->
// block) patched against a mostly-full delta still matches the rebuild.
TEST(ScheduleDelta, DstSideRepartition) {
  World::runSPMD(kProcs, [](Comm& c) {
    Scenario s(c, 5u, 0);
    hpfrt::HpfArray<double> blockDst(
        c, hpfrt::HpfDist(Shape::of({Scenario::kM}),
                          {hpfrt::DimDist{hpfrt::DistKind::kBlock, c.size(),
                                          1}}));
    const DistObject newDst = HpfAdapter::describe(blockDst);
    const McSchedule old =
        computeSchedule(c, s.oldSrc, s.srcSet, s.dst, s.dstSet);
    const DistDelta delta = computeDelta(s.dst, newDst, s.dstSet);
    const McSchedule patched =
        patchSchedule(c, old, delta, s.oldSrc, s.srcSet, newDst, s.dstSet);
    const McSchedule fresh =
        computeSchedule(c, s.oldSrc, s.srcSet, newDst, s.dstSet);
    expectSchedEqual(patched, fresh);
  });
}

TEST(ScheduleDelta, ReversedSchedulesAreNotPatchable) {
  World::runSPMD(kProcs, [](Comm& c) {
    Scenario s(c, 2u, 0);
    const McSchedule old =
        computeSchedule(c, s.oldSrc, s.srcSet, s.dst, s.dstSet);
    EXPECT_TRUE(patchableSchedule(old, s.newSrc, s.dst));
    const McSchedule rev = reverseSchedule(old);
    EXPECT_FALSE(patchableSchedule(rev, s.newSrc, s.dst));
  });
}

// Executor results for patched and fresh schedules are bitwise equal to
// the copy-per-step reference executor (tests/oracles) on either schedule.
TEST(ScheduleDelta, ExecutionBitwiseAgainstReferenceExecutor) {
  World::runSPMD(kProcs, [](Comm& c) {
    Scenario s(c, 13u, 6);
    const McSchedule old =
        computeSchedule(c, s.oldSrc, s.srcSet, s.dst, s.dstSet);
    const DistDelta delta = computeDelta(s.oldSrc, s.newSrc, s.srcSet);
    const McSchedule patched =
        patchSchedule(c, old, delta, s.newSrc, s.srcSet, s.dst, s.dstSet);
    const McSchedule fresh =
        computeSchedule(c, s.newSrc, s.srcSet, s.dst, s.dstSet);
    const std::vector<double> oracle = s.referenceExecuted(c, fresh);
    const std::vector<double> viaPatched = s.executed(c, patched);
    const std::vector<double> viaFresh = s.executed(c, fresh);
    ASSERT_EQ(viaPatched.size(), oracle.size());
    ASSERT_EQ(viaFresh.size(), oracle.size());
    EXPECT_EQ(0, std::memcmp(viaPatched.data(), oracle.data(),
                             oracle.size() * sizeof(double)));
    EXPECT_EQ(0, std::memcmp(viaFresh.data(), oracle.data(),
                             oracle.size() * sizeof(double)));
    EXPECT_EQ(s.referenceExecuted(c, patched), oracle);
  });
}

// Both methods record the provenance the paper's pairing rule implies: the
// expanded send and receive streams equal the sequential linearization
// oracle's, and so do the plans.
TEST(ScheduleDelta, ProvenanceMatchesLinearizationOracle) {
  for (const Method method : {Method::kCooperation, Method::kDuplication}) {
    std::vector<std::string> mismatch(kProcs);
    World::runSPMD(kProcs, [&](Comm& c) {
      Scenario s(c, 17u, 4);
      const McSchedule built =
          computeSchedule(c, s.oldSrc, s.srcSet, s.dst, s.dstSet, method);
      const reference::RankSchedule want = reference::expectedIntra(
          reference::placementOf(s.oldSrc, s.srcSet),
          reference::placementOf(s.dst, s.dstSet), c.rank());
      mismatch[static_cast<std::size_t>(c.rank())] =
          reference::firstMismatch(built, want, /*provenance=*/true);
    });
    for (int r = 0; r < kProcs; ++r) {
      EXPECT_EQ(mismatch[static_cast<std::size_t>(r)], "")
          << (method == Method::kCooperation ? "coop" : "dup") << " rank "
          << r;
    }
  }
}

// ---------------------------------------------------------------------------
// computeDelta exactness against a brute-force enumerateAll diff.

TEST(ScheduleDelta, ComputeDeltaMatchesBruteForce) {
  World::runSPMD(kProcs, [](Comm& c) {
    for (const int moves : {0, 2, 7}) {
      Scenario s(c, 23u, moves);
      const DistDelta delta = computeDelta(s.oldSrc, s.newSrc, s.srcSet);
      const LibraryAdapter& lib = Registry::instance().get("chaos");
      std::vector<std::pair<int, Index>> oldMap(
          static_cast<std::size_t>(Scenario::kM));
      std::vector<std::pair<int, Index>> newMap(
          static_cast<std::size_t>(Scenario::kM));
      lib.enumerateAll(s.oldSrc, s.srcSet, [&](Index lin, int owner,
                                               Index off) {
        oldMap[static_cast<std::size_t>(lin)] = {owner, off};
      });
      lib.enumerateAll(s.newSrc, s.srcSet, [&](Index lin, int owner,
                                               Index off) {
        newMap[static_cast<std::size_t>(lin)] = {owner, off};
      });
      // Soundness: every genuinely changed position is marked.  (The
      // converse does not hold exactly — a stride-mismatched joined
      // segment is marked whole even when some of its positions coincide;
      // that over-approximation is part of the DistDelta contract.)
      Index changed = 0;
      for (Index lin = 0; lin < Scenario::kM; ++lin) {
        if (oldMap[static_cast<std::size_t>(lin)] !=
            newMap[static_cast<std::size_t>(lin)]) {
          EXPECT_TRUE(delta.contains(lin)) << "lin " << lin;
          ++changed;
        }
      }
      EXPECT_GE(delta.migratedElements(), changed);
      EXPECT_LE(delta.migratedElements(), Scenario::kM);
      if (moves == 0) {
        EXPECT_TRUE(delta.empty());
      }
    }
  });
}

// deltaFromMigratedIndices agrees with computeDelta on an index-list set
// (its elements ARE global indices), given the exact migrated set.
TEST(ScheduleDelta, DeltaFromMigratedIndicesAgrees) {
  World::runSPMD(kProcs, [](Comm& c) {
    const Index n = Scenario::kN;
    const Assignment oldA = basePartition(n, 31u);
    const Assignment newA = mutate(oldA, n, 6, 31u);
    auto oldArr = makeChaosArray(c, n, oldA, 0.0);
    auto newArr = makeChaosArray(c, n, newA, 0.0);
    const auto migrated = chaos::migratedGlobals(
        c, oldArr->myGlobals(), newArr->myGlobals(), n);
    EXPECT_FALSE(migrated.empty());
    EXPECT_TRUE(std::is_sorted(migrated.begin(), migrated.end()));
    // Identity set: lin == global index.
    SetOfRegions set;
    std::vector<Index> iota(static_cast<std::size_t>(n));
    std::iota(iota.begin(), iota.end(), Index{0});
    set.add(Region::indices(iota));
    const DistDelta fromIdx = deltaFromMigratedIndices(set, migrated);
    const DistDelta fromCmp = computeDelta(ChaosAdapter::describe(*oldArr),
                                           ChaosAdapter::describe(*newArr),
                                           set);
    EXPECT_EQ(fromIdx.intervals(), fromCmp.intervals());
  });
}

// ---------------------------------------------------------------------------
// The redistribution move migrates exactly the delta-marked payloads.

TEST(ScheduleDelta, RedistMoveMigratesPayloads) {
  World::runSPMD(kProcs, [](Comm& c) {
    const Index n = Scenario::kN;
    const Assignment oldA = basePartition(n, 41u);
    const Assignment newA = mutate(oldA, n, 8, 41u);
    auto oldArr = makeChaosArray(c, n, oldA, 700.0);
    auto newArr = makeChaosArray(c, n, newA, 0.0);
    const auto migrated = chaos::migratedGlobals(
        c, oldArr->myGlobals(), newArr->myGlobals(), n);
    SetOfRegions set;
    std::vector<Index> iota(static_cast<std::size_t>(n));
    std::iota(iota.begin(), iota.end(), Index{0});
    set.add(Region::indices(iota));
    const DistDelta delta = deltaFromMigratedIndices(set, migrated);
    const sched::Schedule move =
        buildRedistMove(c, ChaosAdapter::describe(*oldArr),
                        ChaosAdapter::describe(*newArr), set, delta);
    // Unmigrated elements keep (owner, offset): carry them by straight
    // copy, then let the move overwrite the migrated positions.
    newArr->fillByGlobal([](Index) { return -1.0; });
    const auto src = oldArr->raw();
    auto dst = newArr->raw();
    for (std::size_t i = 0; i < std::min(src.size(), dst.size()); ++i) {
      dst[i] = src[i];
    }
    sched::execute<double>(c, move, src, dst, c.nextUserTag());
    const auto gathered = newArr->gatherGlobal();
    for (Index g = 0; g < n; ++g) {
      EXPECT_EQ(gathered[static_cast<std::size_t>(g)],
                700.0 + static_cast<double>(g))
          << "global " << g;
    }
  });
}

// ---------------------------------------------------------------------------
// ScheduleCache::getOrPatch — patch on miss, delta-keyed secondary hits.

TEST(ScheduleDelta, GetOrPatchPatchesThenHits) {
  World::runSPMD(kProcs, [](Comm& c) {
    Scenario s(c, 29u, 4);
    ScheduleCache cache;
    const auto old =
        cache.getOrBuild(c, s.oldSrc, s.srcSet, s.dst, s.dstSet);
    const DistDelta delta = computeDelta(s.oldSrc, s.newSrc, s.srcSet);
    const auto patched =
        cache.getOrPatch(c, s.oldSrc, s.newSrc, s.srcSet, s.dst, s.dst,
                         s.dstSet, delta);
    EXPECT_EQ(cache.patches(), 1u);
    EXPECT_EQ(cache.patchFallbacks(), 0u);
    expectSchedEqual(*patched,
                     computeSchedule(c, s.newSrc, s.srcSet, s.dst, s.dstSet));
    // Second call: straight hit on the new-distributions key.
    const auto again =
        cache.getOrPatch(c, s.oldSrc, s.newSrc, s.srcSet, s.dst, s.dst,
                         s.dstSet, delta);
    EXPECT_EQ(again.get(), patched.get());
    EXPECT_EQ(cache.patches(), 1u);
    // getOrBuild of the new pair also hits — the patched entry was inserted
    // under the new distributions' primary key.
    const auto viaBuild =
        cache.getOrBuild(c, s.newSrc, s.srcSet, s.dst, s.dstSet);
    EXPECT_EQ(viaBuild.get(), patched.get());
    (void)old;
  });
}

TEST(ScheduleDelta, GetOrPatchFallsBackWithoutCachedOld) {
  World::runSPMD(kProcs, [](Comm& c) {
    Scenario s(c, 37u, 3);
    ScheduleCache cache;  // empty: nothing to patch from
    const DistDelta delta = computeDelta(s.oldSrc, s.newSrc, s.srcSet);
    const auto built =
        cache.getOrPatch(c, s.oldSrc, s.newSrc, s.srcSet, s.dst, s.dst,
                         s.dstSet, delta);
    EXPECT_EQ(cache.patches(), 0u);
    EXPECT_EQ(cache.patchFallbacks(), 1u);
    expectSchedEqual(*built,
                     computeSchedule(c, s.newSrc, s.srcSet, s.dst, s.dstSet));
  });
}

// ---------------------------------------------------------------------------
// Executor::rebind — same results as a fresh executor, buffers retained.

TEST(ScheduleDelta, RebindMatchesFreshExecutorAndKeepsBuffers) {
  World::runSPMD(kProcs, [](Comm& c) {
    Scenario s(c, 43u, 5);
    const McSchedule old =
        computeSchedule(c, s.oldSrc, s.srcSet, s.dst, s.dstSet);
    const DistDelta delta = computeDelta(s.oldSrc, s.newSrc, s.srcSet);
    const McSchedule patched =
        patchSchedule(c, old, delta, s.newSrc, s.srcSet, s.dst, s.dstSet);

    sched::Executor<double> ex(c, old.plan);
    s.dstArr->fillByPoint([](const Point&) { return -1.0; });
    ex.run(s.oldArr->raw(), s.dstArr->raw(), c.nextUserTag());

    ex.rebind(patched.plan);
    s.dstArr->fillByPoint([](const Point&) { return -1.0; });
    ex.run(s.newArr->raw(), s.dstArr->raw(), c.nextUserTag());
    const auto viaRebind = s.dstArr->gatherGlobal();

    // Warm steady state reached within one step: the next run performs no
    // payload allocations on any rank.
    const auto before = c.stats();
    s.dstArr->fillByPoint([](const Point&) { return -1.0; });
    ex.run(s.newArr->raw(), s.dstArr->raw(), c.nextUserTag());
    const auto diff = c.stats() - before;
    EXPECT_EQ(diff.allocations, 0u);

    // Bitwise identical to a never-rebound executor.
    sched::Executor<double> fresh(c, patched.plan);
    s.dstArr->fillByPoint([](const Point&) { return -1.0; });
    fresh.run(s.newArr->raw(), s.dstArr->raw(), c.nextUserTag());
    EXPECT_EQ(viaRebind, s.dstArr->gatherGlobal());
  });
}

// ---------------------------------------------------------------------------
// DerefCache::retarget — survivors carry across a remap, every migrant is
// upserted: rewritten in place when cached, inserted otherwise.

TEST(ScheduleDelta, DerefCacheRetargetKeepsSurvivors) {
  chaos::DerefCache cache;
  const std::vector<Index> keys = {2, 5, 9, 14};
  const std::vector<chaos::ElementLoc> locs = {
      {0, 10}, {1, 20}, {2, 30}, {3, 40}};
  const auto oldTable = std::make_shared<const int>(0);
  const auto newTable = std::make_shared<const int>(0);
  cache.insertSorted(9001, oldTable, keys, locs);
  // 5 moves to rank 2, 11 is not cached, 14 changes offset on its owner;
  // 2 and 9 stay.
  const std::vector<chaos::Migrant> migrants = {
      {5, 20, 7, 1, 2}, {11, 3, 4, 0, 1}, {14, 40, 41, 3, 3}};
  const auto before = chaos::derefCacheStats();
  EXPECT_TRUE(cache.retarget(9001, 9002, newTable, migrants));
  // The uncached migrant 11 was inserted.
  EXPECT_EQ(cache.entryCount(), 5u);
  EXPECT_EQ(chaos::derefCacheStats().retargetUpdated - before.retargetUpdated,
            2u);
  EXPECT_EQ(
      chaos::derefCacheStats().retargetInserted - before.retargetInserted,
      1u);
  EXPECT_EQ(chaos::derefCacheStats().insertions, before.insertions);
  // Old uid: everything misses (the shard was rekeyed).
  const std::vector<Index> probe = {2, 5, 9, 11, 14};
  std::vector<chaos::ElementLoc> out(probe.size());
  std::vector<std::uint8_t> hit(probe.size());
  EXPECT_EQ(cache.lookupSorted(9001, probe, out.data(), hit.data()), 0u);
  // New uid: survivors hit with their carried locations, every migrant
  // with its new one.
  EXPECT_EQ(cache.lookupSorted(9002, probe, out.data(), hit.data()), 5u);
  EXPECT_EQ(out[0], (chaos::ElementLoc{0, 10}));
  EXPECT_EQ(out[1], (chaos::ElementLoc{2, 7}));
  EXPECT_EQ(out[2], (chaos::ElementLoc{2, 30}));
  EXPECT_EQ(out[3], (chaos::ElementLoc{1, 4}));
  EXPECT_EQ(out[4], (chaos::ElementLoc{3, 41}));

  // A rank with no shard for the old table starts the new table's shard
  // with the migrants alone (nothing was carried over).
  EXPECT_FALSE(cache.retarget(9100, 9101, newTable, migrants));
  EXPECT_EQ(cache.entryCount(), 8u);
  EXPECT_EQ(cache.lookupSorted(9101, probe, out.data(), hit.data()), 3u);
  EXPECT_EQ(hit, (std::vector<std::uint8_t>{0, 1, 0, 1, 1}));
}

// Stats-diff regression: remap makes no translation-table dereference at
// all — the new table, the move schedule and the cache update all come from
// the migrant records — and hands the warm shard to the new table with
// every migrant upserted, so every cached entry still equals the new
// table's answer, every migrant hits, and the next inspector pass over the
// same references hits on every one of them, moved or not.
TEST(ScheduleDelta, RemapKeepsDerefCacheHitsForSurvivors) {
  World::runSPMD(kProcs, [](Comm& c) {
    const Index n = 64;
    const Assignment oldA = basePartition(n, 53u);
    const auto& myOld = oldA.mine[static_cast<std::size_t>(c.rank())];
    auto table = std::make_shared<const TranslationTable>(
        TranslationTable::build(c, myOld, n,
                                TranslationTable::Storage::kDistributed));
    IrregArray<double> arr(c, table, myOld);
    arr.fillByGlobal([](Index g) { return static_cast<double>(g); });

    // Warm the cache with this rank's own (old) globals.
    (void)table->dereferenceCached(c, myOld);

    // Remap with a small migration, slots kept stable.
    const Assignment newA = mutate(oldA, n, 4, 53u);
    std::vector<Index> migrated;
    const auto before = chaos::derefCacheStats();
    IrregArray<double> fresh =
        chaos::remap(arr, newA.mine[static_cast<std::size_t>(c.rank())],
                     TranslationTable::Storage::kDistributed, &migrated);
    const auto after = chaos::derefCacheStats();
    EXPECT_FALSE(migrated.empty());
    // A rank that shrank shifts its tail survivors, so the migrated set can
    // exceed the moved count — but stays well under the whole array.
    EXPECT_LT(static_cast<Index>(migrated.size()), n / 2);

    std::size_t myMigrated = 0;
    for (const Index g : myOld) {
      if (std::binary_search(migrated.begin(), migrated.end(), g)) {
        ++myMigrated;
      }
    }
    const std::size_t inserted = migrated.size() - myMigrated;
    EXPECT_EQ(after.retargets - before.retargets, 1u);
    EXPECT_EQ(after.retargetUpdated - before.retargetUpdated, myMigrated);
    EXPECT_EQ(after.retargetInserted - before.retargetInserted, inserted);
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.entries, before.entries + inserted);

    // Every cached entry equals an uncached dereference of the new table;
    // the cache holds the old part plus the migrants it did not hold.
    std::vector<Index> all(static_cast<std::size_t>(n));
    std::iota(all.begin(), all.end(), Index{0});
    const auto truth = fresh.table().dereference(c, all);
    std::vector<chaos::ElementLoc> cached(all.size());
    std::vector<std::uint8_t> hit(all.size());
    EXPECT_EQ(chaos::derefCache().lookupSorted(fresh.table().uid(), all,
                                               cached.data(), hit.data()),
              myOld.size() + inserted);
    for (std::size_t g = 0; g < all.size(); ++g) {
      if (hit[g]) {
        EXPECT_EQ(cached[g], truth[g]) << "global " << g;
      }
    }
    for (const Index g : migrated) {
      EXPECT_TRUE(hit[static_cast<std::size_t>(g)]) << "migrant " << g;
    }
    // The moved data arrived intact.
    const auto gathered = fresh.gatherGlobal();
    for (Index g = 0; g < n; ++g) {
      EXPECT_EQ(gathered[static_cast<std::size_t>(g)],
                static_cast<double>(g));
    }
  });
}

// ---------------------------------------------------------------------------
// The cache-resolved patch: remap seeds every migrant's new location, so the
// Meta-Chaos schedule patch that follows charges no dereference.

/// Every rank's part of an n-element assignment over np ranks, random.
std::vector<std::vector<Index>> randomParts(Index n, int np,
                                            std::mt19937& rng) {
  std::vector<std::vector<Index>> parts(static_cast<std::size_t>(np));
  std::uniform_int_distribution<int> owner(0, np - 1);
  for (Index g = 0; g < n; ++g) {
    parts[static_cast<std::size_t>(owner(rng))].push_back(g);
  }
  return parts;
}

/// `moves` random elements change owner; survivors keep their slots.
std::vector<std::vector<Index>> driftParts(
    const std::vector<std::vector<Index>>& old, Index n, int moves,
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
  std::vector<std::vector<Index>> next(static_cast<std::size_t>(np));
  for (Index g = 0; g < n; ++g) {
    next[static_cast<std::size_t>(owner[static_cast<std::size_t>(g)])]
        .push_back(g);
  }
  for (std::size_t r = 0; r < next.size(); ++r) {
    next[r] = chaos::stableRemapOrder(old[r], next[r]);
  }
  return next;
}

// Fuzzed drifts on 2-5 ranks with replicated tables, the Chaos array on
// either side of an HPF copy: remap -> deltaFromMigratedIndices ->
// getOrPatch gives computeSchedule's plans and provenance, makes no
// dereference-cache miss and charges no lookup.  Against a fresh table of
// the same assignment (a cold cache) the same patch charges one lookup per
// migrated position, 2 x cost x migrated / nprocs on the clock — what every
// patch charged before remap seeded the cache — and caches them.
TEST(ScheduleDelta, RemapSeededPatchChargesNoLookups) {
  using Storage = TranslationTable::Storage;
  std::size_t patchedPositions = 0;
  for (int np = 2; np <= 5; ++np) {
    World::runSPMD(np, [&](Comm& c) {
      for (int trial = 0; trial < 6; ++trial) {
        std::mt19937 rng(300u * static_cast<unsigned>(np) +
                         static_cast<unsigned>(trial));
        const Index n = 20 + 9 * trial;
        const double cost = 1e-6 * (1 + trial % 3);
        const bool chaosIsSrc = trial % 2 == 0;
        const auto oldParts = randomParts(n, np, rng);
        const auto newParts = driftParts(oldParts, n, 1 + trial % 4 + np, rng);
        const auto me = static_cast<std::size_t>(c.rank());

        auto table = std::make_shared<const TranslationTable>(
            TranslationTable::build(c, oldParts[me], n, Storage::kReplicated,
                                    cost));
        IrregArray<double> x(c, table, oldParts[me]);
        // The Chaos set: as a source it reads some globals twice.
        std::vector<Index> ids;
        const Index m = chaosIsSrc ? n + n / 4 : n;
        for (Index k = 0; k < m; ++k) {
          ids.push_back(chaosIsSrc ? (7 * k + 3) % n : (n - 1 - k));
        }
        SetOfRegions chaosSet;
        chaosSet.add(Region::indices(ids));
        hpfrt::HpfArray<double> h(
            c, hpfrt::HpfDist(Shape::of({m}),
                              {hpfrt::DimDist{hpfrt::DistKind::kBlock,
                                              c.size(), 1}}));
        SetOfRegions hpfSet;
        hpfSet.add(Region::section(RegularSection::of({0}, {m - 1}, {1})));
        const DistObject hObj = HpfAdapter::describe(h);
        const DistObject oldObj = ChaosAdapter::describe(x);

        ScheduleCache cache;
        const auto old =
            chaosIsSrc ? cache.getOrBuild(c, oldObj, chaosSet, hObj, hpfSet)
                       : cache.getOrBuild(c, hObj, hpfSet, oldObj, chaosSet);
        std::vector<Index> migrated;
        IrregArray<double> y =
            chaos::remap(x, newParts[me], Storage::kReplicated, &migrated);
        const DistObject newObj = ChaosAdapter::describe(y);
        const DistDelta delta = deltaFromMigratedIndices(chaosSet, migrated);

        const auto before = chaos::derefCacheStats();
        const auto patched =
            chaosIsSrc ? cache.getOrPatch(c, oldObj, newObj, chaosSet, hObj,
                                          hObj, hpfSet, delta)
                       : cache.getOrPatch(c, hObj, hObj, hpfSet, oldObj,
                                          newObj, chaosSet, delta);
        const PatchStats stats = lastPatchStats();
        EXPECT_EQ(cache.patches(), 1u);
        EXPECT_EQ(chaos::derefCacheStats().misses, before.misses);
        EXPECT_EQ(stats.lookupsCharged, 0);
        EXPECT_EQ(stats.lookupSeconds, 0.0);
        const McSchedule fresh =
            chaosIsSrc ? computeSchedule(c, newObj, chaosSet, hObj, hpfSet)
                       : computeSchedule(c, hObj, hpfSet, newObj, chaosSet);
        expectSchedEqual(*patched, fresh);

        // Cold cache: a fresh table of the same assignment has no shard.
        const auto coldTable = std::make_shared<const TranslationTable>(
            TranslationTable::build(c, newParts[me], n, Storage::kReplicated,
                                    cost));
        const DistObject coldObj("chaos", coldTable);
        const auto coldPatch = [&] {
          return chaosIsSrc ? patchSchedule(c, *old, delta, coldObj, chaosSet,
                                            hObj, hpfSet)
                            : patchSchedule(c, *old, delta, hObj, hpfSet,
                                            coldObj, chaosSet);
        };
        expectSchedEqual(coldPatch(), fresh);
        const Index positions = delta.migratedElements();
        EXPECT_EQ(lastPatchStats().lookupsCharged, positions);
        EXPECT_DOUBLE_EQ(lastPatchStats().lookupSeconds,
                         2.0 * cost * static_cast<double>(positions) /
                             c.size());
        // Its misses were cached: patching again charges nothing.
        expectSchedEqual(coldPatch(), fresh);
        EXPECT_EQ(lastPatchStats().lookupsCharged, 0);
        if (c.rank() == 0) patchedPositions += static_cast<std::size_t>(positions);
      }
    });
  }
  EXPECT_GT(patchedPositions, 0u);
}

// The Chaos side of a patch takes each migrated position's location from
// the rank's dereference cache, not from the table: a (deliberately wrong)
// cached entry is what the runs carry, and only the misses are charged.
TEST(ScheduleDelta, ChaosDeltaRunsComeFromTheCache) {
  World::runSPMD(2, [](Comm& c) {
    const Index n = 8;
    const std::vector<Index> mine =
        c.rank() == 0 ? std::vector<Index>{0, 1, 2, 3}
                      : std::vector<Index>{4, 5, 6, 7};
    const auto table = std::make_shared<const TranslationTable>(
        TranslationTable::build(c, mine, n,
                                TranslationTable::Storage::kReplicated, 1e-6));
    const std::vector<Index> poisoned = {5};
    const std::vector<chaos::ElementLoc> wrong = {{0, 99}};
    chaos::derefCache().insertSorted(table->uid(), table->liveness(),
                                     poisoned, wrong);
    SetOfRegions set;
    set.add(Region::indices({7, 5, 6, 1}));
    DistDelta delta;
    delta.add(1, 4);  // globals 5, 6, 1
    std::vector<LinRun> runs;
    std::vector<int> owners;
    const LookupCharge charge = ChaosAdapter{}.enumerateDeltaRuns(
        DistObject("chaos", table), set, delta,
        [&](Index lin, int owner, Index off, Index count, Index stride) {
          runs.push_back(LinRun{lin, off, count, stride});
          owners.push_back(owner);
        });
    EXPECT_EQ(charge.lookups, 2);
    EXPECT_DOUBLE_EQ(charge.seconds, 2e-6);
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[0], (LinRun{1, 99, 1, 0}));
    EXPECT_EQ(owners[0], 0);
    EXPECT_EQ(runs[1], (LinRun{2, 2, 1, 0}));
    EXPECT_EQ(owners[1], 1);
    EXPECT_EQ(runs[2], (LinRun{3, 1, 1, 0}));
    EXPECT_EQ(owners[2], 0);
  });
}

}  // namespace
}  // namespace mc::core
