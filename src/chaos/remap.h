// Remap: move an irregular array to a new partitioning.
//
// Adaptive irregular applications repartition as the computation evolves
// (Chaos was built for exactly this: "runtime and language support for
// compiling adaptive irregular programs").  Most elements usually stay put,
// so remap() works from the migrant set alone.  One collective exchange
// (chaos::migrantRecords: one all-to-all of the changed slots to the
// block-home ranks and one allgather of the records) gives every rank each
// migrant's old and new (owner, offset).  From those records, locally:
//  * the new translation table is the old one patched
//    (TranslationTable::patched) — no rebuild, no table allgather unless
//    the storage changes from distributed to replicated;
//  * the move schedule pairs survivors i -> i locally and sends/receives
//    the migrants in global-index order on both sides — no alltoall and no
//    translation-table dereference;
//  * the dereference cache's shard passes to the new table with every
//    migrant upserted at its new location (DerefCache::retarget), so an
//    inspector pass after the remap hits on everything it cached before,
//    and a schedule patch over the migrated positions
//    (core::patchSchedule) resolves every one of them from the cache.
// Schedules built against the old distribution (localize results,
// Meta-Chaos schedules) are invalidated by a remap and must be rebuilt or
// *patched*: the optional `migratedOut` hands back the sorted migrated
// global indices, ready for core::deltaFromMigratedIndices and
// core::patchSchedule.  Pass the new assignment through
// chaos::stableRemapOrder to keep survivors at their old offsets —
// otherwise a one-element boundary shift migrates everything.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "chaos/deref_cache.h"
#include "chaos/irreg_array.h"
#include "chaos/migration.h"
#include "chaos/ttable.h"
#include "sched/executor.h"
#include "sched/schedule.h"

namespace mc::chaos {

/// The inspector half of remap(): the new table, the move schedule (old
/// local storage -> new local storage) and the migrant records.
struct RemapPlan {
  std::shared_ptr<const TranslationTable> table;
  sched::Schedule move;
  std::vector<Migrant> migrants;
};

/// Collective.  `oldMine` must be the assignment `oldTable` was built from
/// and `newMine` a complete, duplicate-free assignment of the same global
/// indices: an index claimed twice raises "owned twice" on its home rank,
/// one left out raises "unowned".  Hands the dereference cache's shard to
/// the new table with every migrant upserted (DerefCache::retarget, its
/// CPU charged to the clock) and counts the migrants in the rank's
/// chaos.remap.migrants counter.
RemapPlan planRemap(transport::Comm& comm, const TranslationTable& oldTable,
                    std::span<const layout::Index> oldMine,
                    std::span<const layout::Index> newMine,
                    TranslationTable::Storage storage);

/// Collective: every processor passes the global indices it will own
/// *after* the remap (the new partitioner's assignment, local order).
/// Returns the array under the new distribution; `old` keeps its data and
/// distribution (caller discards it when done).  When `migratedOut` is
/// non-null it receives the sorted global indices whose (owner, offset)
/// changed — the DistDelta feed for patching dependent schedules.
template <typename T>
IrregArray<T> remap(const IrregArray<T>& old,
                    std::vector<layout::Index> newMine,
                    TranslationTable::Storage storage,
                    std::vector<layout::Index>* migratedOut) {
  transport::Comm& comm = old.comm();
  const RemapPlan plan =
      planRemap(comm, old.table(), old.myGlobals(), newMine, storage);
  IrregArray<T> fresh(comm, plan.table, std::move(newMine));
  sched::execute<T>(comm, plan.move, old.raw(), fresh.raw(),
                    comm.nextUserTag());
  if (migratedOut != nullptr) {
    migratedOut->clear();
    migratedOut->reserve(plan.migrants.size());
    for (const Migrant& m : plan.migrants) migratedOut->push_back(m.global);
  }
  return fresh;
}

template <typename T>
IrregArray<T> remap(const IrregArray<T>& old,
                    std::vector<layout::Index> newMine,
                    TranslationTable::Storage storage) {
  return remap(old, std::move(newMine), storage, nullptr);
}

}  // namespace mc::chaos
