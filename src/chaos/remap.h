// Remap: move an irregular array to a new partitioning.
//
// Adaptive irregular applications repartition as the computation evolves
// (Chaos was built for exactly this: "runtime and language support for
// compiling adaptive irregular programs").  remap() builds the new
// translation table, derives the old-owner -> new-owner schedule through
// the existing copy machinery, moves the data, and returns the array under
// its new distribution.  Schedules built against the old distribution
// (localize results, Meta-Chaos schedules) are invalidated by a remap and
// must be rebuilt or *patched*: the optional `migratedOut` hands back the
// sorted migrated global indices, ready for core::deltaFromMigratedIndices
// and core::patchSchedule.
//
// The dereference cache survives a remap selectively: only entries whose
// (owner, offset) actually changed are dropped (DerefCache::retarget); the
// rest carry over to the new table's shard, so an inspector pass after an
// unrelated remap still hits.  Pass the new assignment through
// chaos::stableRemapOrder to keep survivors at their old offsets —
// otherwise a one-element boundary shift migrates everything.
#pragma once

#include "chaos/deref_cache.h"
#include "chaos/irreg_copy.h"
#include "chaos/irreg_array.h"
#include "chaos/migration.h"
#include "sched/executor.h"

namespace mc::chaos {

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
  // Which elements actually move?  Computed against the assignment before
  // it is consumed by the new array below.
  std::vector<layout::Index> migrated =
      migratedGlobals(comm, old.myGlobals(), newMine, old.globalSize());
  auto newTable = std::make_shared<const TranslationTable>(
      TranslationTable::build(comm, newMine, old.globalSize(), storage,
                              old.table().modeledQueryCost()));
  // Selective invalidation, *before* the copy-schedule build dereferences
  // the new table: survivors resolve identically under it (unmigrated
  // means identical (owner, offset)), so they are carried into the new
  // table's shard and the build's own dereferences already hit.
  derefCache().retarget(old.table().uid(), newTable->uid(),
                        newTable->liveness(), migrated);
  IrregArray<T> fresh(comm, newTable, std::move(newMine));
  // Mapping: my old element at offset i (global g) goes to new location of
  // the same global index g.
  const auto myOld = old.myGlobals();
  std::vector<layout::Index> srcOffsets(myOld.size());
  std::vector<layout::Index> dstGlobals(myOld.begin(), myOld.end());
  for (size_t i = 0; i < myOld.size(); ++i) {
    srcOffsets[i] = static_cast<layout::Index>(i);
  }
  const sched::Schedule sched =
      buildIrregCopySchedule(comm, *newTable, srcOffsets, dstGlobals);
  sched::execute<T>(comm, sched, old.raw(), fresh.raw(), comm.nextUserTag());
  if (migratedOut != nullptr) *migratedOut = std::move(migrated);
  return fresh;
}

template <typename T>
IrregArray<T> remap(const IrregArray<T>& old,
                    std::vector<layout::Index> newMine,
                    TranslationTable::Storage storage) {
  return remap(old, std::move(newMine), storage, nullptr);
}

}  // namespace mc::chaos
