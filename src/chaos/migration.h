// Migration analysis for adaptive repartitioning.
//
// An adaptive application re-partitions as its load evolves (RCB after
// particle drift, client grow/shrink).  Rebuilding every inspector product
// from scratch on each repartitioning wastes the observation that most
// elements usually stay put.  This module derives the *migrated set* — the
// global indices whose (owner, local offset) actually changed — which is
// what feeds the delta-schedule machinery (core::deltaFromMigratedIndices,
// core::patchSchedule).  Its record form (migrantRecords) also carries each
// migrant's old and new (owner, offset), which is all chaos::remap needs to
// patch the translation table, schedule the data move and update the
// dereference cache (DerefCache::retarget) without a table dereference.
//
// It also provides the slot policy that keeps the migrated set small:
// stableRemapOrder re-orders a partitioner's raw assignment so that
// surviving elements keep their local offsets.  Partitioners emit local
// order ascending-by-global-index; after even a tiny boundary shift that
// ordering shifts *every* element's offset and the "delta" becomes the
// whole array.  With stable slots, only genuine arrivals/departures count.
#pragma once

#include <span>
#include <vector>

#include "chaos/ttable.h"
#include "layout/index.h"
#include "transport/comm.h"

namespace mc::chaos {

/// Collective: one record per global index whose (owner, local offset)
/// differs between the old assignment (`oldMine`, this rank's elements in
/// local order) and the new one (`newMine`), with both locations.  Indices
/// owned in only one of the two assignments count as migrated (the other
/// side's proc is -1).  Every rank returns the same records, sorted by
/// global index.  Each index's block-home rank compares the two claims.
/// Only slots whose content changed travel (slot i with oldMine[i] !=
/// newMine[i], or present in one assignment only): the old occupant as a
/// vacate, the new one as a claim; each rank also sends each home a bitmap
/// of the home-slice indices it holds in an unchanged slot.  An index is a
/// migrant iff no rank holds it unchanged and its vacate and claim differ.
/// One all-to-all and one allgather of the records, however irregular the
/// distributions.  An index held twice in one assignment (unchanged
/// holders plus claims) raises "global index g owned twice" on its home
/// rank, or on the holder when both copies sit in unchanged slots of one
/// rank; one outside [0, globalSize) raises "out of range" on the rank
/// that claims it.
std::vector<Migrant> migrantRecords(transport::Comm& comm,
                                    std::span<const layout::Index> oldMine,
                                    std::span<const layout::Index> newMine,
                                    layout::Index globalSize);

/// Collective: the global indices of migrantRecords — sorted,
/// duplicate-free, the same vector on every rank.
std::vector<layout::Index> migratedGlobals(transport::Comm& comm,
                                           std::span<const layout::Index> oldMine,
                                           std::span<const layout::Index> newMine,
                                           layout::Index globalSize);

/// Re-orders a new local assignment to minimize offset churn against the
/// old one: surviving elements keep their old slots, arrivals fill the
/// departures' slots in place (ascending), extras append, and when the
/// assignment shrinks the tail compacts.  The result is a permutation of
/// `newMineAnyOrder`.  Local (no communication).
std::vector<layout::Index> stableRemapOrder(
    std::span<const layout::Index> oldMine,
    std::span<const layout::Index> newMineAnyOrder);

}  // namespace mc::chaos
