// Per-rank dereference cache for translation-table lookups.
//
// Inspector phases dereference the same off-processor references over and
// over: every schedule build against a translation table re-asks the
// table's home processors for (owner, localOffset) pairs that have not
// changed since the last build.  The cache memoizes resolved locations per
// rank (thread_local — each virtual processor has its own), keyed by the
// table's process-unique uid(), so repeated inspector calls resolve
// entirely locally and only genuinely new references travel.
//
// Invalidation contract: a table's entries are immutable after build, so a
// cached location can only go stale when the *data* migrates — i.e. at
// chaos::remap, which hands the old table's shard to the new table on every
// participating rank (remap is collective, so the hand-over is too) and
// upserts every migrant from the remap's migrant records (retarget): cached
// migrants are rewritten in place, the rest are inserted.  Every rank holds
// every record already, so the upsert sends nothing.  Every entry that
// survives a remap therefore equals what the new table would answer, every
// migrant is cached afterwards (a schedule patch over the migrated
// positions resolves without a miss), and remap itself dereferences
// nothing.  uids are minted from a monotone process-wide counter and never
// reused; a new table that happens to live at a recycled address cannot
// alias a stale shard.
//
// Lifetime: each shard holds its table's liveness token weakly
// (TranslationTable::liveness); once the last copy of a table dies, the
// next insert on this rank prunes its shard.  Pruning is lazy because the
// cache is per-thread and a table may die on any thread.
//
// Storage is a sorted parallel array per table (globals ascending +
// locations), probed with narrowing binary searches over a sorted query
// batch and grown by linear merges — no per-element hashing anywhere.
// Stats live in a plain thread_local POD surfaced through the obs
// MetricsRegistry as localize.deref_cache.* counters; the samplers touch
// only the POD, so they stay valid whatever order thread_locals die in.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "chaos/ttable.h"
#include "layout/index.h"

namespace mc::chaos {

/// Monotone per-rank cache telemetry (entries is the current size).
struct DerefCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;     // entries added by insertSorted
  std::uint64_t invalidations = 0;  // shards dropped by invalidate()
  std::uint64_t evictions = 0;      // entries dropped by the capacity cap
  std::uint64_t entries = 0;        // current resident entries (gauge)
  std::uint64_t retargets = 0;      // shards carried across a remap
  std::uint64_t retargetUpdated = 0;   // migrant entries rewritten by retarget
  std::uint64_t retargetInserted = 0;  // migrant entries added by retarget
  std::uint64_t expired = 0;  // entries pruned because their table died
};

const DerefCacheStats& derefCacheStats();

class DerefCache {
 public:
  /// Resident-entry cap per rank (~48 MiB of (Index, ElementLoc) pairs at
  /// the default).  An insert that would exceed it evicts whole shards,
  /// oldest table first.
  static constexpr std::size_t kMaxEntries = std::size_t{1} << 21;

  /// Probes one table's shard with a sorted, duplicate-free query batch.
  /// For query i: hit[i] = 1 and out[i] is filled on a hit, hit[i] = 0
  /// otherwise.  Returns the hit count; bumps hits/misses.
  std::size_t lookupSorted(std::uint64_t uid,
                           std::span<const layout::Index> sortedGlobals,
                           ElementLoc* out, std::uint8_t* hit);

  /// Merges freshly resolved locations into the table's shard.  `globals`
  /// must be sorted, duplicate-free, and disjoint from the shard (i.e. the
  /// misses of a preceding lookupSorted).  `live` is the table's liveness
  /// token; shards whose token has expired are pruned first.
  void insertSorted(std::uint64_t uid, std::weak_ptr<const void> live,
                    std::span<const layout::Index> globals,
                    std::span<const ElementLoc> locs);

  /// Drops every entry cached for the table; returns true if any existed.
  bool invalidate(std::uint64_t uid);

  /// Remap hand-over: rekeys the old table's shard to the new table's uid
  /// and upserts every record of `sortedMigrants` (sorted by global —
  /// chaos::migrantRecords) with its new (owner, offset): cached migrants
  /// are rewritten, the others inserted (a rank with no shard for the old
  /// table starts the new table's shard with the migrants alone).  Every
  /// migrant must have a new owner (a complete new assignment, as
  /// TranslationTable::patched checks).  Survivors resolve identically
  /// under the new table by the migrant-set contract, so after the
  /// hand-over every cached entry equals the new table's answer, every
  /// migrant hits, and later inspector passes hit on every reference cached
  /// before the remap, moved or not.  The shard takes `newLive`, the new
  /// table's liveness token.  Returns true when a shard was carried over.
  bool retarget(std::uint64_t oldUid, std::uint64_t newUid,
                std::weak_ptr<const void> newLive,
                std::span<const Migrant> sortedMigrants);

  void clear();

  std::size_t entryCount() const { return total_; }

 private:
  struct Shard {
    std::uint64_t uid = 0;
    std::weak_ptr<const void> live;   // expires with the table's last copy
    std::vector<layout::Index> keys;  // sorted ascending
    std::vector<ElementLoc> locs;     // parallel to keys
  };

  Shard* findShard(std::uint64_t uid);
  /// Merges sorted entries absent from the table's shard into it, making
  /// room under the cap first; insertSorted and retarget share it.
  void mergeSorted(std::uint64_t uid, std::weak_ptr<const void> live,
                   std::span<const layout::Index> globals,
                   std::span<const ElementLoc> locs);
  /// Drops the shards of tables that no longer exist.
  void pruneExpired();

  // Few live tables per rank in practice: a linear scan beats a hash map.
  // Insertion order is retained so capacity eviction drops oldest first.
  std::vector<Shard> shards_;
  std::size_t total_ = 0;
};

/// The calling rank's cache (each virtual processor is a thread).
DerefCache& derefCache();

/// Registers the localize.deref_cache.* samplers into the rank's registry
/// (idempotent).
void ensureLocalizeMetrics();

}  // namespace mc::chaos
