#include "chaos/remap.h"

#include <numeric>

#include "chaos/deref_cache.h"
#include "chaos/migration.h"
#include "obs/metrics.h"

namespace mc::chaos {

using layout::Index;

namespace {

thread_local std::uint64_t g_remapMigrants = 0;

void ensureRemapMetrics() {
  obs::MetricsRegistry& reg = obs::threadRegistry();
  if (reg.has("chaos.remap.migrants")) return;
  reg.registerCounter("chaos.remap.migrants", [] {
    return static_cast<double>(g_remapMigrants);
  });
}

/// The data move of a remap, from the migrant records alone.  An old slot
/// that no record names keeps its (owner, offset), so it copies i -> i.
/// Migrants cross in record (global-index) order on both sides, so sender
/// and receiver agree on the element order without exchanging it.
sched::Schedule moveSchedule(int me, int nprocs, Index oldCount,
                             std::span<const Migrant> migrants) {
  std::vector<Index> landsAt(static_cast<std::size_t>(oldCount));
  std::iota(landsAt.begin(), landsAt.end(), Index{0});
  std::vector<std::vector<Index>> sendOff(static_cast<std::size_t>(nprocs));
  std::vector<std::vector<Index>> recvOff(static_cast<std::size_t>(nprocs));
  for (const Migrant& m : migrants) {
    if (m.fromProc == me) {
      Index& lands = landsAt[static_cast<std::size_t>(m.fromOffset)];
      if (m.toProc == me) {
        lands = m.toOffset;
      } else {
        lands = -1;
        sendOff[static_cast<std::size_t>(m.toProc)].push_back(m.fromOffset);
      }
    } else if (m.toProc == me) {
      recvOff[static_cast<std::size_t>(m.fromProc)].push_back(m.toOffset);
    }
  }
  sched::Schedule out;
  for (Index i = 0; i < oldCount; ++i) {
    const Index to = landsAt[static_cast<std::size_t>(i)];
    if (to >= 0) out.localPairs.emplace_back(i, to);
  }
  for (int q = 0; q < nprocs; ++q) {
    const auto qq = static_cast<std::size_t>(q);
    if (!sendOff[qq].empty()) {
      out.sends.push_back(sched::OffsetPlan{q, std::move(sendOff[qq]), {}});
    }
    if (!recvOff[qq].empty()) {
      out.recvs.push_back(sched::OffsetPlan{q, std::move(recvOff[qq]), {}});
    }
  }
  return out;
}

}  // namespace

RemapPlan planRemap(transport::Comm& comm, const TranslationTable& oldTable,
                    std::span<const Index> oldMine,
                    std::span<const Index> newMine,
                    TranslationTable::Storage storage) {
  ensureRemapMetrics();
  RemapPlan plan;
  plan.migrants =
      migrantRecords(comm, oldMine, newMine, oldTable.globalSize());
  plan.table = std::make_shared<const TranslationTable>(
      oldTable.patched(comm, plan.migrants, storage));
  // Every rank holds every record, so seeding the cache with each
  // migrant's new location costs only this merge's CPU.
  comm.compute([&] {
    derefCache().retarget(oldTable.uid(), plan.table->uid(),
                          plan.table->liveness(), plan.migrants);
  });
  plan.move = comm.computeValue([&] {
    return moveSchedule(comm.rank(), comm.size(),
                        static_cast<Index>(oldMine.size()), plan.migrants);
  });
  g_remapMigrants += plan.migrants.size();
  return plan;
}

}  // namespace mc::chaos
