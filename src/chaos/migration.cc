#include "chaos/migration.h"

#include <algorithm>

namespace mc::chaos {

using layout::Index;

namespace {

/// One routed assignment entry: global index + the local offset its owner
/// holds it at (the owner is implied by the alltoall source row).
struct GlobalOffset {
  Index g = 0;
  Index off = 0;
};

/// Routes an assignment to block-home ranks: home(g) = g / homeBlock.
std::vector<std::vector<GlobalOffset>> routeToHomes(
    std::span<const Index> mine, Index globalSize, Index homeBlock,
    int nprocs) {
  std::vector<std::vector<GlobalOffset>> rows(
      static_cast<std::size_t>(nprocs));
  for (std::size_t i = 0; i < mine.size(); ++i) {
    const Index g = mine[i];
    MC_REQUIRE(g >= 0 && g < globalSize, "global index %lld out of range",
               static_cast<long long>(g));
    rows[static_cast<std::size_t>(g / homeBlock)].push_back(
        GlobalOffset{g, static_cast<Index>(i)});
  }
  return rows;
}

/// Each home-slice slot's claim in one assignment; proc -1 = unclaimed.
std::vector<ElementLoc> claimsAt(
    const std::vector<std::vector<GlobalOffset>>& byRank, Index myLo,
    Index myHi) {
  std::vector<ElementLoc> loc(static_cast<std::size_t>(myHi - myLo));
  for (std::size_t r = 0; r < byRank.size(); ++r) {
    for (const GlobalOffset& e : byRank[r]) {
      ElementLoc& slot = loc[static_cast<std::size_t>(e.g - myLo)];
      MC_REQUIRE(slot.proc == -1, "global index %lld owned twice",
                 static_cast<long long>(e.g));
      slot = ElementLoc{static_cast<int>(r), e.off};
    }
  }
  return loc;
}

}  // namespace

std::vector<Migrant> migrantRecords(transport::Comm& comm,
                                    std::span<const Index> oldMine,
                                    std::span<const Index> newMine,
                                    Index globalSize) {
  const int nprocs = comm.size();
  const Index homeBlock =
      std::max<Index>(1, (globalSize + nprocs - 1) / nprocs);
  auto oldAt =
      comm.alltoall(routeToHomes(oldMine, globalSize, homeBlock, nprocs));
  auto newAt =
      comm.alltoall(routeToHomes(newMine, globalSize, homeBlock, nprocs));

  const Index myLo = std::min(globalSize, homeBlock * comm.rank());
  const Index myHi = std::min(globalSize, myLo + homeBlock);
  const std::vector<ElementLoc> oldLoc = claimsAt(oldAt, myLo, myHi);
  const std::vector<ElementLoc> newLoc = claimsAt(newAt, myLo, myHi);
  std::vector<Migrant> mine;
  for (Index g = myLo; g < myHi; ++g) {
    const ElementLoc& a = oldLoc[static_cast<std::size_t>(g - myLo)];
    const ElementLoc& b = newLoc[static_cast<std::size_t>(g - myLo)];
    if (!(a == b)) {
      mine.push_back(Migrant{g, a.offset, b.offset, a.proc, b.proc});
    }
  }
  // Home ranges ascend with rank, so concatenating the rows in rank order
  // yields the globally sorted records directly.
  auto rows = comm.allgather<Migrant>(std::span<const Migrant>(mine));
  std::vector<Migrant> migrants;
  for (const std::vector<Migrant>& row : rows) {
    migrants.insert(migrants.end(), row.begin(), row.end());
  }
  return migrants;
}

std::vector<Index> migratedGlobals(transport::Comm& comm,
                                   std::span<const Index> oldMine,
                                   std::span<const Index> newMine,
                                   Index globalSize) {
  const std::vector<Migrant> migrants =
      migrantRecords(comm, oldMine, newMine, globalSize);
  std::vector<Index> migrated;
  migrated.reserve(migrants.size());
  for (const Migrant& m : migrants) migrated.push_back(m.global);
  return migrated;
}

std::vector<Index> stableRemapOrder(std::span<const Index> oldMine,
                                    std::span<const Index> newMineAnyOrder) {
  std::vector<Index> oldSorted(oldMine.begin(), oldMine.end());
  std::sort(oldSorted.begin(), oldSorted.end());
  std::vector<Index> newSorted(newMineAnyOrder.begin(),
                               newMineAnyOrder.end());
  std::sort(newSorted.begin(), newSorted.end());
  const auto inOld = [&](Index g) {
    return std::binary_search(oldSorted.begin(), oldSorted.end(), g);
  };
  const auto inNew = [&](Index g) {
    return std::binary_search(newSorted.begin(), newSorted.end(), g);
  };
  std::vector<Index> arrivals;
  for (const Index g : newSorted) {
    if (!inOld(g)) arrivals.push_back(g);
  }
  std::vector<Index> out;
  out.reserve(newSorted.size());
  std::size_t a = 0;
  for (const Index g : oldMine) {
    if (inNew(g)) {
      out.push_back(g);  // survivor keeps its slot
    } else if (a < arrivals.size()) {
      out.push_back(arrivals[a++]);  // departure's slot reused in place
    }
    // else: the assignment shrank past this slot; later survivors shift
    // left — unavoidable without holes in the local buffer.
  }
  for (; a < arrivals.size(); ++a) out.push_back(arrivals[a]);
  return out;
}

}  // namespace mc::chaos
