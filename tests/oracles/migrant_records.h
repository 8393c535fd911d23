// Full-routing migrant records, kept as the oracle of chaos::migrantRecords.
//
// This is the pre-delta formulation: every slot of both assignments travels
// to its block-home rank (two all-to-alls of each rank's whole old and new
// part), the home fills one claim table per assignment and compares them
// slot by slot, and the records are allgathered.  chaos::migrantRecords
// routes only the changed slots plus a bitmap of the unchanged ones; the
// differential fuzz in test_remap_merge checks that both give the same
// records, or raise the same error, on complete, partial and duplicated
// assignments.  Header-only (target mc_oracles); src/ never includes it.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "chaos/ttable.h"
#include "transport/comm.h"

namespace mc::chaos::reference {

/// chaos::migrantRecords by routing every assignment entry to its home.
inline std::vector<Migrant> migrantRecords(
    transport::Comm& comm, std::span<const layout::Index> oldMine,
    std::span<const layout::Index> newMine, layout::Index globalSize) {
  using layout::Index;
  struct GlobalOffset {
    Index g = 0;
    Index off = 0;
  };
  const int nprocs = comm.size();
  const Index homeBlock =
      std::max<Index>(1, (globalSize + nprocs - 1) / nprocs);
  const auto routeToHomes = [&](std::span<const Index> mine) {
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
  };
  auto oldAt = comm.alltoall(routeToHomes(oldMine));
  auto newAt = comm.alltoall(routeToHomes(newMine));

  const Index myLo = std::min(globalSize, homeBlock * comm.rank());
  const Index myHi = std::min(globalSize, myLo + homeBlock);
  const auto claimsAt = [&](const std::vector<std::vector<GlobalOffset>>& by) {
    std::vector<ElementLoc> loc(static_cast<std::size_t>(myHi - myLo));
    for (std::size_t r = 0; r < by.size(); ++r) {
      for (const GlobalOffset& e : by[r]) {
        ElementLoc& slot = loc[static_cast<std::size_t>(e.g - myLo)];
        MC_REQUIRE(slot.proc == -1, "global index %lld owned twice",
                   static_cast<long long>(e.g));
        slot = ElementLoc{static_cast<int>(r), e.off};
      }
    }
    return loc;
  };
  const std::vector<ElementLoc> oldLoc = claimsAt(oldAt);
  const std::vector<ElementLoc> newLoc = claimsAt(newAt);
  std::vector<Migrant> mine;
  for (Index g = myLo; g < myHi; ++g) {
    const ElementLoc& a = oldLoc[static_cast<std::size_t>(g - myLo)];
    const ElementLoc& b = newLoc[static_cast<std::size_t>(g - myLo)];
    if (!(a == b)) {
      mine.push_back(Migrant{g, a.offset, b.offset, a.proc, b.proc});
    }
  }
  auto rows = comm.allgather<Migrant>(std::span<const Migrant>(mine));
  std::vector<Migrant> migrants;
  for (const std::vector<Migrant>& row : rows) {
    migrants.insert(migrants.end(), row.begin(), row.end());
  }
  return migrants;
}

}  // namespace mc::chaos::reference
