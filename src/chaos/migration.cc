#include "chaos/migration.h"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace mc::chaos {

using layout::Index;

namespace {

/// Checks that every index of an assignment is a valid global index.
void requireInRange(std::span<const Index> mine, Index globalSize) {
  for (const Index g : mine) {
    MC_REQUIRE(g >= 0 && g < globalSize, "global index %lld out of range",
               static_cast<long long>(g));
  }
}

/// One rank's assignment change as seen by one home rank, flattened for
/// the all-to-all: [#vacates, #claims, (g, off) per vacate, (g, off) per
/// claim, kept-bitmap words].  A vacate is the old occupant of a slot whose
/// content changed, a claim the new one; the bitmap (absent when empty)
/// marks the home-slice indices this rank holds in an unchanged slot.
struct HomeRow {
  std::vector<Index> vacates;  // (g, off) pairs
  std::vector<Index> claims;   // (g, off) pairs
  std::vector<std::uint64_t> kept;

  std::vector<Index> flatten() const {
    std::vector<Index> out;
    out.reserve(2 + vacates.size() + claims.size() + kept.size());
    out.push_back(static_cast<Index>(vacates.size() / 2));
    out.push_back(static_cast<Index>(claims.size() / 2));
    out.insert(out.end(), vacates.begin(), vacates.end());
    out.insert(out.end(), claims.begin(), claims.end());
    for (const std::uint64_t w : kept) out.push_back(static_cast<Index>(w));
    return out;
  }
};

}  // namespace

std::vector<Migrant> migrantRecords(transport::Comm& comm,
                                    std::span<const Index> oldMine,
                                    std::span<const Index> newMine,
                                    Index globalSize) {
  requireInRange(oldMine, globalSize);
  requireInRange(newMine, globalSize);
  const int nprocs = comm.size();
  const Index homeBlock =
      std::max<Index>(1, (globalSize + nprocs - 1) / nprocs);
  const auto sliceLo = [&](int home) {
    return std::min(globalSize, homeBlock * home);
  };
  const auto sliceLen = [&](int home) {
    return std::min(globalSize, sliceLo(home) + homeBlock) - sliceLo(home);
  };

  // Only slots whose content changed travel; an unchanged slot keeps its
  // (owner, offset) and costs its home one bit.
  std::vector<HomeRow> rows(static_cast<std::size_t>(nprocs));
  const std::size_t slots = std::max(oldMine.size(), newMine.size());
  for (std::size_t i = 0; i < slots; ++i) {
    const auto off = static_cast<Index>(i);
    if (i < oldMine.size() && i < newMine.size() && oldMine[i] == newMine[i]) {
      const Index g = oldMine[i];
      const int home = static_cast<int>(g / homeBlock);
      auto& kept = rows[static_cast<std::size_t>(home)].kept;
      if (kept.empty()) {
        kept.resize(static_cast<std::size_t>((sliceLen(home) + 63) / 64));
      }
      const auto bit = static_cast<std::size_t>(g - sliceLo(home));
      const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
      // A bit cannot count a second unchanged slot of this rank.
      MC_REQUIRE((kept[bit / 64] & mask) == 0, "global index %lld owned twice",
                 static_cast<long long>(g));
      kept[bit / 64] |= mask;
      continue;
    }
    if (i < oldMine.size()) {
      auto& lane = rows[static_cast<std::size_t>(oldMine[i] / homeBlock)];
      lane.vacates.insert(lane.vacates.end(), {oldMine[i], off});
    }
    if (i < newMine.size()) {
      auto& lane = rows[static_cast<std::size_t>(newMine[i] / homeBlock)];
      lane.claims.insert(lane.claims.end(), {newMine[i], off});
    }
  }
  std::vector<std::vector<Index>> wire(static_cast<std::size_t>(nprocs));
  for (int q = 0; q < nprocs; ++q) {
    wire[static_cast<std::size_t>(q)] =
        rows[static_cast<std::size_t>(q)].flatten();
  }
  const auto at = comm.alltoall(wire);

  // Per home-slice index: ranks holding it unchanged, and its old and new
  // claims from changed slots (proc -1 = none).  Either assignment holds an
  // index twice when its unchanged holders plus its claims exceed one.
  const Index myLo = sliceLo(comm.rank());
  const Index len = sliceLen(comm.rank());
  std::vector<std::uint8_t> keptBy(static_cast<std::size_t>(len), 0);
  std::vector<ElementLoc> oldLoc(static_cast<std::size_t>(len));
  std::vector<ElementLoc> newLoc(static_cast<std::size_t>(len));
  const auto ownedTwice = [](Index g) {
    MC_REQUIRE(false, "global index %lld owned twice",
               static_cast<long long>(g));
  };
  for (const std::vector<Index>& row : at) {
    const auto words = row.begin() + 2 + 2 * (row[0] + row[1]);
    for (auto w = words; w != row.end(); ++w) {
      auto bits = static_cast<std::uint64_t>(*w);
      const auto base = static_cast<Index>(w - words) * 64;
      while (bits != 0) {
        const Index i = base + std::countr_zero(bits);
        bits &= bits - 1;
        if (++keptBy[static_cast<std::size_t>(i)] > 1) ownedTwice(myLo + i);
      }
    }
  }
  // Row r's (g, off) pairs are rank r's vacates (old claims), then its
  // claims (new ones).
  const auto claimAll = [&](std::vector<ElementLoc>& loc, int proc,
                            const Index* pairs, Index count) {
    for (Index k = 0; k < count; ++k) {
      const Index g = pairs[2 * k];
      const auto i = static_cast<std::size_t>(g - myLo);
      if (keptBy[i] != 0 || loc[i].proc != -1) ownedTwice(g);
      loc[i] = ElementLoc{proc, pairs[2 * k + 1]};
    }
  };
  for (std::size_t r = 0; r < at.size(); ++r) {
    const Index* row = at[r].data();
    claimAll(oldLoc, static_cast<int>(r), row + 2, row[0]);
    claimAll(newLoc, static_cast<int>(r), row + 2 + 2 * row[0], row[1]);
  }
  std::vector<Migrant> mine;
  for (Index i = 0; i < len; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    const ElementLoc& a = oldLoc[ii];
    const ElementLoc& b = newLoc[ii];
    if (keptBy[ii] == 0 && !(a == b)) {
      mine.push_back(Migrant{myLo + i, a.offset, b.offset, a.proc, b.proc});
    }
  }
  // Home ranges ascend with rank, so concatenating the rows in rank order
  // yields the globally sorted records directly.
  auto gathered = comm.allgather<Migrant>(std::span<const Migrant>(mine));
  std::vector<Migrant> migrants;
  for (const std::vector<Migrant>& row : gathered) {
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
