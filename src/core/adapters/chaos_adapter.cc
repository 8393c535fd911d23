#include "core/adapters/chaos_adapter.h"

#include <cstring>

#include "chaos/deref_cache.h"
#include "core/adapters/run_emitter.h"

namespace mc::core {

using chaos::ElementLoc;
using chaos::TranslationTable;
using layout::Index;

void ChaosAdapter::validate(const DistObject& obj,
                            const SetOfRegions& set) const {
  const auto& table = obj.as<TranslationTable>();
  for (const Region& r : set.regions()) {
    MC_REQUIRE(r.kind() == Region::Kind::kIndices,
               "chaos regions must be index sets");
    for (Index g : r.asIndices()) {
      MC_REQUIRE(g >= 0 && g < table.globalSize(),
                 "index %lld exceeds array size %lld",
                 static_cast<long long>(g),
                 static_cast<long long>(table.globalSize()));
    }
  }
}

bool ChaosAdapter::supportsLocalEnumeration(const DistObject& obj) const {
  return obj.as<TranslationTable>().storage() ==
         TranslationTable::Storage::kReplicated;
}

void ChaosAdapter::enumerateAll(
    const DistObject& obj, const SetOfRegions& set,
    const std::function<void(Index, int, Index)>& fn) const {
  const auto& table = obj.as<TranslationTable>();
  MC_REQUIRE(table.storage() == TranslationTable::Storage::kReplicated,
             "a distributed translation table cannot be enumerated locally; "
             "use the cooperation method or replicate the table");
  Index base = 0;
  for (const Region& r : set.regions()) {
    const auto& idx = r.asIndices();
    for (size_t k = 0; k < idx.size(); ++k) {
      const ElementLoc loc = table.dereferenceLocal(idx[k]);
      fn(base + static_cast<Index>(k), loc.proc, loc.offset);
    }
    base += static_cast<Index>(idx.size());
  }
}

void ChaosAdapter::enumerateRange(
    const DistObject& obj, const SetOfRegions& set, Index linLo, Index linHi,
    const std::function<void(Index, int, Index)>& fn) const {
  const auto& table = obj.as<TranslationTable>();
  MC_REQUIRE(table.storage() == TranslationTable::Storage::kReplicated,
             "a distributed translation table cannot be enumerated locally");
  Index base = 0;
  for (const Region& r : set.regions()) {
    const auto& idx = r.asIndices();
    const Index n = static_cast<Index>(idx.size());
    const Index lo = std::max(linLo, base);
    const Index hi = std::min(linHi, base + n);
    for (Index lin = lo; lin < hi; ++lin) {
      const ElementLoc loc =
          table.dereferenceLocal(idx[static_cast<size_t>(lin - base)]);
      fn(lin, loc.proc, loc.offset);
    }
    base += n;
    if (base >= linHi) break;
  }
}

std::vector<LinLoc> ChaosAdapter::enumerateOwned(const DistObject& obj,
                                                 const SetOfRegions& set,
                                                 transport::Comm& comm) const {
  const auto& table = obj.as<TranslationTable>();
  const int np = comm.size();
  const int me = comm.rank();
  const Index n = set.numElements();
  // Each processor dereferences a contiguous slice of the linearization —
  // this is how the cooperation method spreads the dereference cost over
  // the program's processors.
  const Index chunk = np > 0 ? (n + np - 1) / np : n;
  const Index lo = chunk * me;
  const Index hi = std::min(n, lo + chunk);

  std::vector<Index> sliceGlobals;
  sliceGlobals.reserve(static_cast<size_t>(std::max<Index>(0, hi - lo)));
  Index base = 0;
  for (const Region& r : set.regions()) {
    const auto& idx = r.asIndices();
    const Index rn = static_cast<Index>(idx.size());
    const Index rLo = std::max(lo, base);
    const Index rHi = std::min(hi, base + rn);
    for (Index p = rLo; p < rHi; ++p) {
      sliceGlobals.push_back(idx[static_cast<size_t>(p - base)]);
    }
    base += rn;
  }

  // The slice resolves through the batched per-rank dereference cache, so
  // a repeat build of the same set asks the table's home ranks nothing.
  const std::vector<ElementLoc> locs =
      table.dereferenceCached(comm, sliceGlobals);

  // Route (lin, offset) to each element's owner.
  struct Rec {
    Index lin;
    Index offset;
  };
  std::vector<std::vector<Rec>> toOwner(static_cast<size_t>(np));
  for (size_t k = 0; k < locs.size(); ++k) {
    toOwner[static_cast<size_t>(locs[k].proc)].push_back(
        Rec{lo + static_cast<Index>(k), locs[k].offset});
  }
  auto rows = comm.alltoall(toOwner);
  std::vector<LinLoc> out;
  // Records from sender s cover slice s, ascending within it, and slice
  // s's positions all precede slice s+1's; concatenating the rows in
  // sender order 0..np-1 therefore yields a list sorted by lin.
  for (const auto& row : rows) {
    for (const Rec& rec : row) out.push_back(LinLoc{rec.lin, rec.offset});
  }
  return out;
}

LookupCharge ChaosAdapter::enumerateDeltaRuns(const DistObject& obj,
                                              const SetOfRegions& set,
                                              const layout::DistDelta& delta,
                                              const RunFn& fn) const {
  const auto& table = obj.as<TranslationTable>();
  MC_REQUIRE(table.storage() == TranslationTable::Storage::kReplicated,
             "a distributed translation table cannot be enumerated locally");
  // The globals at the migrated positions, in linearization order (both
  // the intervals and the regions ascend, so one cursor walks the regions).
  std::vector<Index> globals;
  std::size_t region = 0;
  Index base = 0;
  forEachDeltaRange(delta, set.numElements(), [&](Index lo, Index hi) {
    for (Index lin = lo; lin < hi; ++lin) {
      while (lin >= base + set.regions()[region].numElements()) {
        base += set.regions()[region++].numElements();
      }
      globals.push_back(set.regions()[region]
                            .asIndices()[static_cast<std::size_t>(lin - base)]);
    }
  });

  // One sorted probe of the rank's cache.  Misses read the table and are
  // cached; the runs are built from the cache's answers.
  std::vector<Index> uniq(globals);
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  std::vector<ElementLoc> locs(uniq.size());
  std::vector<std::uint8_t> hit(uniq.size());
  chaos::ensureLocalizeMetrics();
  chaos::DerefCache& cache = chaos::derefCache();
  cache.lookupSorted(table.uid(), uniq, locs.data(), hit.data());
  std::vector<Index> missG;
  std::vector<ElementLoc> missLocs;
  for (std::size_t u = 0; u < uniq.size(); ++u) {
    if (hit[u]) continue;
    locs[u] = table.dereferenceLocal(uniq[u]);
    missG.push_back(uniq[u]);
    missLocs.push_back(locs[u]);
  }
  cache.insertSorted(table.uid(), table.liveness(), missG, missLocs);

  // Every position whose global missed is one lookup, as in a build.
  LookupCharge charge;
  std::size_t k = 0;
  forEachDeltaRange(delta, set.numElements(), [&](Index lo, Index hi) {
    RunEmitter emit(fn);
    for (Index lin = lo; lin < hi; ++lin, ++k) {
      const auto u = static_cast<std::size_t>(
          std::lower_bound(uniq.begin(), uniq.end(), globals[k]) -
          uniq.begin());
      if (!hit[u]) ++charge.lookups;
      emit.add(lin, locs[u].proc, locs[u].offset, 1, 0);
    }
    emit.flush();
  });
  charge.seconds =
      table.modeledQueryCost() * static_cast<double>(charge.lookups);
  return charge;
}

double ChaosAdapter::modeledElementDereferenceCost(
    const DistObject& obj) const {
  return obj.as<TranslationTable>().modeledQueryCost();
}

std::uint64_t ChaosAdapter::localFingerprint(const DistObject& obj) const {
  // A distributed table cannot be fingerprinted whole without
  // communication; hashing the local shard is exactly what the cache's
  // collective hit agreement expects (any rank seeing a different shard
  // forces a program-wide miss).
  return obj.as<TranslationTable>().localFingerprint();
}

std::vector<std::byte> ChaosAdapter::serializeDesc(
    const DistObject& obj, transport::Comm& comm) const {
  const auto& table = obj.as<TranslationTable>();
  // Shipping a Chaos descriptor means shipping the whole table — the
  // O(array size) cost that makes inter-program duplication impractical.
  const std::vector<ElementLoc> full = table.gatherFull(comm);
  constexpr size_t kHeader = sizeof(Index) + sizeof(double);
  std::vector<std::byte> out(kHeader + full.size() * sizeof(ElementLoc));
  const Index nprocs = comm.size();
  const double cost = table.modeledQueryCost();
  std::memcpy(out.data(), &nprocs, sizeof(Index));
  std::memcpy(out.data() + sizeof(Index), &cost, sizeof(double));
  std::memcpy(out.data() + kHeader, full.data(),
              full.size() * sizeof(ElementLoc));
  return out;
}

DistObject ChaosAdapter::deserializeDesc(
    std::span<const std::byte> bytes) const {
  constexpr size_t kHeader = sizeof(Index) + sizeof(double);
  MC_REQUIRE(bytes.size() >= kHeader &&
                 (bytes.size() - kHeader) % sizeof(ElementLoc) == 0,
             "bad chaos descriptor");
  Index nprocs = 0;
  double cost = 0;
  std::memcpy(&nprocs, bytes.data(), sizeof(Index));
  std::memcpy(&cost, bytes.data() + sizeof(Index), sizeof(double));
  std::vector<ElementLoc> entries((bytes.size() - kHeader) /
                                  sizeof(ElementLoc));
  std::memcpy(entries.data(), bytes.data() + kHeader,
              bytes.size() - kHeader);
  auto table = std::make_shared<const TranslationTable>(
      TranslationTable::replicatedFromEntries(
          std::move(entries), static_cast<int>(nprocs), cost));
  return DistObject("chaos", std::move(table));
}

}  // namespace mc::core
