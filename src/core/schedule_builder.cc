#include "core/schedule_builder.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "obs/span.h"
#include "sched/kernels.h"

namespace mc::core {

using layout::Index;
using sched::LocalRun;
using sched::OffsetRun;

namespace {

thread_local BuildStats g_buildStats;
thread_local PatchStats g_patchStats;
// Monotone per-rank build telemetry for the obs registry (g_buildStats
// itself resets per build, so it cannot serve snapshot/diff accounting).
thread_local std::uint64_t g_buildCount = 0;
thread_local std::uint64_t g_tableBytesTotal = 0;
thread_local std::uint64_t g_kernelContiguous = 0;
thread_local std::uint64_t g_kernelStrided = 0;
thread_local std::uint64_t g_kernelRunList = 0;
thread_local std::uint64_t g_kernelIndexList = 0;
thread_local std::uint64_t g_patchCount = 0;
thread_local std::uint64_t g_patchElementsTotal = 0;
thread_local std::uint64_t g_patchLookupsTotal = 0;

/// Registers the builder's counters into the rank's registry (idempotent;
/// called from every build entry point so the metrics exist as soon as a
/// rank builds anything).
void ensureBuildMetrics() {
  obs::MetricsRegistry& reg = obs::threadRegistry();
  if (reg.has("build.count")) return;
  reg.registerCounter("build.count",
                      [] { return static_cast<double>(g_buildCount); });
  reg.registerCounter("build.ownership_table_bytes_total", [] {
    return static_cast<double>(g_tableBytesTotal);
  });
  reg.registerCounter("build.kernel_contiguous_plans", [] {
    return static_cast<double>(g_kernelContiguous);
  });
  reg.registerCounter("build.kernel_strided_plans", [] {
    return static_cast<double>(g_kernelStrided);
  });
  reg.registerCounter("build.kernel_run_list_plans", [] {
    return static_cast<double>(g_kernelRunList);
  });
  reg.registerCounter("build.kernel_index_list_plans", [] {
    return static_cast<double>(g_kernelIndexList);
  });
  reg.registerCounter("build.patch_count",
                      [] { return static_cast<double>(g_patchCount); });
  reg.registerCounter("build.patch_elements_total", [] {
    return static_cast<double>(g_patchElementsTotal);
  });
  reg.registerCounter("core.patch.lookups_charged", [] {
    return static_cast<double>(g_patchLookupsTotal);
  });
}

/// Classifies the built plans by the executor kernel each will dispatch to
/// (sched::classifyPlan is a pure function of the plan, so this is exactly
/// what a later Executor bind decides).
void recordKernelDispatch(const sched::Schedule& plan) {
  const auto note = [](const sched::OffsetPlan& p) {
    switch (sched::classifyPlan(p)) {
      case sched::KernelKind::kEmpty:
        break;
      case sched::KernelKind::kContiguous:
        ++g_buildStats.kernelContiguousPlans;
        break;
      case sched::KernelKind::kStrided:
        ++g_buildStats.kernelStridedPlans;
        break;
      case sched::KernelKind::kRunList:
        ++g_buildStats.kernelRunListPlans;
        break;
      case sched::KernelKind::kIndexList:
        ++g_buildStats.kernelIndexListPlans;
        break;
    }
  };
  for (const sched::OffsetPlan& p : plan.sends) note(p);
  for (const sched::OffsetPlan& p : plan.recvs) note(p);
}

/// Accounts one finished build into the monotone counters.
void noteBuildDone() {
  ++g_buildCount;
  g_tableBytesTotal += g_buildStats.ownershipTableBytes;
  g_kernelContiguous += g_buildStats.kernelContiguousPlans;
  g_kernelStrided += g_buildStats.kernelStridedPlans;
  g_kernelRunList += g_buildStats.kernelRunListPlans;
  g_kernelIndexList += g_buildStats.kernelIndexListPlans;
}

// ---------------------------------------------------------------------------
// Wire formats.
//
// The cooperation method ships ownership information and marching orders
// between processors.  All streams are run-length encoded with strides:
// regular data produces long arithmetic runs (whole section rows), so the
// shipped volume stays proportional to the number of *blocks*, not the
// number of elements — matching the compact descriptors the original
// Meta-Chaos shipped for regular sections.  Fully irregular data degrades
// to count-1 runs, whose cost profile the paper's Chaos experiments show.
//
// Ownership runs ship as core::LinRun (the adapter inquiry type — the
// sender is implied by the lane).  Every stream is built by a cut-invariant
// greedy, so its bytes depend only on the element sequence it encodes,
// never on how an enumeration happened to cut that sequence into runs.
// ---------------------------------------------------------------------------

/// A source processor's marching order: `count` elements packed from
/// srcOff + k*srcStride going to dstOwner at dstOff + k*dstStride (the
/// destination offsets matter only for processor-local transfers).  Carries
/// the first linearization position so the same records double as the
/// schedule's provenance stream (SendSeg) — lanes merge only across
/// lin-contiguous records, which makes the greedy cut-invariant over any
/// sub-stream and the recorded segment cut canonical.
using SendRun = SendSeg;

/// A destination processor's marching order: `count` elements from srcOwner
/// unpacked into dstOff + k*dstStride.
using RecvRun = RecvSeg;

const LibraryAdapter& adapterFor(const DistObject& obj) {
  registerBuiltinAdapters();
  return Registry::instance().get(obj.library());
}

/// Cross-program personalized all-to-all.  Collective over *both* programs:
/// each processor passes one buffer per remote rank and receives one from
/// each.  Pairing relies on both programs making matching calls in order.
template <typename T>
std::vector<std::vector<T>> interAlltoall(
    transport::Comm& comm, int remoteProgram,
    const std::vector<std::vector<T>>& sendTo) {
  const int tag = comm.nextInterTag(remoteProgram);
  const int rp = comm.programInfo(remoteProgram).nprocs;
  MC_REQUIRE(static_cast<int>(sendTo.size()) == rp,
             "interAlltoall needs one lane per remote rank (%d), got %zu", rp,
             sendTo.size());
  for (int r = 0; r < rp; ++r) {
    comm.sendTo(remoteProgram, r, tag, sendTo[static_cast<size_t>(r)]);
  }
  std::vector<std::vector<T>> out(static_cast<size_t>(rp));
  for (int r = 0; r < rp; ++r) {
    out[static_cast<size_t>(r)] = comm.recvFrom<T>(remoteProgram, r, tag);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Marching-order emission.
//
// A lane is one processor's SendRun or RecvRun stream in linearization
// order.  Each append helper extends the tail iff the appended elements,
// taken one at a time, would have (a count-1 tail infers its stride from
// the next element; singletons canonicalize to stride 0), so a lane comes
// out bit-identical no matter how the incoming element sequence is cut
// into runs (see sched::appendOffsetRun for the argument).
// ---------------------------------------------------------------------------

/// Extends `lane` with a whole marching-order run.
void appendSendRun(std::vector<SendRun>& lane, SendRun run) {
  while (run.count > 0) {
    if (!lane.empty()) {
      SendRun& tail = lane.back();
      if (tail.dstOwner == run.dstOwner && run.lin == tail.lin + tail.count) {
        if (tail.count == 1) {
          tail.srcStride = run.srcOff - tail.srcOff;
          tail.dstStride = run.dstOff - tail.dstOff;
          ++tail.count;
          ++run.lin;
          run.srcOff += run.srcStride;
          run.dstOff += run.dstStride;
          --run.count;
          continue;
        }
        if (run.srcOff == tail.srcOff + tail.count * tail.srcStride &&
            run.dstOff == tail.dstOff + tail.count * tail.dstStride) {
          if (run.count == 1 || (run.srcStride == tail.srcStride &&
                                 run.dstStride == tail.dstStride)) {
            tail.count += run.count;
            return;
          }
          ++tail.count;
          ++run.lin;
          run.srcOff += run.srcStride;
          run.dstOff += run.dstStride;
          --run.count;
          continue;
        }
      }
    }
    if (run.count == 1) {
      run.srcStride = 0;
      run.dstStride = 0;
    }
    lane.push_back(run);
    return;
  }
}

/// Extends `lane` with a whole receive run.
void appendRecvRun(std::vector<RecvRun>& lane, RecvRun run) {
  while (run.count > 0) {
    if (!lane.empty()) {
      RecvRun& tail = lane.back();
      if (tail.srcOwner == run.srcOwner && run.lin == tail.lin + tail.count) {
        if (tail.count == 1) {
          tail.dstStride = run.dstOff - tail.dstOff;
          ++tail.count;
          ++run.lin;
          run.dstOff += run.dstStride;
          --run.count;
          continue;
        }
        if (run.dstOff == tail.dstOff + tail.count * tail.dstStride) {
          if (run.count == 1 || run.dstStride == tail.dstStride) {
            tail.count += run.count;
            return;
          }
          ++tail.count;
          ++run.lin;
          run.dstOff += run.dstStride;
          --run.count;
          continue;
        }
      }
    }
    if (run.count == 1) run.dstStride = 0;
    lane.push_back(run);
    return;
  }
}

/// Single-element appendSendRun, the fast path for count-1 join segments
/// (fully irregular data, where almost every segment is one element).
void emitSend(std::vector<SendRun>& lane, Index lin, Index srcOff,
              Index dstOff, Index dstOwner) {
  if (!lane.empty()) {
    SendRun& run = lane.back();
    if (run.dstOwner == dstOwner && lin == run.lin + run.count) {
      if (run.count == 1) {
        run.srcStride = srcOff - run.srcOff;
        run.dstStride = dstOff - run.dstOff;
        ++run.count;
        return;
      }
      if (srcOff == run.srcOff + run.count * run.srcStride &&
          dstOff == run.dstOff + run.count * run.dstStride) {
        ++run.count;
        return;
      }
    }
  }
  lane.push_back(SendRun{lin, srcOff, dstOff, 1, 0, 0, dstOwner});
}

/// Single-element appendRecvRun, the count-1 fast path.
void emitRecv(std::vector<RecvRun>& lane, Index lin, Index dstOff,
              Index srcOwner) {
  if (!lane.empty()) {
    RecvRun& run = lane.back();
    if (run.srcOwner == srcOwner && lin == run.lin + run.count) {
      if (run.count == 1) {
        run.dstStride = dstOff - run.dstOff;
        ++run.count;
        return;
      }
      if (dstOff == run.dstOff + run.count * run.dstStride) {
        ++run.count;
        return;
      }
    }
  }
  lane.push_back(RecvRun{lin, dstOff, 1, 0, srcOwner});
}

/// Routes a processor's owned runs into per-chunk LinRun streams, splitting
/// runs at chunk boundaries (runs never cross chunks on the wire).
std::vector<std::vector<LinRun>> routeRunsToChunks(
    const std::vector<LinRun>& owned, Index chunk, int nChunks) {
  std::vector<std::vector<LinRun>> to(static_cast<size_t>(nChunks));
  for (LinRun run : owned) {
    while (run.count > 0) {
      const Index c = run.lin / chunk;
      const Index take = std::min(run.count, (c + 1) * chunk - run.lin);
      appendLinRun(to[static_cast<size_t>(c)],
                   LinRun{run.lin, run.off, take, run.offStride});
      run.lin += take;
      run.off += take * run.offStride;
      run.count -= take;
    }
  }
  return to;
}

/// Routes owned elements into per-chunk LinRun streams, coalescing as it
/// goes — the same streams enumerateOwnedRuns + routeRunsToChunks would
/// produce, in one pass.  The intra-program cooperation build takes this
/// path for a side that dereferences collectively (Chaos with a distributed
/// table), whose owned elements arrive one by one.
std::vector<std::vector<LinRun>> routeToChunks(const std::vector<LinLoc>& owned,
                                               Index chunk, int nChunks) {
  std::vector<std::vector<LinRun>> to(static_cast<size_t>(nChunks));
  for (const LinLoc& ll : owned) {
    appendLinElement(to[static_cast<size_t>(ll.lin / chunk)], ll.lin,
                     ll.offset);
  }
  return to;
}

// ---------------------------------------------------------------------------
// Ownership tables.
//
// A ChunkTable is one side's ownership over a position range: a sorted
// interval table of (positions, owner, offsets) runs covering the range
// exactly, filled straight from run streams without per-element expansion,
// so its memory is O(runs).
// ---------------------------------------------------------------------------

/// One ownership run of a chunk: positions [lin, lin+count) owned by
/// `owner` at offsets off + k*offStride.
struct OwnedRun {
  Index lin;
  Index off;
  Index count;
  Index offStride;
  int owner;
};

struct ChunkTable {
  Index lo = 0;
  Index size = 0;
  std::vector<OwnedRun> runs;  // sorted by lin, covering [lo, lo+size)

  ChunkTable(Index lo_, Index size_) : lo(lo_), size(size_) {}

  /// Streaming fill for locally enumerated chunks: runs must arrive in
  /// linearization order (the enumerateRangeRuns contract).
  void append(Index lin, int owner, Index off, Index count, Index offStride,
              const char* side) {
    const Index expected = runs.empty() ? lo : runs.back().lin + runs.back().count;
    MC_REQUIRE(lin >= expected, "%s linearization visits position %lld twice",
               side, static_cast<long long>(lin));
    MC_REQUIRE(lin >= lo && lin + count <= lo + size,
               "%s element at position %lld routed to the wrong chunk", side,
               static_cast<long long>(lin));
    runs.push_back(OwnedRun{lin, off, count, offStride, owner});
  }

  /// Fill from per-sender wire streams.  Every sender's stream is already
  /// sorted by position, so a k-way merge over per-sender cursors rebuilds
  /// the interval table without a global sort.  Exhausted streams are
  /// dropped from the cursor set, so the scan stays tight.
  void fillFromRows(const std::vector<std::vector<LinRun>>& rows,
                    const char* side) {
    struct Cursor {
      const LinRun* p;
      const LinRun* end;
      Index lin;  // == p->lin, cached so the min-scan stays in this array
      int sender;
    };
    std::vector<Cursor> cur;
    size_t total = 0;
    cur.reserve(rows.size());
    for (size_t sender = 0; sender < rows.size(); ++sender) {
      total += rows[sender].size();
      if (!rows[sender].empty()) {
        cur.push_back(Cursor{rows[sender].data(),
                             rows[sender].data() + rows[sender].size(),
                             rows[sender].front().lin,
                             static_cast<int>(sender)});
      }
    }
    runs.reserve(total);
    Index pos = lo;
    while (!cur.empty()) {
      size_t best = 0;
      for (size_t k = 1; k < cur.size(); ++k) {
        if (cur[k].lin < cur[best].lin) best = k;
      }
      const LinRun& run = *cur[best].p;
      MC_REQUIRE(run.lin >= lo && run.lin + run.count <= lo + size,
                 "%s element at position %lld routed to the wrong chunk",
                 side, static_cast<long long>(run.lin));
      MC_REQUIRE(run.lin >= pos, "%s linearization visits position %lld twice",
                 side, static_cast<long long>(run.lin));
      pos = run.lin + run.count;
      runs.push_back(OwnedRun{run.lin, run.off, run.count, run.offStride,
                              cur[best].sender});
      if (++cur[best].p == cur[best].end) {
        cur[best] = cur.back();
        cur.pop_back();
      } else {
        cur[best].lin = cur[best].p->lin;
      }
    }
  }

  /// Verifies the table covers the chunk with no gaps.
  void checkComplete(const char* side) const {
    Index pos = lo;
    for (const OwnedRun& run : runs) {
      MC_REQUIRE(run.lin == pos, "%s linearization skips position %lld", side,
                 static_cast<long long>(pos));
      pos = run.lin + run.count;
    }
    MC_REQUIRE(pos == lo + size, "%s linearization skips position %lld", side,
               static_cast<long long>(pos));
  }

  std::size_t tableBytes() const { return runs.size() * sizeof(OwnedRun); }
};

/// One side's complete ownership table over positions [lo, hi), enumerated
/// locally through the adapter's run inquiry (the descriptor must support
/// local enumeration).
ChunkTable rangeTable(const LibraryAdapter& lib, const DistObject& obj,
                      const SetOfRegions& set, Index lo, Index hi,
                      const char* side) {
  ChunkTable table(lo, hi - lo);
  lib.enumerateRangeRuns(
      obj, set, lo, hi,
      [&](Index lin, int owner, Index off, Index count, Index offStride) {
        table.append(lin, owner, off, count, offStride, side);
      });
  table.checkComplete(side);
  return table;
}

/// Two-pointer interval join over two ownership tables covering the same
/// position range: fn(srcRun, dstRun, pos, count) is called once per
/// maximal segment on which both owners (and both offset progressions) are
/// fixed — runs are split exactly at each other's boundaries, never
/// expanded.  O(|src runs| + |dst runs|).
template <typename F>
void joinTables(const ChunkTable& src, const ChunkTable& dst, F&& fn) {
  size_t i = 0;
  size_t j = 0;
  Index pos = src.lo;
  const Index end = src.lo + src.size;
  while (pos < end) {
    const OwnedRun& s = src.runs[i];
    const OwnedRun& d = dst.runs[j];
    const Index sEnd = s.lin + s.count;
    const Index dEnd = d.lin + d.count;
    const Index stop = std::min(sEnd, dEnd);
    fn(s, d, pos, stop - pos);
    pos = stop;
    if (stop == sEnd) ++i;
    if (stop == dEnd) ++j;
  }
}

/// Offset of position `pos` within run `r`.
Index offAt(const OwnedRun& r, Index pos) {
  return r.off + (pos - r.lin) * r.offStride;
}

/// The paper's pairing rule applied to two joined tables: every maximal
/// segment becomes a marching order in the lane sendLane(srcOwner) selects
/// and a receive record in the lane recvLane(srcOwner, dstOwner) selects.
/// A selector returns nullptr to skip the record (a lane the caller does not
/// keep, or a processor-local copy, which needs no receive).
template <typename SendLane, typename RecvLane>
void joinToSegs(const ChunkTable& src, const ChunkTable& dst,
                SendLane&& sendLane, RecvLane&& recvLane) {
  joinTables(src, dst, [&](const OwnedRun& s, const OwnedRun& d, Index pos,
                           Index count) {
    const Index srcOff = offAt(s, pos);
    const Index dstOff = offAt(d, pos);
    if (std::vector<SendRun>* lane = sendLane(s.owner)) {
      if (count == 1) {
        emitSend(*lane, pos, srcOff, dstOff, d.owner);
      } else {
        appendSendRun(*lane, SendRun{pos, srcOff, dstOff, count, s.offStride,
                                     d.offStride, static_cast<Index>(d.owner)});
      }
    }
    if (std::vector<RecvRun>* lane = recvLane(s.owner, d.owner)) {
      if (count == 1) {
        emitRecv(*lane, pos, dstOff, s.owner);
      } else {
        appendRecvRun(*lane, RecvRun{pos, dstOff, count, d.offStride,
                                     static_cast<Index>(s.owner)});
      }
    }
  });
}

/// joinToSegs for a caller that keeps only its own provenance: the
/// segments rank `me` sources (local copies included) and the ones it
/// receives from another rank.
void joinOwnSegs(const ChunkTable& src, const ChunkTable& dst, int me,
                 std::vector<SendSeg>& sendOut, std::vector<RecvSeg>& recvOut) {
  joinToSegs(
      src, dst,
      [&](int s) { return s == me ? &sendOut : nullptr; },
      [&](int s, int d) { return d == me && s != me ? &recvOut : nullptr; });
}

// ---------------------------------------------------------------------------
// Plan assembly.
//
// Plans are assembled runs-first, never expanding an offset list: each
// record's run is appended to its peer's OffsetRun lane, and one plan per
// non-empty lane is emitted in ascending peer order.  Records arrive in
// linearization order, so every lane does too.
// ---------------------------------------------------------------------------

/// Per-peer OffsetRun lanes.
class PeerLanes {
 public:
  void add(Index peer, OffsetRun run) {
    const auto p = static_cast<size_t>(peer);
    if (lanes_.size() <= p) lanes_.resize(p + 1);
    sched::appendOffsetRun(lanes_[p], run);
  }
  /// Moves one plan per non-empty lane, ascending by peer, onto `plans`.
  void emit(std::vector<sched::OffsetPlan>& plans) {
    for (size_t p = 0; p < lanes_.size(); ++p) {
      if (lanes_[p].empty()) continue;
      plans.push_back(
          sched::OffsetPlan{static_cast<int>(p), {}, std::move(lanes_[p])});
    }
  }

 private:
  std::vector<std::vector<OffsetRun>> lanes_;
};

/// Assembles an intra-program plan from a rank's provenance streams:
/// marching orders to itself become local runs, the rest per-peer sends;
/// receive records become per-peer receives.
void assembleFromSegs(const std::vector<SendSeg>& sendSegs,
                      const std::vector<RecvSeg>& recvSegs, int me,
                      sched::Schedule& plan) {
  PeerLanes sendBy;
  PeerLanes recvBy;
  for (const SendSeg& g : sendSegs) {
    if (g.dstOwner == static_cast<Index>(me)) {
      sched::appendLocalRun(plan.localRuns,
                            LocalRun{g.srcOff, g.dstOff, g.count, g.srcStride,
                                     g.dstStride});
    } else {
      sendBy.add(g.dstOwner, OffsetRun{g.srcOff, g.count, g.srcStride});
    }
  }
  for (const RecvSeg& g : recvSegs) {
    recvBy.add(g.srcOwner, OffsetRun{g.dstOff, g.count, g.dstStride});
  }
  sendBy.emit(plan.sends);
  recvBy.emit(plan.recvs);
}

/// Assembles an inter-program sender's plans from its marching-order rows
/// (chunk-ordered; no local copies across programs).
void assembleSendsRuns(const std::vector<std::vector<SendRun>>& rows,
                       sched::Schedule& plan) {
  PeerLanes byPeer;
  for (const auto& row : rows) {
    for (const SendRun& run : row) {
      byPeer.add(run.dstOwner, OffsetRun{run.srcOff, run.count, run.srcStride});
    }
  }
  byPeer.emit(plan.sends);
}

/// Assembles an inter-program receiver's plans from its receive rows.
void assembleRecvsRuns(const std::vector<std::vector<RecvRun>>& rows,
                       sched::Schedule& plan) {
  PeerLanes byPeer;
  for (const auto& row : rows) {
    for (const RecvRun& run : row) {
      byPeer.add(run.srcOwner, OffsetRun{run.dstOff, run.count, run.dstStride});
    }
  }
  byPeer.emit(plan.recvs);
}

// ---------------------------------------------------------------------------
// Chunk ownership acquisition.
// ---------------------------------------------------------------------------

/// Obtains one side's ownership info for this processor's chunk as a run
/// table.  When the descriptor is locally enumerable the chunk owner
/// computes it directly (no communication); otherwise the side performs the
/// collective owned-element enumeration and routes the results to chunk
/// owners (Chaos with a distributed table — the expensive path the paper
/// measures).  Must be called by every processor of the program in either
/// case.
ChunkTable chunkTableIntra(transport::Comm& comm, const LibraryAdapter& lib,
                           const DistObject& obj, const SetOfRegions& set,
                           Index n, Index chunk, const char* side) {
  const int me = comm.rank();
  const Index lo = chunk * me;
  const Index hi = std::max(lo, std::min(n, lo + chunk));
  if (lib.supportsLocalEnumeration(obj)) {
    ChunkTable table = comm.computeValue(
        [&] { return rangeTable(lib, obj, set, lo, hi, side); });
    g_buildStats.ownershipTableBytes += table.tableBytes();
    return table;
  }
  // Element routing coalesces into the identical LinRun wire stream that
  // enumerateOwnedRuns + routeRunsToChunks would produce (the same greedy
  // rule), in one pass instead of two — on fully irregular data the
  // coalesce passes are the dominant build cost.
  const std::vector<LinLoc> owned = lib.enumerateOwned(obj, set, comm);
  auto rows = comm.alltoall(comm.computeValue(
      [&] { return routeToChunks(owned, chunk, comm.size()); }));
  ChunkTable table(lo, hi - lo);
  comm.compute([&] {
    table.fillFromRows(rows, side);
    table.checkComplete(side);
  });
  g_buildStats.ownershipTableBytes += table.tableBytes();
  return table;
}

// ---------------------------------------------------------------------------
// Intra-program builds
// ---------------------------------------------------------------------------

McSchedule buildIntraCooperation(transport::Comm& comm,
                                 const LibraryAdapter& srcLib,
                                 const DistObject& srcObj,
                                 const SetOfRegions& srcSet,
                                 const LibraryAdapter& dstLib,
                                 const DistObject& dstObj,
                                 const SetOfRegions& dstSet, Index n) {
  McSchedule out;
  out.numElements = n;
  out.plan.bufferLocalCopies = false;
  const int np = comm.size();
  const int me = comm.rank();
  const Index chunk = (n + np - 1) / np;

  const ChunkTable src =
      chunkTableIntra(comm, srcLib, srcObj, srcSet, n, chunk, "source");
  const ChunkTable dst =
      chunkTableIntra(comm, dstLib, dstObj, dstSet, n, chunk, "destination");

  // Join and emit marching orders for the processors that own the data —
  // whole segments at a time, split only where a source or destination run
  // boundary falls.
  std::vector<std::vector<SendRun>> sendTo(static_cast<size_t>(np));
  std::vector<std::vector<RecvRun>> recvTo(static_cast<size_t>(np));
  comm.compute([&] {
    joinToSegs(
        src, dst, [&](int s) { return &sendTo[static_cast<size_t>(s)]; },
        [&](int s, int d) {
          return d != s ? &recvTo[static_cast<size_t>(d)] : nullptr;
        });
  });
  auto mySends = comm.alltoall(sendTo);
  auto myRecvs = comm.alltoall(recvTo);
  comm.compute([&] {
    // Rows arrive chunk-ordered, so re-appending them re-coalesces across
    // chunk seams into the canonical provenance cut.  Sized up front: on
    // irregular data the streams hold about one record per element, and
    // regrowing them would copy every record several times.
    std::size_t nSend = 0;
    std::size_t nRecv = 0;
    for (const auto& row : mySends) nSend += row.size();
    for (const auto& row : myRecvs) nRecv += row.size();
    out.sendSegs.reserve(nSend);
    out.recvSegs.reserve(nRecv);
    for (const auto& row : mySends) {
      for (const SendRun& run : row) appendSendRun(out.sendSegs, run);
    }
    for (const auto& row : myRecvs) {
      for (const RecvRun& run : row) appendRecvRun(out.recvSegs, run);
    }
    assembleFromSegs(out.sendSegs, out.recvSegs, me, out.plan);
  });
  out.hasProvenance = true;
  return out;
}

McSchedule buildIntraDuplication(transport::Comm& comm,
                                 const LibraryAdapter& srcLib,
                                 const DistObject& srcObj,
                                 const SetOfRegions& srcSet,
                                 const LibraryAdapter& dstLib,
                                 const DistObject& dstObj,
                                 const SetOfRegions& dstSet, Index n) {
  MC_REQUIRE(srcLib.supportsLocalEnumeration(srcObj) &&
                 dstLib.supportsLocalEnumeration(dstObj),
             "the duplication method requires locally enumerable "
             "descriptors on both sides; use cooperation instead");
  McSchedule out;
  out.numElements = n;
  out.plan.bufferLocalCopies = false;
  // Duplication pays the library dereference machinery twice over the set
  // (paper Section 5.1), the work split across processors.
  comm.advance(2.0 *
               (srcLib.modeledElementDereferenceCost(srcObj) +
                dstLib.modeledElementDereferenceCost(dstObj)) *
               static_cast<double>(n) / comm.size());
  const int me = comm.rank();
  comm.compute([&] {
    // Two full ownership passes per processor — the 2x dereference cost the
    // paper attributes to duplication — with no communication, but as run
    // streams: the table stays O(runs), never O(elements).
    const ChunkTable src = rangeTable(srcLib, srcObj, srcSet, 0, n, "source");
    const ChunkTable dst =
        rangeTable(dstLib, dstObj, dstSet, 0, n, "destination");
    g_buildStats.ownershipTableBytes += src.tableBytes() + dst.tableBytes();
    joinOwnSegs(src, dst, me, out.sendSegs, out.recvSegs);
    assembleFromSegs(out.sendSegs, out.recvSegs, me, out.plan);
  });
  out.hasProvenance = true;
  return out;
}

// ---------------------------------------------------------------------------
// Inter-program builds
// ---------------------------------------------------------------------------

/// Wire bundle for the duplication method: library name + descriptor + set.
std::vector<std::byte> packRemoteBundle(const LibraryAdapter& lib,
                                        const DistObject& obj,
                                        const SetOfRegions& set,
                                        transport::Comm& comm) {
  const std::string name = lib.name();
  const std::vector<std::byte> desc = lib.serializeDesc(obj, comm);
  const std::vector<std::byte> setBytes = serializeSet(set);
  std::vector<std::byte> out;
  auto putU64 = [&out](std::uint64_t v) {
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    out.insert(out.end(), p, p + sizeof(v));
  };
  putU64(name.size());
  const auto* np = reinterpret_cast<const std::byte*>(name.data());
  out.insert(out.end(), np, np + name.size());
  putU64(desc.size());
  out.insert(out.end(), desc.begin(), desc.end());
  putU64(setBytes.size());
  out.insert(out.end(), setBytes.begin(), setBytes.end());
  return out;
}

std::pair<DistObject, SetOfRegions> unpackRemoteBundle(
    std::span<const std::byte> bytes) {
  size_t pos = 0;
  auto getU64 = [&]() {
    MC_REQUIRE(pos + sizeof(std::uint64_t) <= bytes.size(),
               "truncated remote bundle");
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + pos, sizeof(v));
    pos += sizeof(v);
    return v;
  };
  const std::uint64_t nameLen = getU64();
  MC_REQUIRE(pos + nameLen <= bytes.size(), "truncated remote bundle");
  std::string name(reinterpret_cast<const char*>(bytes.data() + pos), nameLen);
  pos += nameLen;
  const std::uint64_t descLen = getU64();
  MC_REQUIRE(pos + descLen <= bytes.size(), "truncated remote bundle");
  registerBuiltinAdapters();
  const LibraryAdapter& lib = Registry::instance().get(name);
  DistObject obj = lib.deserializeDesc(bytes.subspan(pos, descLen));
  pos += descLen;
  const std::uint64_t setLen = getU64();
  MC_REQUIRE(pos + setLen == bytes.size(), "truncated remote bundle");
  SetOfRegions set = deserializeSet(bytes.subspan(pos, setLen));
  return {std::move(obj), std::move(set)};
}

/// Exchanges a byte blob with the remote program (rank 0 <-> rank 0, then
/// broadcast within each program).  Collective over both programs.
std::vector<std::byte> exchangeBlob(transport::Comm& comm, int remoteProgram,
                                    const std::vector<std::byte>& mine) {
  const int tag = comm.nextInterTag(remoteProgram);
  std::vector<std::byte> theirs;
  if (comm.rank() == 0) {
    comm.sendBytesTo(remoteProgram, 0, tag, mine);
    theirs = comm.recvMsgFrom(remoteProgram, 0, tag).payload;
  }
  comm.bcastBytes(theirs, 0);
  return theirs;
}

/// Verifies both sides agree on the element count.
void handshakeCount(transport::Comm& comm, int remoteProgram, Index n) {
  const int tag = comm.nextInterTag(remoteProgram);
  if (comm.rank() == 0) {
    comm.sendValueTo(remoteProgram, 0, tag, n);
    const Index other = comm.recvValueFrom<Index>(remoteProgram, 0, tag);
    MC_REQUIRE(other == n,
               "source and destination sets differ in size (%lld vs %lld)",
               static_cast<long long>(n), static_cast<long long>(other));
  }
  comm.barrier();  // everyone learns that the check passed (or the world died)
}

McSchedule buildInterCooperationSend(transport::Comm& comm,
                                     const LibraryAdapter& srcLib,
                                     const DistObject& srcObj,
                                     const SetOfRegions& srcSet,
                                     int remoteProgram) {
  McSchedule out;
  out.remoteProgram = remoteProgram;
  out.isSender = true;
  out.plan.bufferLocalCopies = false;
  const Index n = srcSet.numElements();
  out.numElements = n;
  handshakeCount(comm, remoteProgram, n);

  // Ship my ownership info to the destination-side chunk owners (the
  // destination program cannot see my descriptor, so this shipping always
  // happens — compactly, thanks to the run encoding).
  const int pd = comm.programInfo(remoteProgram).nprocs;
  const Index chunk = (n + pd - 1) / pd;
  const std::vector<LinRun> srcOwned =
      srcLib.enumerateOwnedRuns(srcObj, srcSet, comm);
  (void)interAlltoall(comm, remoteProgram, comm.computeValue([&] {
                        return routeRunsToChunks(srcOwned, chunk, pd);
                      }));

  // Receive my marching orders back.
  const std::vector<std::vector<SendRun>> empty(static_cast<size_t>(pd));
  auto mySends = interAlltoall(comm, remoteProgram, empty);
  comm.compute([&] { assembleSendsRuns(mySends, out.plan); });
  return out;
}

McSchedule buildInterCooperationRecv(transport::Comm& comm,
                                     const LibraryAdapter& dstLib,
                                     const DistObject& dstObj,
                                     const SetOfRegions& dstSet,
                                     int remoteProgram) {
  McSchedule out;
  out.remoteProgram = remoteProgram;
  out.isSender = false;
  out.plan.bufferLocalCopies = false;
  const Index n = dstSet.numElements();
  out.numElements = n;
  handshakeCount(comm, remoteProgram, n);

  const int me = comm.rank();
  const int np = comm.size();  // destination program owns the chunks
  const int ps = comm.programInfo(remoteProgram).nprocs;
  const Index chunk = (n + np - 1) / np;

  // Source ownership info arrives from the remote program.
  const std::vector<std::vector<LinRun>> emptyInfo(static_cast<size_t>(ps));
  auto srcRows = interAlltoall(comm, remoteProgram, emptyInfo);
  const Index lo = chunk * me;
  const Index size = std::max<Index>(0, std::min(n, lo + chunk) - lo);
  ChunkTable src(lo, size);
  comm.compute([&] {
    src.fillFromRows(srcRows, "source");
    src.checkComplete("source");
  });
  g_buildStats.ownershipTableBytes += src.tableBytes();
  // Destination ownership info for my chunk.
  const ChunkTable dst =
      chunkTableIntra(comm, dstLib, dstObj, dstSet, n, chunk, "destination");

  // Join; ship send plans to the remote program, recv plans to my own.
  // Cross-program, so every pairing yields a send and a recv record (the
  // rank spaces of the two programs are distinct).
  std::vector<std::vector<SendRun>> sendTo(static_cast<size_t>(ps));
  std::vector<std::vector<RecvRun>> recvTo(static_cast<size_t>(np));
  comm.compute([&] {
    joinToSegs(
        src, dst, [&](int s) { return &sendTo[static_cast<size_t>(s)]; },
        [&](int, int d) { return &recvTo[static_cast<size_t>(d)]; });
  });
  (void)interAlltoall(comm, remoteProgram, sendTo);
  auto myRecvs = comm.alltoall(recvTo);
  comm.compute([&] { assembleRecvsRuns(myRecvs, out.plan); });
  return out;
}

McSchedule buildInterDuplication(transport::Comm& comm,
                                 const LibraryAdapter& myLib,
                                 const DistObject& myObj,
                                 const SetOfRegions& mySet, int remoteProgram,
                                 bool isSender) {
  MC_REQUIRE(myLib.supportsLocalEnumeration(myObj),
             "the duplication method requires locally enumerable "
             "descriptors; use cooperation instead");
  McSchedule out;
  out.remoteProgram = remoteProgram;
  out.isSender = isSender;
  out.plan.bufferLocalCopies = false;
  const Index n = mySet.numElements();
  out.numElements = n;
  handshakeCount(comm, remoteProgram, n);

  // Ship descriptors + sets both ways, then work entirely locally.
  const std::vector<std::byte> mine =
      packRemoteBundle(myLib, myObj, mySet, comm);
  const std::vector<std::byte> theirsBytes =
      exchangeBlob(comm, remoteProgram, mine);
  auto [remoteObj, remoteSet] = unpackRemoteBundle(theirsBytes);
  const LibraryAdapter& remoteLib = adapterFor(remoteObj);
  MC_REQUIRE(remoteSet.numElements() == n,
             "remote set size %lld != local %lld",
             static_cast<long long>(remoteSet.numElements()),
             static_cast<long long>(n));
  comm.advance(2.0 *
               (myLib.modeledElementDereferenceCost(myObj) +
                remoteLib.modeledElementDereferenceCost(remoteObj)) *
               static_cast<double>(n) / comm.size());

  const int me = comm.rank();
  comm.compute([&] {
    const ChunkTable my = rangeTable(myLib, myObj, mySet, 0, n, "local");
    const ChunkTable their =
        rangeTable(remoteLib, remoteObj, remoteSet, 0, n, "remote");
    g_buildStats.ownershipTableBytes += my.tableBytes() + their.tableBytes();
    // Senders pack their own (source) offsets; receivers unpack into their
    // own (destination) offsets.
    PeerLanes byPeer;
    joinTables(my, their, [&](const OwnedRun& m, const OwnedRun& t,
                              Index pos, Index count) {
      if (m.owner == me) {
        byPeer.add(t.owner, OffsetRun{offAt(m, pos), count, m.offStride});
      }
    });
    byPeer.emit(isSender ? out.plan.sends : out.plan.recvs);
  });
  return out;
}

// ---------------------------------------------------------------------------
// Schedule patching (incremental delta rebuild).
//
// The provenance streams are the canonical greedy cut of each rank's
// per-lin segment sequence.  Because every append helper merges only
// lin-contiguous records, re-appending any re-cut of the same sequence
// reproduces the stream bit-identically — so subtracting the delta's
// intervals from the old streams, deriving fresh segments for only the
// migrated intervals, and merging by lin yields exactly what a full
// rebuild of the new distributions would have produced: identical
// provenance AND identical plans.
// ---------------------------------------------------------------------------

SendSeg sliceSendSeg(const SendSeg& g, Index lo, Index hi) {
  SendSeg s = g;
  s.lin = lo;
  s.count = hi - lo;
  s.srcOff = g.srcOff + (lo - g.lin) * g.srcStride;
  s.dstOff = g.dstOff + (lo - g.lin) * g.dstStride;
  return s;
}

RecvSeg sliceRecvSeg(const RecvSeg& g, Index lo, Index hi) {
  RecvSeg s = g;
  s.lin = lo;
  s.count = hi - lo;
  s.dstOff = g.dstOff + (lo - g.lin) * g.dstStride;
  return s;
}

/// Emits the sub-segments of `segs` falling outside the delta's migrated
/// intervals (both inputs sorted by lin and disjoint).  Two-pointer
/// subtraction, O(|segs| + |intervals|).
template <typename Seg, typename Slice, typename Emit>
void subtractDelta(const std::vector<Seg>& segs,
                   const std::vector<layout::LinInterval>& iv, Slice slice,
                   Emit emit) {
  size_t j = 0;
  for (const Seg& g : segs) {
    Index pos = g.lin;
    const Index end = g.lin + g.count;
    while (pos < end) {
      while (j < iv.size() && iv[j].hi <= pos) ++j;
      if (j == iv.size() || iv[j].lo >= end) {
        emit(slice(g, pos, end));
        break;
      }
      if (iv[j].lo > pos) emit(slice(g, pos, iv[j].lo));
      pos = std::min(iv[j].hi, end);
    }
  }
}

/// Merges two lin-sorted disjoint seg streams through the canonical greedy
/// appender.
template <typename Seg, typename Append>
void mergeSegStreams(const std::vector<Seg>& a, const std::vector<Seg>& b,
                     std::vector<Seg>& out, Append append) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i].lin < b[j].lin)) {
      append(out, a[i++]);
    } else {
      append(out, b[j++]);
    }
  }
}

/// Derives this rank's fresh send/recv segments for every delta interval
/// from both new descriptors' delta runs (LibraryAdapter::
/// enumerateDeltaRuns), adding the lookups both sides paid for to
/// `lookups`.  Returns the ownership-table bytes materialized.
std::size_t buildFreshSegs(int me, const LibraryAdapter& srcLib,
                           const DistObject& srcObj, const SetOfRegions& srcSet,
                           const LibraryAdapter& dstLib,
                           const DistObject& dstObj, const SetOfRegions& dstSet,
                           const layout::DistDelta& delta, Index n,
                           std::vector<SendSeg>& sendOut,
                           std::vector<RecvSeg>& recvOut,
                           LookupCharge& lookups) {
  std::vector<ChunkTable> src;
  std::vector<ChunkTable> dst;
  forEachDeltaRange(delta, n, [&](Index lo, Index hi) {
    src.emplace_back(lo, hi - lo);
    dst.emplace_back(lo, hi - lo);
  });
  // Runs arrive in linearization order and never span two intervals, so a
  // cursor routes each to its interval's table.
  const auto fill = [](std::vector<ChunkTable>& tables, const char* side) {
    return [&tables, side, k = std::size_t{0}](
               Index lin, int owner, Index off, Index count,
               Index offStride) mutable {
      while (k < tables.size() && tables[k].lo + tables[k].size <= lin) ++k;
      MC_REQUIRE(k < tables.size(),
                 "%s element at position %lld lies outside the delta", side,
                 static_cast<long long>(lin));
      tables[k].append(lin, owner, off, count, offStride, side);
    };
  };
  const auto charge = [&](const LookupCharge& c) {
    lookups.lookups += c.lookups;
    lookups.seconds += c.seconds;
  };
  charge(srcLib.enumerateDeltaRuns(srcObj, srcSet, delta, fill(src, "source")));
  charge(dstLib.enumerateDeltaRuns(dstObj, dstSet, delta,
                                   fill(dst, "destination")));
  std::size_t tableBytes = 0;
  for (std::size_t k = 0; k < src.size(); ++k) {
    src[k].checkComplete("source");
    dst[k].checkComplete("destination");
    tableBytes += src[k].tableBytes() + dst[k].tableBytes();
    joinOwnSegs(src[k], dst[k], me, sendOut, recvOut);
  }
  return tableBytes;
}

}  // namespace

McSchedule computeSchedule(transport::Comm& comm, const DistObject& srcObj,
                           const SetOfRegions& srcSet,
                           const DistObject& dstObj,
                           const SetOfRegions& dstSet, Method method) {
  ensureBuildMetrics();
  obs::ScopedSpan span(obs::phase::kBuild);
  g_buildStats = BuildStats{};
  const LibraryAdapter& srcLib = adapterFor(srcObj);
  const LibraryAdapter& dstLib = adapterFor(dstObj);
  srcLib.validate(srcObj, srcSet);
  dstLib.validate(dstObj, dstSet);
  const Index n = srcSet.numElements();
  MC_REQUIRE(n == dstSet.numElements(),
             "source and destination sets differ in size (%lld vs %lld)",
             static_cast<long long>(n),
             static_cast<long long>(dstSet.numElements()));
  McSchedule out =
      method == Method::kDuplication
          ? buildIntraDuplication(comm, srcLib, srcObj, srcSet, dstLib, dstObj,
                                  dstSet, n)
          : buildIntraCooperation(comm, srcLib, srcObj, srcSet, dstLib, dstObj,
                                  dstSet, n);
  recordKernelDispatch(out.plan);
  noteBuildDone();
  return out;
}

McSchedule computeScheduleSend(transport::Comm& comm, const DistObject& srcObj,
                               const SetOfRegions& srcSet, int remoteProgram,
                               Method method) {
  ensureBuildMetrics();
  obs::ScopedSpan span(obs::phase::kBuild);
  g_buildStats = BuildStats{};
  const LibraryAdapter& srcLib = adapterFor(srcObj);
  srcLib.validate(srcObj, srcSet);
  McSchedule out =
      method == Method::kDuplication
          ? buildInterDuplication(comm, srcLib, srcObj, srcSet, remoteProgram,
                                  /*isSender=*/true)
          : buildInterCooperationSend(comm, srcLib, srcObj, srcSet,
                                      remoteProgram);
  recordKernelDispatch(out.plan);
  noteBuildDone();
  return out;
}

McSchedule computeScheduleRecv(transport::Comm& comm, const DistObject& dstObj,
                               const SetOfRegions& dstSet, int remoteProgram,
                               Method method) {
  ensureBuildMetrics();
  obs::ScopedSpan span(obs::phase::kBuild);
  g_buildStats = BuildStats{};
  const LibraryAdapter& dstLib = adapterFor(dstObj);
  dstLib.validate(dstObj, dstSet);
  McSchedule out =
      method == Method::kDuplication
          ? buildInterDuplication(comm, dstLib, dstObj, dstSet, remoteProgram,
                                  /*isSender=*/false)
          : buildInterCooperationRecv(comm, dstLib, dstObj, dstSet,
                                      remoteProgram);
  recordKernelDispatch(out.plan);
  noteBuildDone();
  return out;
}

McSchedule reverseSchedule(const McSchedule& sched) {
  McSchedule out;
  out.plan = sched::reverse(sched.plan);
  out.numElements = sched.numElements;
  out.remoteProgram = sched.remoteProgram;
  out.isSender = sched.remoteProgram >= 0 ? !sched.isSender : false;
  return out;
}

bool patchableSchedule(const McSchedule& old, const DistObject& newSrcObj,
                       const DistObject& newDstObj) {
  if (old.remoteProgram >= 0 || !old.hasProvenance) return false;
  const LibraryAdapter& srcLib = adapterFor(newSrcObj);
  const LibraryAdapter& dstLib = adapterFor(newDstObj);
  return srcLib.supportsLocalEnumeration(newSrcObj) &&
         dstLib.supportsLocalEnumeration(newDstObj);
}

McSchedule patchSchedule(transport::Comm& comm, const McSchedule& old,
                         const layout::DistDelta& delta,
                         const DistObject& newSrcObj,
                         const SetOfRegions& srcSet,
                         const DistObject& newDstObj,
                         const SetOfRegions& dstSet) {
  ensureBuildMetrics();
  obs::ScopedSpan span(obs::phase::kBuild);
  g_buildStats = BuildStats{};
  g_patchStats = PatchStats{};
  MC_REQUIRE(old.remoteProgram < 0,
             "patchSchedule handles intra-program schedules only");
  MC_REQUIRE(old.hasProvenance,
             "patchSchedule needs build provenance (intra-program "
             "computeSchedule records it; reversed schedules do not)");
  const LibraryAdapter& srcLib = adapterFor(newSrcObj);
  const LibraryAdapter& dstLib = adapterFor(newDstObj);
  srcLib.validate(newSrcObj, srcSet);
  dstLib.validate(newDstObj, dstSet);
  MC_REQUIRE(srcLib.supportsLocalEnumeration(newSrcObj) &&
                 dstLib.supportsLocalEnumeration(newDstObj),
             "patching is communication-free and needs locally enumerable "
             "descriptors on both sides");
  const Index n = srcSet.numElements();
  MC_REQUIRE(n == dstSet.numElements() && n == old.numElements,
             "patchSchedule set sizes disagree with the cached schedule "
             "(%lld / %lld vs %lld)",
             static_cast<long long>(n),
             static_cast<long long>(dstSet.numElements()),
             static_cast<long long>(old.numElements));

  const int me = comm.rank();
  McSchedule out;
  out.numElements = n;
  out.plan.bufferLocalCopies = false;
  const Index migrated = std::min(n, delta.migratedElements());
  LookupCharge lookups;
  comm.compute([&] {
    std::vector<SendSeg> freshSend;
    std::vector<RecvSeg> freshRecv;
    g_buildStats.ownershipTableBytes +=
        buildFreshSegs(me, srcLib, newSrcObj, srcSet, dstLib, newDstObj,
                       dstSet, delta, n, freshSend, freshRecv, lookups);
    std::vector<SendSeg> keptSend;
    std::vector<RecvSeg> keptRecv;
    subtractDelta(old.sendSegs, delta.intervals(), sliceSendSeg,
                  [&](const SendSeg& s) { keptSend.push_back(s); });
    subtractDelta(old.recvSegs, delta.intervals(), sliceRecvSeg,
                  [&](const RecvSeg& s) { keptRecv.push_back(s); });
    g_patchStats.segmentsReused = keptSend.size() + keptRecv.size();
    g_patchStats.segmentsRebuilt = freshSend.size() + freshRecv.size();
    g_patchStats.elementsPatched = migrated;
    out.sendSegs.reserve(keptSend.size() + freshSend.size());
    out.recvSegs.reserve(keptRecv.size() + freshRecv.size());
    mergeSegStreams(keptSend, freshSend, out.sendSegs,
                    [](std::vector<SendSeg>& lane, const SendSeg& g) {
                      appendSendRun(lane, g);
                    });
    mergeSegStreams(keptRecv, freshRecv, out.recvSegs,
                    [](std::vector<RecvSeg>& lane, const RecvSeg& g) {
                      appendRecvRun(lane, g);
                    });
    assembleFromSegs(out.sendSegs, out.recvSegs, me, out.plan);
  });
  // Each lookup the adapters paid for costs what the duplication build
  // charges per element (2 x cost / nprocs).  A Chaos side pays only its
  // dereference-cache misses, and remap seeds the cache with every
  // migrant, so a drift epoch's patch charges nothing here; against a cold
  // cache every migrated position is one lookup.
  const double lookupSeconds = 2.0 * lookups.seconds / comm.size();
  comm.advance(lookupSeconds);
  g_patchStats.lookupsCharged = lookups.lookups;
  g_patchStats.lookupSeconds = lookupSeconds;
  g_patchLookupsTotal += static_cast<std::uint64_t>(lookups.lookups);
  out.hasProvenance = true;
  recordKernelDispatch(out.plan);
  noteBuildDone();
  ++g_patchCount;
  g_patchElementsTotal += static_cast<std::uint64_t>(migrated);
  return out;
}

layout::DistDelta computeDelta(const DistObject& oldObj,
                               const DistObject& newObj,
                               const SetOfRegions& set) {
  const LibraryAdapter& oldLib = adapterFor(oldObj);
  const LibraryAdapter& newLib = adapterFor(newObj);
  MC_REQUIRE(oldLib.supportsLocalEnumeration(oldObj) &&
                 newLib.supportsLocalEnumeration(newObj),
             "computeDelta needs locally enumerable descriptors");
  const Index n = set.numElements();
  layout::DistDelta delta;
  if (n == 0) return delta;
  const ChunkTable a = rangeTable(oldLib, oldObj, set, 0, n, "old");
  const ChunkTable b = rangeTable(newLib, newObj, set, 0, n, "new");
  joinTables(a, b, [&](const OwnedRun& s, const OwnedRun& d, Index pos,
                       Index count) {
    // A segment is unchanged iff owner and offset progression agree; when
    // only the strides differ some positions may still coincide — marking
    // the whole segment migrated is a safe over-approximation.
    if (s.owner == d.owner && offAt(s, pos) == offAt(d, pos) &&
        (count == 1 || s.offStride == d.offStride)) {
      return;
    }
    delta.add(pos, pos + count);
  });
  return delta;
}

layout::DistDelta deltaFromMigratedIndices(
    const SetOfRegions& set, std::span<const layout::Index> sortedMigrated) {
  layout::DistDelta delta;
  if (sortedMigrated.empty()) return delta;
  const auto migrated = [&](Index g) {
    return std::binary_search(sortedMigrated.begin(), sortedMigrated.end(), g);
  };
  Index lin = 0;
  for (const Region& r : set.regions()) {
    switch (r.kind()) {
      case Region::Kind::kIndices: {
        const std::vector<Index>& ids = r.asIndices();
        for (size_t k = 0; k < ids.size(); ++k) {
          if (migrated(ids[k])) {
            delta.add(lin + static_cast<Index>(k),
                      lin + static_cast<Index>(k) + 1);
          }
        }
        break;
      }
      case Region::Kind::kRange: {
        const ElementRange& er = r.asRange();
        const Index cnt = er.numElements();
        for (Index k = 0; k < cnt; ++k) {
          if (migrated(er.at(k))) delta.add(lin + k, lin + k + 1);
        }
        break;
      }
      case Region::Kind::kSection:
        MC_REQUIRE(false,
                   "deltaFromMigratedIndices supports index-list and range "
                   "regions (their elements are global indices); use "
                   "computeDelta for section sets");
    }
    lin += r.numElements();
  }
  return delta;
}

sched::Schedule buildRedistMove(transport::Comm& comm,
                                const DistObject& oldObj,
                                const DistObject& newObj,
                                const SetOfRegions& set,
                                const layout::DistDelta& delta) {
  ensureBuildMetrics();
  obs::ScopedSpan span(obs::phase::kBuild);
  g_buildStats = BuildStats{};
  const LibraryAdapter& oldLib = adapterFor(oldObj);
  const LibraryAdapter& newLib = adapterFor(newObj);
  MC_REQUIRE(oldLib.supportsLocalEnumeration(oldObj) &&
                 newLib.supportsLocalEnumeration(newObj),
             "buildRedistMove needs locally enumerable descriptors");
  const Index n = set.numElements();
  const int me = comm.rank();
  sched::Schedule plan;
  plan.bufferLocalCopies = false;
  const Index migrated = std::min(n, delta.migratedElements());
  comm.advance(2.0 *
               (oldLib.modeledElementDereferenceCost(oldObj) +
                newLib.modeledElementDereferenceCost(newObj)) *
               static_cast<double>(migrated) / comm.size());
  comm.compute([&] {
    std::vector<SendSeg> sendSegs;
    std::vector<RecvSeg> recvSegs;
    forEachDeltaRange(delta, n, [&](Index lo, Index hi) {
      const ChunkTable src = rangeTable(oldLib, oldObj, set, lo, hi, "old");
      const ChunkTable dst = rangeTable(newLib, newObj, set, lo, hi, "new");
      g_buildStats.ownershipTableBytes += src.tableBytes() + dst.tableBytes();
      joinOwnSegs(src, dst, me, sendSegs, recvSegs);
    });
    assembleFromSegs(sendSegs, recvSegs, me, plan);
  });
  recordKernelDispatch(plan);
  noteBuildDone();
  return plan;
}

const BuildStats& lastBuildStats() { return g_buildStats; }

const PatchStats& lastPatchStats() { return g_patchStats; }

}  // namespace mc::core
