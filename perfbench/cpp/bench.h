// Shared pieces of the benchmark program: run plans, per-op records, counter
// sampling, span accounting and the host-side barrier the oracles use.
//
// Every workload runs its worlds in this one process.  Ranks are threads, so
// the oracles exchange data through plain host memory guarded by a
// std::barrier: that traffic never enters the transport, so it moves no
// message counter and no virtual clock.
#pragma once

#include <barrier>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "transport/comm.h"

namespace perfbench {

/// How long one world measures and what it records.
struct WorldPlan {
  double budgetSeconds = 0;  // measure at least this long (wall)...
  long minOps = 0;           // ...and at least this many ops (peak RSS is
                             // read when this many have ended)
  long maxOps = -1;          // hard stop (-1 = none); 0 = setup only
  bool trace = false;        // record spans (per-layer run)
  long corruptOp = -1;       // self-test: corrupt one value in this op
  std::uint64_t seed = 1;
};

/// Selected obs counters of one rank (monotone; diffs give per-op costs).
struct Counters {
  double messages = 0;
  double bytes = 0;
  double recvWaitSeconds = 0;
  double poolAllocations = 0;
  double kernelExec = 0;
  double builds = 0;
  double schedHits = 0;
  double schedMisses = 0;
  double derefHits = 0;
  double derefMisses = 0;
  double patches = 0;
  double patchFallbacks = 0;
};
Counters operator-(const Counters& a, const Counters& b);
Counters& operator+=(Counters& a, const Counters& b);

/// Samples the calling rank's counters (its thread registry plus the
/// per-rank schedule cache's patch counts).
Counters sampleCounters();

/// Per-op virtual time attributed from the spans of one rank.  The benchmark's spans
/// are named "<layer>.<call>"; the libraries' own phase spans map to sched
/// (pack/send/recvWait/unpack/apply), core (build) or, for compute, the
/// enclosing layer.
struct LayerTimes {
  std::map<std::string, double> selfByLayer;  // layer -> self time
  std::map<std::string, double> byName;  // span name -> outermost duration
  double topLevel = 0;                   // sum of depth-0 spans
  long violations = 0;  // spans outside the op or children past parents
};

/// Attributes `spans` recorded on one rank between virtual times t0 and t1.
LayerTimes attributeSpans(const std::vector<mc::obs::SpanRecord>& spans,
                          double t0, double t1);
void accumulate(LayerTimes& into, const LayerTimes& from);

/// One rank's view of one timed op.
struct RankOp {
  double t0 = 0, t1 = 0;  // virtual clock at op start / end
  double wall = 0;        // wall seconds (recorded where the op is timed)
  bool bad = false;       // an oracle check failed on this rank
  Counters delta;
};

/// Span attribution of one rank, summed over its traced ops.  Per op, the
/// depth-0 spans plus the unattributed remainder make up the op's virtual
/// time on that rank; a negative remainder is a violation.
struct TraceTotals {
  LayerTimes layers;
  double unattributed = 0;
  long ops = 0;
  void addOp(const LayerTimes& op, double opSeconds);
  void merge(const TraceTotals& other);
};

/// Everything one world reports back to main().
struct WorldOutcome {
  double setupWall = 0;
  double setupVirtual = 0;
  // Per op, merged over the measured ranks.
  std::vector<double> opVirtual;
  std::vector<double> opWall;
  std::vector<bool> opFailed;
  std::vector<Counters> opCounters;  // summed over measured ranks
  // Per measured rank and op, for the exact-count digest.
  std::vector<std::vector<Counters>> rankCounters;
  // Span attribution summed over ranks (ops: over traced (rank, op) pairs).
  TraceTotals opTrace;
  LayerTimes setupLayers;
  int measuredRanks = 0;
  // Workload-specific figures (name -> value), already per op or per run.
  std::map<std::string, double> extra;
  double cpuSeconds = 0;   // process CPU over the timed loop
  double loopSeconds = 0;  // wall seconds of the timed loop
  // Peak RSS when plan.minOps ops had ended (a fixed amount of work, so
  // the figure does not depend on how many ops fit in the time budget),
  // and when the world ended.
  double rssAtMinOpsMb = 0;
  double rssEndMb = 0;
};

/// Host-side barrier shared by one world's measured ranks.
using HostBarrier = std::barrier<>;

/// What one rank of an SPMD world hands back when its thread ends.
struct RankLog {
  std::vector<RankOp> ops;
  TraceTotals trace;
  LayerTimes setupLayers;
  double setupWall = 0;     // world launch -> end of setup (wall)
  double setupVirtual = 0;  // virtual clock at the end of setup
  double loopCpu = 0;       // process CPU over the timed loop (rank 0)
  double loopWall = 0;      // wall seconds of the timed loop (rank 0)
  double rssAtMinOpsMb = 0;  // see WorldOutcome (rank 0)
};

/// Timed-op protocol for SPMD worlds: every op starts and ends with a
/// transport barrier, so its virtual time is barrier to barrier, and rank 0
/// decides through host memory whether another op runs.
class OpLoop {
 public:
  OpLoop(mc::transport::Comm& comm, const WorldPlan& plan,
         HostBarrier& barrier, double launchWall, bool* continueFlag);

  /// Ends the setup phase: a transport barrier, then the setup clocks.
  void endSetup();
  /// Host consensus on whether another op runs.
  bool next();
  void beginOp();
  void endOp(bool bad);

  long opIndex() const { return static_cast<long>(log_.ops.size()); }
  RankLog& log() { return log_; }

 private:
  mc::transport::Comm& comm_;
  WorldPlan plan_;
  HostBarrier& barrier_;
  double launchWall_;
  bool* continue_;
  double loopStartWall_ = 0, loopStartCpu_ = 0;
  Counters before_;
  double wall0_ = 0;
  RankLog log_;
};

/// Merges the per-rank logs of an SPMD world into `out`: op virtual time
/// is the maximum end clock minus the maximum start clock over ranks.
void mergeRankLogs(const std::vector<RankLog>& logs, WorldOutcome& out);

/// Linear-interpolated quantile q in [0, 1] (0 for an empty sample).
double quantile(std::vector<double> v, double q);

/// Peak resident set of the process so far, in MB.
double peakRssMb();

/// Process CPU seconds (all threads).
double processCpuSeconds();

/// Number of CPUs this process may run on (what `nproc` prints).
int usableCpus();

/// Deterministic 64-bit mixing for seeded input generation.
std::uint64_t mix64(std::uint64_t x);

}  // namespace perfbench
