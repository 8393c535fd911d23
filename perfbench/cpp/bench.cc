#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>

#include "core/schedule_cache.h"
#include "util/timer.h"

namespace perfbench {

namespace {

constexpr double kEps = 1e-9;

#define PERFBENCH_COUNTER_FIELDS(X)                                         \
  X(messages) X(bytes) X(recvWaitSeconds) X(poolAllocations) X(kernelExec)  \
  X(builds) X(schedHits) X(schedMisses) X(derefHits) X(derefMisses)         \
  X(patches) X(patchFallbacks)

/// Layer of a span: the benchmark's spans carry it as a name prefix; the libraries'
/// phase spans are executor (sched) or builder (core) work, and compute
/// spans belong to whichever layer's call they ran in.
std::string layerOf(const char* name, const std::string& parentLayer) {
  const char* dot = std::strchr(name, '.');
  if (dot != nullptr) return std::string(name, dot);
  if (std::strcmp(name, mc::obs::phase::kBuild) == 0) return "core";
  if (std::strcmp(name, mc::obs::phase::kCompute) == 0) {
    return parentLayer.empty() ? "compute" : parentLayer;
  }
  return "sched";
}

}  // namespace

Counters operator-(const Counters& a, const Counters& b) {
  Counters d;
#define X(f) d.f = a.f - b.f;
  PERFBENCH_COUNTER_FIELDS(X)
#undef X
  return d;
}

Counters& operator+=(Counters& a, const Counters& b) {
#define X(f) a.f += b.f;
  PERFBENCH_COUNTER_FIELDS(X)
#undef X
  return a;
}

Counters sampleCounters() {
  const mc::obs::Snapshot s = mc::obs::threadRegistry().snapshot();
  const auto get = [&s](const char* key) {
    const auto it = s.values.find(key);
    return it == s.values.end() ? 0.0 : it->second;
  };
  const mc::core::ScheduleCache& cache = mc::core::defaultScheduleCache();
  Counters c;
  c.messages = get("transport.messages_sent");
  c.bytes = get("transport.bytes_sent");
  c.recvWaitSeconds = get("transport.recv_wait_seconds");
  c.poolAllocations = get("transport.pool.allocations");
  c.kernelExec = get("kernel.exec.contiguous") + get("kernel.exec.strided") +
                 get("kernel.exec.run_list") + get("kernel.exec.index_list");
  c.builds = get("build.count");
  c.schedHits = get("core.sched_cache.hits");
  c.schedMisses = get("core.sched_cache.misses");
  c.derefHits = get("localize.deref_cache.hits");
  c.derefMisses = get("localize.deref_cache.misses");
  c.patches = static_cast<double>(cache.patches());
  c.patchFallbacks = static_cast<double>(cache.patchFallbacks());
  return c;
}

LayerTimes attributeSpans(const std::vector<mc::obs::SpanRecord>& spans,
                          double t0, double t1) {
  LayerTimes lt;
  const std::size_t n = spans.size();
  std::vector<int> parent(n, -1);
  std::vector<double> childSum(n, 0.0);
  std::vector<std::string> layer(n);
  std::vector<int> open;  // open[d] = latest span seen at depth d
  for (std::size_t i = 0; i < n; ++i) {
    const mc::obs::SpanRecord& s = spans[i];
    const std::size_t d = static_cast<std::size_t>(s.depth);
    if (d > open.size()) {  // a parent began before this op
      ++lt.violations;
      continue;
    }
    open.resize(d);
    const int p = d > 0 ? open[d - 1] : -1;
    open.push_back(static_cast<int>(i));
    parent[i] = p;
    const double dur = s.virtualSeconds();
    if (dur < -kEps || s.virtualBegin < t0 - kEps || s.virtualEnd > t1 + kEps) {
      ++lt.violations;
    }
    layer[i] = layerOf(s.name, p >= 0 ? layer[static_cast<std::size_t>(p)]
                                      : std::string());
    if (p >= 0) {
      childSum[static_cast<std::size_t>(p)] += dur;
    } else {
      lt.topLevel += dur;
    }
    // Outermost span of its name: nested same-name spans (a build inside a
    // build) would otherwise count twice.
    bool outermost = true;
    for (int a = p; a >= 0; a = parent[static_cast<std::size_t>(a)]) {
      if (std::strcmp(spans[static_cast<std::size_t>(a)].name, s.name) == 0) {
        outermost = false;
        break;
      }
    }
    if (outermost) lt.byName[s.name] += dur;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (layer[i].empty()) continue;  // skipped orphan
    const double self = spans[i].virtualSeconds() - childSum[i];
    if (self < -kEps) ++lt.violations;
    lt.selfByLayer[layer[i]] += self;
  }
  return lt;
}

void accumulate(LayerTimes& into, const LayerTimes& from) {
  for (const auto& [k, v] : from.selfByLayer) into.selfByLayer[k] += v;
  for (const auto& [k, v] : from.byName) into.byName[k] += v;
  into.topLevel += from.topLevel;
  into.violations += from.violations;
}

void TraceTotals::addOp(const LayerTimes& op, double opSeconds) {
  accumulate(layers, op);
  const double rest = opSeconds - op.topLevel;
  if (rest < -kEps) ++layers.violations;
  // Reconciliation: the layers' self times sum to the depth-0 spans, which
  // with the remainder make up the op.
  double self = 0;
  for (const auto& [k, v] : op.selfByLayer) self += v;
  if (std::abs(self + rest - opSeconds) > kEps * (1.0 + opSeconds)) {
    ++layers.violations;
  }
  unattributed += rest;
  ops += 1;
}

void TraceTotals::merge(const TraceTotals& other) {
  accumulate(layers, other.layers);
  unattributed += other.unattributed;
  ops += other.ops;
}

OpLoop::OpLoop(mc::transport::Comm& comm, const WorldPlan& plan,
               HostBarrier& barrier, double launchWall, bool* continueFlag)
    : comm_(comm),
      plan_(plan),
      barrier_(barrier),
      launchWall_(launchWall),
      continue_(continueFlag) {}

void OpLoop::endSetup() {
  comm_.barrier();
  log_.setupVirtual = comm_.now();
  log_.setupWall = mc::wallSeconds() - launchWall_;
  if (plan_.trace) {
    log_.setupLayers = attributeSpans(mc::obs::threadRegistry().takeSpans(),
                                      0.0, comm_.now());
  }
  loopStartWall_ = mc::wallSeconds();
  loopStartCpu_ = processCpuSeconds();
}

bool OpLoop::next() {
  if (comm_.rank() == 0) {
    const long done = opIndex();
    bool more = false;
    if (plan_.maxOps < 0 || done < plan_.maxOps) {
      more = done < plan_.minOps ||
             mc::wallSeconds() - loopStartWall_ < plan_.budgetSeconds;
    }
    *continue_ = more;
  }
  barrier_.arrive_and_wait();
  const bool more = *continue_;
  barrier_.arrive_and_wait();
  if (!more && comm_.rank() == 0) {
    log_.loopCpu = processCpuSeconds() - loopStartCpu_;
    log_.loopWall = mc::wallSeconds() - loopStartWall_;
  }
  return more;
}

void OpLoop::beginOp() {
  comm_.barrier();
  if (plan_.trace) mc::obs::threadRegistry().clearSpans();
  RankOp op;
  op.t0 = comm_.now();
  before_ = sampleCounters();
  wall0_ = mc::wallSeconds();
  log_.ops.push_back(op);
}

void OpLoop::endOp(bool bad) {
  comm_.barrier();
  RankOp& op = log_.ops.back();
  op.t1 = comm_.now();
  op.wall = mc::wallSeconds() - wall0_;
  op.delta = sampleCounters() - before_;
  op.bad = bad;
  if (plan_.trace) {
    log_.trace.addOp(attributeSpans(mc::obs::threadRegistry().takeSpans(),
                                    op.t0, op.t1),
                     op.t1 - op.t0);
  }
  if (comm_.rank() == 0 && opIndex() == plan_.minOps) {
    log_.rssAtMinOpsMb = peakRssMb();
  }
}

void mergeRankLogs(const std::vector<RankLog>& logs, WorldOutcome& out) {
  const std::size_t nOps = logs.front().ops.size();
  out.measuredRanks = static_cast<int>(logs.size());
  out.setupWall = logs.front().setupWall;
  out.cpuSeconds = logs.front().loopCpu;
  out.loopSeconds = logs.front().loopWall;
  out.rssAtMinOpsMb = logs.front().rssAtMinOpsMb;
  out.rssEndMb = peakRssMb();
  out.rankCounters.assign(logs.size(), {});
  for (std::size_t r = 0; r < logs.size(); ++r) {
    out.setupVirtual = std::max(out.setupVirtual, logs[r].setupVirtual);
    accumulate(out.setupLayers, logs[r].setupLayers);
    out.opTrace.merge(logs[r].trace);
    for (const RankOp& op : logs[r].ops) {
      out.rankCounters[r].push_back(op.delta);
    }
  }
  for (std::size_t i = 0; i < nOps; ++i) {
    double t0 = 0, t1 = 0;
    bool failed = false;
    Counters sum;
    for (const RankLog& log : logs) {
      const RankOp& op = log.ops[i];
      t0 = std::max(t0, op.t0);
      t1 = std::max(t1, op.t1);
      failed = failed || op.bad;
      sum += op.delta;
    }
    // The buffer pool is world-wide: every rank samples the same counter.
    sum.poolAllocations = logs.front().ops[i].delta.poolAllocations;
    out.opVirtual.push_back(t1 - t0);
    out.opWall.push_back(logs.front().ops[i].wall);
    out.opFailed.push_back(failed);
    out.opCounters.push_back(sum);
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

int usableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace perfbench
