// Benchmark program: runs one workload through the libraries' public calls,
// checks every op against an oracle and prints the metrics as one JSON line
// (the last line of stdout).
//
//   perfbench --workload coupled_cfd|remap_rebuild|matvec_service
//                    --seed N --seconds S --trace 0|1
//                    [--ops N] [--git-sha SHA]
//   perfbench --self-test
//
// --trace 0 prints the end-to-end metrics, all on the virtual clock except
// setup_s and peak_rss_mb; --trace 1 prints the per-layer metrics from a
// traced world beside an untraced one.  --ops runs a fixed number of ops
// instead of a time budget and adds an exact-count digest to the metadata
// line (the determinism check compares it across runs).  See README.md.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "util/timer.h"
#include "workloads.h"

using namespace perfbench;

namespace {

constexpr long kCoupledSide = 512;
constexpr long kRemapSide = 256;
constexpr int kSpmdRanks = 3;
constexpr long kServiceN = 2048;
constexpr int kServiceThreads = 4;  // 2 server ranks + 2 clients
/// Worlds that measure set-up in one --trace 0 run (the last also times ops).
constexpr int kSetupTrials = 9;
/// Timed ops per run at least, so p90 keeps >= 10 samples beyond it.
constexpr long kMinOps = 100;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  long ops = 0;
  bool selfTest = false;
  std::string gitSha = "unknown";
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// All 17 significant digits: the result line carries values as measured
/// (obs::JsonWriter rounds to 9).  Every metric is finite by construction.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

/// A workload bound to its seeded inputs.
struct Workload {
  int threads = 0;  // one per rank of a world
  double genSeconds = 0;
  std::function<WorldOutcome(const WorldPlan&)> run;
};

bool makeWorkload(const std::string& name, std::uint64_t seed, Workload& w) {
  const double t0 = mc::wallSeconds();
  if (name == "coupled_cfd" || name == "remap_rebuild") {
    const bool remap = name == "remap_rebuild";
    auto in = makeCoupledInputs(remap ? kRemapSide : kCoupledSide,
                                kSpmdRanks, seed, /*replicated=*/remap);
    w.threads = kSpmdRanks;
    w.run = [in, remap](const WorldPlan& p) {
      return remap ? runRemapRebuild(*in, p) : runCoupledCfd(*in, p);
    };
  } else if (name == "matvec_service") {
    w.threads = kServiceThreads;
    w.run = [](const WorldPlan& p) { return runMatvecService(kServiceN, p); };
  } else {
    return false;
  }
  w.genSeconds = mc::wallSeconds() - t0;
  return true;
}

long countFailed(const WorldOutcome& o) {
  long failed = 0;
  for (bool f : o.opFailed) failed += f ? 1 : 0;
  return failed;
}

/// FNV-1a over the exact per-op counts of every measured rank: messages,
/// bytes, builds, kernel executions, schedule-cache and dereference-cache
/// hits and misses, patches.  Timing-dependent counters are left out.
std::uint64_t countsDigest(const WorldOutcome& o) {
  std::uint64_t h = 1469598103934665603ull;
  const auto add = [&h](double v) {
    const auto x = static_cast<std::uint64_t>(static_cast<long long>(v));
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const auto& rank : o.rankCounters) {
    add(static_cast<double>(rank.size()));
    for (const Counters& c : rank) {
      for (double v : {c.messages, c.bytes, c.builds, c.kernelExec, c.schedHits,
                       c.schedMisses, c.derefHits, c.derefMisses, c.patches,
                       c.patchFallbacks}) {
        add(v);
      }
    }
  }
  return h;
}

std::vector<Metric> endToEnd(const std::vector<WorldOutcome>& worlds,
                             const WorldOutcome& timed) {
  std::vector<double> setupWall, setupVirtual;
  for (const WorldOutcome& w : worlds) {
    setupWall.push_back(w.setupWall);
    setupVirtual.push_back(w.setupVirtual);
  }
  return {
      {"setup_s", quantile(setupWall, 0.5), "s"},
      {"setup_virtual_s", quantile(setupVirtual, 0.5), "s"},
      {"op_virtual_s.p50", quantile(timed.opVirtual, 0.5), "s"},
      {"op_virtual_s.p90", quantile(timed.opVirtual, 0.9), "s"},
      {"peak_rss_mb",
       timed.rssAtMinOpsMb > 0 ? timed.rssAtMinOpsMb : timed.rssEndMb, "MB"},
  };
}

std::vector<Metric> perLayer(const Workload& w, const WorldOutcome& plain,
                             const WorldOutcome& traced) {
  const double ops = static_cast<double>(traced.opVirtual.size());
  Counters sum;
  for (const Counters& c : traced.opCounters) sum += c;
  const TraceTotals& t = traced.opTrace;
  const double rankOps = t.ops > 0 ? static_cast<double>(t.ops) : 1.0;
  const double ranks = traced.measuredRanks > 0 ? traced.measuredRanks : 1;
  const auto find = [](const std::map<std::string, double>& m,
                       const std::string& key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  // Per-op figures are means over ops (counters summed over ranks) or over
  // (rank, op) pairs (spans); set-up spans are means over ranks.
  const auto perOp = [&](double v) { return ratio(v, ops); };
  const auto span = [&](const char* name) {
    return find(t.layers.byName, name) / rankOps;
  };
  const auto setupSpan = [&](const char* name) {
    return find(traced.setupLayers.byName, name) / ranks;
  };
  const auto extra = [&](const char* key) { return find(traced.extra, key); };
  const double plainWall = quantile(plain.opWall, 0.5);
  const double plainOps = static_cast<double>(plain.opWall.size());

  std::vector<Metric> m;
  const auto add = [&m](const std::string& name, double v, const char* unit) {
    m.push_back({name, v, unit});
  };
  add("transport.messages_per_op", perOp(sum.messages), "count");
  add("transport.bytes_per_op", perOp(sum.bytes), "B");
  add("transport.recv_wait_s_per_op", perOp(sum.recvWaitSeconds), "s");
  add("transport.pool.allocations_per_op", perOp(sum.poolAllocations),
      "count");
  add("sched.pack_virtual_s", span("pack"), "s");
  add("sched.unpack_virtual_s", span("unpack"), "s");
  add("sched.apply_virtual_s", span("apply"), "s");
  add("sched.recv_wait_virtual_s", span("recvWait"), "s");
  add("sched.kernel_exec_per_op", perOp(sum.kernelExec), "count");
  add("core.build_virtual_s", span("build"), "s");
  add("core.patch_virtual_s", span("core.patch"), "s");
  add("core.data_move_virtual_s", span("core.data_move"), "s");
  add("core.sched_cache.hit_rate",
      ratio(sum.schedHits, sum.schedHits + sum.schedMisses), "ratio");
  add("core.patches", perOp(sum.patches), "count");
  add("core.patch_fallbacks", perOp(sum.patchFallbacks), "count");
  add("build.count_per_op", perOp(sum.builds), "count");
  add("parti.stencil_virtual_s", span("parti.stencil"), "s");
  add("parti.ghost_inspector_virtual_s", setupSpan("parti.ghost_inspector"),
      "s");
  for (const char* call :
       {"edge_sweep", "localize", "ttable_build", "remap"}) {
    const std::string name = std::string("chaos.") + call;
    add(name + "_virtual_s", span(name.c_str()), "s");
  }
  add("chaos.derefs_per_op", perOp(sum.derefHits + sum.derefMisses), "count");
  add("chaos.deref_cache.hit_rate",
      ratio(sum.derefHits, sum.derefHits + sum.derefMisses), "ratio");
  add("layout.delta_virtual_s", span("layout.delta"), "s");
  add("layout.migration_frac", extra("layout.migration_frac"), "ratio");
  add("chaos.partition_cpu_s", extra("chaos.partition_cpu_s"), "s");
  for (const char* key :
       {"server.compute_virtual_s.p50", "server.wait_virtual_s.p50",
        "server.wait_virtual_s.p90", "server.attach_virtual_s",
        "server.matrix_ship_virtual_s"}) {
    add(key, extra(key), "s");
  }
  add("server.share_hit_rate", extra("server.share_hit_rate"), "ratio");
  add("server.batches_per_request", extra("server.batches_per_request"),
      "ratio");
  for (const char* key :
       {"server.batch_occupancy_mean", "server.rejected", "server.deferred",
        "server.queue_max_depth"}) {
    add(key, extra(key), "count");
  }
  add("setup.core.build_virtual_s", setupSpan("build"), "s");
  for (const char* name :
       {"chaos.localize", "chaos.ttable_build", "server.attach"}) {
    add(std::string("setup.") + name + "_virtual_s", setupSpan(name), "s");
  }
  add("meshgen.gen_s", w.genSeconds, "s");
  add("obs.trace_overhead_frac",
      plainWall > 0 ? quantile(traced.opWall, 0.5) / plainWall - 1.0 : 0.0,
      "ratio");
  add("layers.unattributed_virtual_s", t.unattributed / rankOps, "s");
  add("layers.reconcile_violations",
      static_cast<double>(t.layers.violations), "count");
  add("host.ops_per_s", ratio(plainOps, plain.loopSeconds), "1/s");
  add("host.op_wall_s.p50", plainWall, "s");
  add("host.cpu_s_per_op", ratio(plain.cpuSeconds, plainOps), "s");
  add("host.rss_growth_mb_per_op",
      ratio(plain.rssEndMb - plain.rssAtMinOpsMb,
            plainOps - static_cast<double>(kMinOps / 2)),
      "MB");
  for (const char* layer :
       {"parti", "chaos", "core", "sched", "layout", "server"}) {
    add(std::string("layers.") + layer + ".self_virtual_s",
        find(t.layers.selfByLayer, layer) / rankOps, "s");
  }
  return m;
}

void printResult(bool correct, long attempted, long failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += jsonString(metrics[i].name) +
           ": {\"value\": " + num(metrics[i].value) +
           ", \"unit\": " + jsonString(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Corrupts one value in op 1 of a short run of every workload and checks
/// that exactly that op is counted as failed.
int selfTest(std::uint64_t seed) {
  bool all = true;
  for (const char* name : {"coupled_cfd", "remap_rebuild", "matvec_service"}) {
    Workload w;
    makeWorkload(name, seed, w);
    WorldPlan plan;
    plan.seed = seed;
    plan.maxOps = plan.minOps = 4;
    plan.corruptOp = 1;
    const WorldOutcome o = w.run(plan);
    const long failed = countFailed(o);
    const bool caught = failed == 1 && o.opFailed.size() == 4 && o.opFailed[1];
    std::printf("self-test %-15s ops=%zu failed=%ld -> %s\n", name,
                o.opFailed.size(), failed, caught ? "detected" : "MISSED");
    all = all && caught;
  }
  return all ? 0 : 1;
}

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a.selfTest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
    } else if (k == "--ops") {
      a.ops = std::atol(v);
    } else if (k == "--git-sha") {
      a.gitSha = v;
    } else {
      return false;
    }
  }
  return a.selfTest || (!a.workload.empty() && a.seconds > 0 &&
                        (a.trace == 0 || a.trace == 1) && a.ops >= 0);
}

int run(const Args& a) {
  if (a.selfTest) return selfTest(a.seed);
  Workload w;
  if (!makeWorkload(a.workload, a.seed, w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  // Timed runs keep one thread per CPU: an oversubscribed world would
  // charge scheduling delays into the measured thread-CPU compute.  The
  // fixed-count mode reports counts only, so it may run pinned.
  const int cpus = usableCpus();
  if (a.ops == 0 && w.threads > cpus) {
    std::fprintf(stderr,
                 "refusing to run: a %s world needs %d threads but only %d "
                 "CPUs are usable\n",
                 a.workload.c_str(), w.threads, cpus);
    return 3;
  }

  WorldPlan plan;
  plan.seed = a.seed;
  std::vector<Metric> metrics;
  long attempted = 0, failed = 0, violations = 0;
  std::string digest;
  if (a.ops > 0) {
    plan.maxOps = plan.minOps = a.ops;
    const WorldOutcome o = w.run(plan);
    metrics = endToEnd({o}, o);
    attempted = static_cast<long>(o.opVirtual.size());
    failed = countFailed(o);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(countsDigest(o)));
    digest = buf;
  } else if (a.trace == 0) {
    std::vector<WorldOutcome> worlds;
    plan.maxOps = 0;
    for (int t = 0; t + 1 < kSetupTrials; ++t) worlds.push_back(w.run(plan));
    plan.maxOps = -1;
    plan.budgetSeconds = a.seconds;
    plan.minOps = kMinOps;
    worlds.push_back(w.run(plan));
    metrics = endToEnd(worlds, worlds.back());
    attempted = static_cast<long>(worlds.back().opVirtual.size());
    failed = countFailed(worlds.back());
  } else {
    plan.budgetSeconds = a.seconds / 2;
    plan.minOps = kMinOps / 2;
    const WorldOutcome plain = w.run(plan);
    plan.trace = true;
    const WorldOutcome traced = w.run(plan);
    metrics = perLayer(w, plain, traced);
    attempted =
        static_cast<long>(plain.opVirtual.size() + traced.opVirtual.size());
    failed = countFailed(plain) + countFailed(traced);
    violations = traced.opTrace.layers.violations;
  }

  std::string meta = "{\"meta\": {\"workload\": " + jsonString(a.workload) +
                     ", \"seed\": " + std::to_string(a.seed) +
                     ", \"nproc\": " + std::to_string(cpus) +
                     ", \"compiler\": " + jsonString(PERFBENCH_COMPILER) +
                     ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
                     ", \"git_sha\": " + jsonString(a.gitSha) +
                     ", \"ranks_per_world\": " +
                     std::to_string(w.threads) +
                     ", \"timed_ops\": " + std::to_string(attempted) +
                     ", \"run_seconds\": " + num(a.seconds) +
                     ", \"trace\": " + std::to_string(a.trace);
  if (!digest.empty()) meta += ", \"counts_digest\": " + jsonString(digest);
  std::printf("%s}}\n", meta.c_str());
  const bool correct = failed == 0 && violations == 0 && attempted > 0;
  printResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold returns every large block to the system when it
  // is freed; glibc's adaptive threshold would otherwise keep some in the
  // heap depending on free order, and peak RSS would vary run to run.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  Args a;
  if (!parseArgs(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--ops N] [--git-sha SHA] | --self-test\n",
                 argv[0]);
    return 2;
  }
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
}
