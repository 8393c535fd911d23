// matvec_service: the Section 5.4 compute server.  A 2-rank HPF matvec
// server on ATM-class inter-program links (contention on) serves two
// single-rank clients in a closed loop with no think time: each client
// sends its next request only after the previous reply.  Both clients
// present one operand layout and one matrix, so the first attach builds
// schedules and ships the matrix and the second is a sharing hit.
//
// Oracle (every request): the client compares y against its own A x.
#include <algorithm>
#include <cmath>

#include "obs/span.h"
#include "server/client_session.h"
#include "server/compute_server.h"
#include "transport/world.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {

using mc::layout::Index;
using mc::layout::Point;
using mc::obs::ScopedSpan;

namespace {

constexpr int kServerRanks = 2;
constexpr int kClients = 2;

/// One client's record of the run.
struct ClientLog {
  std::vector<RankOp> ops;
  std::vector<double> computeSeconds;  // server compute share per request
  TraceTotals trace;
  LayerTimes setupLayers;
  mc::server::AttachStats attach;
  double setupWall = 0, setupVirtual = 0, loopCpu = 0, loopWall = 0;
  double rssAtMinOpsMb = 0;
};

/// Relative tolerance of the A x comparison: the server sums each row in
/// its own column order, so results agree to rounding, not bitwise.
constexpr double kTolerance = 1e-12;

bool checkProduct(long n, std::span<const double> a, std::span<const double> x,
                  std::span<const double> y) {
  bool ok = true;
  for (long i = 0; i < n; ++i) {
    double sum = 0, mag = 0;
    const double* row = a.data() + i * n;
    for (long j = 0; j < n; ++j) {
      sum += row[j] * x[static_cast<std::size_t>(j)];
      mag += std::abs(row[j] * x[static_cast<std::size_t>(j)]);
    }
    const double err = std::abs(y[static_cast<std::size_t>(i)] - sum);
    if (!(err <= kTolerance * (mag + 1.0))) ok = false;
  }
  return ok;
}

}  // namespace

WorldOutcome runMatvecService(long n, const WorldPlan& plan) {
  std::vector<ClientLog> logs(kClients);
  mc::server::ServerStats stats;
  HostBarrier clientBarrier(kClients);

  mc::transport::WorldOptions options;
  options.net.interProgram = mc::transport::atmParams();
  options.net.contention = true;
  options.net.nodesPerProgram = {kServerRanks, 1, 1};

  // Per-client share of the op count limits.
  const long minOps = (plan.minOps + kClients - 1) / kClients;
  const long maxOps =
      plan.maxOps < 0 ? -1 : (plan.maxOps + kClients - 1) / kClients;

  std::vector<mc::transport::ProgramSpec> specs;
  specs.push_back({"server", kServerRanks, [&](mc::transport::Comm& c) {
    mc::server::ServerConfig cfg;
    cfg.n = n;
    cfg.totalSessions = kClients;
    mc::server::ComputeServer srv(c, cfg);
    srv.run();
    if (c.rank() == 0) stats = srv.stats();
  }});
  mc::obs::setEnabled(plan.trace);
  const double launch = mc::wallSeconds();
  for (int i = 0; i < kClients; ++i) {
    const auto client = [&, i](mc::transport::Comm& c) {
      ClientLog& log = logs[static_cast<std::size_t>(i)];
      mc::server::SessionConfig scfg;
      scfg.n = n;
      scfg.serverProgram = 0;
      mc::server::ClientSession session(c, scfg);
      // Attaches in a fixed order: client 0 builds and ships the matrix,
      // client 1 then hits the shared schedule.
      if (i == 1) clientBarrier.arrive_and_wait();
      {
        ScopedSpan span("server.attach");
        log.attach = session.attach();
      }
      if (i == 0) clientBarrier.arrive_and_wait();
      clientBarrier.arrive_and_wait();
      log.setupWall = mc::wallSeconds() - launch;
      log.setupVirtual = c.now();
      if (plan.trace) {
        log.setupLayers = attributeSpans(mc::obs::threadRegistry().takeSpans(),
                                         0.0, c.now());
      }

      const double loopStartWall = mc::wallSeconds();
      const double loopStartCpu = processCpuSeconds();
      for (long req = 0;; ++req) {
        if (maxOps >= 0 && req >= maxOps) break;
        if (req >= minOps &&
            mc::wallSeconds() - loopStartWall >= plan.budgetSeconds) {
          break;
        }
        const std::uint64_t s = mix64(
            plan.seed ^ mix64(static_cast<std::uint64_t>(i) << 32 |
                              static_cast<std::uint64_t>(req)));
        session.x().fillByPoint([&](const Point& p) {
          return static_cast<double>((s + static_cast<std::uint64_t>(p[0])) %
                                     13) -
                 6.0;
        });
        if (plan.trace) mc::obs::threadRegistry().clearSpans();
        RankOp op;
        const Counters before = sampleCounters();
        const double w0 = mc::wallSeconds();
        op.t0 = c.now();
        mc::server::RequestResult res;
        {
          ScopedSpan span("server.request");
          res = session.request();
        }
        op.t1 = c.now();
        op.wall = mc::wallSeconds() - w0;
        op.delta = sampleCounters() - before;
        if (i == 0 && req == plan.corruptOp) session.y().raw()[0] += 1.0;
        op.bad = !checkProduct(n, session.matrix().raw(), session.x().raw(),
                               session.y().raw());
        if (plan.trace) {
          log.trace.addOp(attributeSpans(mc::obs::threadRegistry().takeSpans(),
                                         op.t0, op.t1),
                          op.t1 - op.t0);
        }
        // The client-observed latency is the op's virtual time.
        op.t1 = op.t0 + res.latencySeconds;
        log.ops.push_back(op);
        log.computeSeconds.push_back(res.serverComputeSeconds);
        if (i == 0 && req + 1 == minOps) log.rssAtMinOpsMb = peakRssMb();
      }
      log.loopCpu = processCpuSeconds() - loopStartCpu;
      log.loopWall = mc::wallSeconds() - loopStartWall;
      session.detach();
    };
    specs.push_back({"client" + std::to_string(i), 1, client});
  }
  mc::transport::World::run(std::move(specs), options);
  mc::obs::setEnabled(false);

  WorldOutcome out;
  out.measuredRanks = kClients;
  out.rssAtMinOpsMb = logs[0].rssAtMinOpsMb;
  out.rssEndMb = peakRssMb();
  out.setupWall = std::max(logs[0].setupWall, logs[1].setupWall);
  out.rankCounters.resize(kClients);
  std::vector<double> compute, wait;
  for (int i = 0; i < kClients; ++i) {
    const ClientLog& log = logs[static_cast<std::size_t>(i)];
    out.setupVirtual = std::max(out.setupVirtual, log.setupVirtual);
    out.cpuSeconds = std::max(out.cpuSeconds, log.loopCpu);
    out.loopSeconds = std::max(out.loopSeconds, log.loopWall);
    accumulate(out.setupLayers, log.setupLayers);
    out.opTrace.merge(log.trace);
    for (std::size_t k = 0; k < log.ops.size(); ++k) {
      const RankOp& op = log.ops[k];
      out.opVirtual.push_back(op.t1 - op.t0);
      out.opWall.push_back(op.wall);
      out.opFailed.push_back(op.bad);
      out.opCounters.push_back(op.delta);
      out.rankCounters[static_cast<std::size_t>(i)].push_back(op.delta);
      compute.push_back(log.computeSeconds[k]);
      wait.push_back(op.t1 - op.t0 - log.computeSeconds[k]);
    }
  }
  out.extra["server.compute_virtual_s.p50"] = quantile(compute, 0.5);
  out.extra["server.wait_virtual_s.p50"] = quantile(wait, 0.5);
  out.extra["server.wait_virtual_s.p90"] = quantile(wait, 0.9);
  out.extra["server.attach_virtual_s"] = logs[0].attach.scheduleSeconds;
  out.extra["server.matrix_ship_virtual_s"] = logs[0].attach.matrixSeconds;
  out.extra["server.share_hit_rate"] = stats.hitRate();
  out.extra["server.batches_per_request"] =
      stats.batchedRequests > 0 ? static_cast<double>(stats.batches) /
                                      static_cast<double>(stats.batchedRequests)
                                : 0.0;
  out.extra["server.batch_occupancy_mean"] =
      stats.batchOccupancy.count() > 0 ? stats.batchOccupancy.mean() : 0.0;
  out.extra["server.rejected"] = static_cast<double>(stats.rejected);
  out.extra["server.deferred"] = static_cast<double>(stats.deferred);
  out.extra["server.queue_max_depth"] =
      static_cast<double>(stats.maxQueueDepth);
  return out;
}

}  // namespace perfbench
