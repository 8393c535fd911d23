// coupled_cfd and remap_rebuild: the paper's Figure 1 (a Parti mesh coupled
// to a Chaos mesh through Meta-Chaos copies) on one SPMD world, steady or
// under adaptive repartitioning.
//
// Oracles (every op): after the regular -> irregular copy every irregular
// element equals its mapped regular element, and the copy back restores the
// regular mesh bitwise; remap_rebuild also checks that chaos::remap carried
// every irregular value to its new home.
#include <algorithm>
#include <optional>

#include "chaos/irregular_loop.h"
#include "chaos/partition.h"
#include "chaos/remap.h"
#include "core/adapters/chaos_adapter.h"
#include "core/adapters/parti_adapter.h"
#include "core/data_move.h"
#include "core/schedule_cache.h"
#include "meshgen/meshgen.h"
#include "obs/span.h"
#include "parti/sched_cache.h"
#include "parti/stencil.h"
#include "transport/world.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {

using mc::layout::Index;
using mc::layout::Point;
using mc::obs::ScopedSpan;
using Storage = mc::chaos::TranslationTable::Storage;

namespace {

/// Modelled per-element Chaos dereference (the SP2 calibration the paper's
/// Table 2 implies).
constexpr double kDerefSeconds = 30e-6;
/// remap_rebuild: every kReshuffleEvery-th epoch is a full reshuffle.  The
/// first drift after a reshuffle re-warms the dereference cache and costs
/// most of a reshuffle, so with five-epoch cycles p50 lands inside the
/// steady-drift mode (60% of ops) and p90 inside the reshuffle mode (20%).
constexpr long kReshuffleEvery = 5;
/// remap_rebuild drift epochs migrate at most this share of the points.
constexpr double kDriftCap = 0.03;
/// Horizontal shear per epoch, in cells per mesh height.
constexpr double kShearPerEpoch = 0.5;

}  // namespace

struct CoupledInputs {
  Index rows = 0, cols = 0, n = 0;
  int ranks = 0;
  std::uint64_t seed = 0;
  Storage storage = Storage::kDistributed;
  std::vector<Index> irregOf;  // regular point k (row-major) -> irregular id
  std::vector<Index> regOf;    // irregular id -> regular point
  std::vector<std::vector<Index>> ia, ib;     // per-rank edge slices
  std::vector<std::vector<Index>> firstMine;  // per-rank initial partition
  mc::meshgen::NodeCoords coords;             // per irregular id
};

std::shared_ptr<const CoupledInputs> makeCoupledInputs(long side, int ranks,
                                                       std::uint64_t seed,
                                                       bool replicated) {
  auto in = std::make_shared<CoupledInputs>();
  in->storage = replicated ? Storage::kReplicated : Storage::kDistributed;
  in->rows = in->cols = side;
  in->n = side * side;
  in->ranks = ranks;
  in->seed = seed;
  const std::vector<Index> perm = mc::meshgen::nodePermutation(in->n, seed);
  const mc::meshgen::EdgeList edges = mc::meshgen::renumberNodes(
      mc::meshgen::gridEdges(side, side), perm);
  in->irregOf =
      mc::meshgen::regToIrregMapping(side, side, perm).irreg;
  in->regOf.resize(static_cast<std::size_t>(in->n));
  for (std::size_t k = 0; k < in->irregOf.size(); ++k) {
    in->regOf[static_cast<std::size_t>(in->irregOf[k])] = static_cast<Index>(k);
  }
  in->ia.resize(static_cast<std::size_t>(ranks));
  in->ib.resize(static_cast<std::size_t>(ranks));
  in->firstMine.resize(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    const auto ru = static_cast<std::size_t>(r);
    for (Index e : mc::chaos::blockPartition(edges.numEdges(), ranks, r)) {
      in->ia[ru].push_back(edges.ia[static_cast<std::size_t>(e)]);
      in->ib[ru].push_back(edges.ib[static_cast<std::size_t>(e)]);
    }
    in->firstMine[ru] = mc::chaos::randomPartition(in->n, ranks, r, seed + 1);
  }
  in->coords = mc::meshgen::gridCoordinates(side, side, perm);
  return in;
}

namespace {

/// Host memory one world's ranks share for the oracles and the op loop.
struct Shared {
  explicit Shared(const CoupledInputs& in)
      : reg(static_cast<std::size_t>(in.n)),
        irr(static_cast<std::size_t>(in.n)),
        barrier(in.ranks),
        logs(static_cast<std::size_t>(in.ranks)) {}
  std::vector<double> reg;  // regular mesh after the stencil, row-major
  std::vector<double> irr;  // irregular field before a remap, by id
  HostBarrier barrier;
  bool more = false;
  std::vector<RankLog> logs;
};

/// One rank's Figure-1 state: the regular mesh with its ghost exchanger,
/// the irregular arrays with their edge sweep, and the two copy schedules.
class CoupledRank {
 public:
  CoupledRank(mc::transport::Comm& c, const CoupledInputs& in, Shared& sh)
      : c_(c),
        in_(in),
        sh_(sh),
        a_(c, mc::layout::Shape::of({in.rows, in.cols}), /*ghost=*/1),
        aObj_(mc::core::PartiAdapter::describe(a_)) {
    regSet_.add(mc::core::Region::section(mc::layout::RegularSection::box(
        {0, 0}, {in.rows - 1, in.cols - 1})));
    irregSet_.add(mc::core::Region::indices(in.irregOf));
  }

  /// Setup: the distributed translation table, the Parti ghost inspector,
  /// the Chaos localize and the Meta-Chaos copy schedules.
  void setup() {
    const auto& mine = in_.firstMine[static_cast<std::size_t>(c_.rank())];
    std::shared_ptr<const mc::chaos::TranslationTable> table;
    {
      ScopedSpan span("chaos.ttable_build");
      table = std::make_shared<const mc::chaos::TranslationTable>(
          mc::chaos::TranslationTable::build(c_, mine, in_.n,
                                             in_.storage,
                                             kDerefSeconds));
    }
    setArrays(table, mine);
    {
      ScopedSpan span("parti.ghost_inspector");
      c_.compute([&] {
        (void)mc::parti::cachedGhostSchedule(a_.desc(), c_.rank());
      });
      ghosts_.emplace(a_);
    }
    localize();
    buildCopySchedules();
  }

  /// One verified Figure-1 time-step; returns false when an oracle failed.
  bool step(bool corrupt) {
    bool ok = true;
    {
      ScopedSpan span("parti.stencil");
      mc::parti::stencilSweep(a_, *ghosts_, scratch_);
    }
    forOwnedRows([&](Index k, std::span<double> row) {
      std::copy(row.begin(), row.end(), sh_.reg.begin() + k);
    });
    {
      ScopedSpan span("core.data_move");
      mc::core::dataMove<double>(c_, *fwd_, a_.raw(), x_->raw());
    }
    if (corrupt && c_.rank() == 0 && x_->localCount() > 0) {
      x_->raw()[0] += 1.0;
    }
    sh_.barrier.arrive_and_wait();  // every rank's regular snapshot is in
    const auto mine = x_->myGlobals();
    for (std::size_t i = 0; i < mine.size(); ++i) {
      const Index k = in_.regOf[static_cast<std::size_t>(mine[i])];
      if (x_->raw()[i] != sh_.reg[static_cast<std::size_t>(k)]) ok = false;
    }
    {
      ScopedSpan span("chaos.edge_sweep");
      sweep_->run(*x_, *y_);
    }
    {
      ScopedSpan span("core.data_move");
      mc::core::dataMove<double>(c_, rev_, x_->raw(), a_.raw());
    }
    forOwnedRows([&](Index k, std::span<double> row) {
      if (!std::equal(row.begin(), row.end(), sh_.reg.begin() + k)) ok = false;
    });
    return ok;
  }

  /// Resets the regular mesh to bounded seeded values before each op (the
  /// stencil multiplies magnitudes by up to four per sweep).
  void refill(long op) {
    const Index shift = static_cast<Index>(in_.seed % 1021) + 37 * op;
    forOwnedRows([&](Index k, std::span<double> row) {
      for (std::size_t j = 0; j < row.size(); ++j) {
        const Index v = (k + static_cast<Index>(j) + shift) % 1024;
        row[j] = 1.0 + 1e-3 * static_cast<double>(v);
      }
    });
  }

  /// remap_rebuild drift epoch: remap onto `assigned` (driftAssignment),
  /// patch the copy schedule and re-localize.  Returns false when the remap
  /// oracle failed; `migratedFrac` receives the migrated share.
  bool drift(const std::vector<Index>& assigned, double& migratedFrac) {
    const std::vector<Index> newMine =
        mc::chaos::stableRemapOrder(x_->myGlobals(), assigned);

    const auto old = x_->myGlobals();
    for (std::size_t i = 0; i < old.size(); ++i) {
      sh_.irr[static_cast<std::size_t>(old[i])] = x_->raw()[i];
    }
    sh_.barrier.arrive_and_wait();
    std::vector<Index> migrated;
    std::unique_ptr<mc::chaos::IrregArray<double>> next;
    {
      ScopedSpan span("chaos.remap");
      next = std::make_unique<mc::chaos::IrregArray<double>>(
          mc::chaos::remap(*x_, newMine, in_.storage, &migrated));
    }
    bool ok = true;
    const auto now = next->myGlobals();
    for (std::size_t i = 0; i < now.size(); ++i) {
      if (next->raw()[i] != sh_.irr[static_cast<std::size_t>(now[i])]) {
        ok = false;
      }
    }
    migratedFrac = static_cast<double>(migrated.size()) /
                   static_cast<double>(in_.n);
    mc::layout::DistDelta delta;
    {
      ScopedSpan span("layout.delta");
      delta = mc::core::deltaFromMigratedIndices(irregSet_, migrated);
    }
    const mc::core::DistObject oldObj = mc::core::ChaosAdapter::describe(*x_);
    const mc::core::DistObject newObj = mc::core::ChaosAdapter::describe(*next);
    {
      ScopedSpan span("core.patch");
      fwd_ = mc::core::defaultScheduleCache().getOrPatch(
          c_, aObj_, aObj_, regSet_, oldObj, newObj, irregSet_, delta);
      rev_ = mc::core::reverseSchedule(*fwd_);
    }
    y_ = std::make_unique<mc::chaos::IrregArray<double>>(
        c_, next->tablePtr(),
        std::vector<Index>(next->myGlobals().begin(), next->myGlobals().end()));
    x_ = std::move(next);
    localize();
    return ok;
  }

  /// remap_rebuild reshuffle epoch onto `mine` (reshuffleAssignment): the
  /// translation table, every dereference, the localize and the copy
  /// schedule are built cold.  The irregular field is not carried over; the
  /// epoch's time-step refills it from the regular mesh.
  void reshuffle(const std::vector<Index>& mine) {
    std::shared_ptr<const mc::chaos::TranslationTable> table;
    {
      ScopedSpan span("chaos.ttable_build");
      table = std::make_shared<const mc::chaos::TranslationTable>(
          mc::chaos::TranslationTable::build(c_, mine, in_.n,
                                             in_.storage,
                                             kDerefSeconds));
    }
    setArrays(table, mine);
    localize();
    buildCopySchedules();
  }

  /// Drift partition: relax `owner` toward RCB of the sheared point cloud,
  /// moving at most kDriftCap of the points.  Every rank computes every
  /// rank's target (partitioners are deterministic and communication-free),
  /// so all ranks agree on `owner` without messages.  Returns this rank's
  /// new points.
  std::vector<Index> driftAssignment(long epoch,
                                     std::vector<int>& owner) const {
    const std::size_t n = static_cast<std::size_t>(in_.n);
    std::vector<double> px(n), py(n);
    const double t = kShearPerEpoch * static_cast<double>(epoch);
    for (std::size_t g = 0; g < n; ++g) {
      px[g] = in_.coords.x[g] +
              t * in_.coords.y[g] / static_cast<double>(in_.rows);
      py[g] = in_.coords.y[g];
    }
    std::vector<int> target(n);
    for (int q = 0; q < in_.ranks; ++q) {
      for (Index g : mc::chaos::rcbPartition(px, py, in_.ranks, q)) {
        target[static_cast<std::size_t>(g)] = q;
      }
    }
    // Candidates per (from, to) rank pair in seeded order.  Every pair moves
    // the same number of points, so each rank gains what it loses: part
    // sizes stay fixed and stableRemapOrder migrates exactly the movers.
    const auto np = static_cast<std::size_t>(in_.ranks);
    std::vector<std::vector<std::pair<std::uint64_t, Index>>> cand(np * np);
    for (std::size_t g = 0; g < n; ++g) {
      const auto from = static_cast<std::size_t>(owner[g]);
      const auto to = static_cast<std::size_t>(target[g]);
      if (from == to) continue;
      cand[from * np + to].emplace_back(
          mix64(in_.seed ^ mix64(static_cast<std::uint64_t>(epoch) * n + g)),
          static_cast<Index>(g));
    }
    std::size_t k = static_cast<std::size_t>(
        kDriftCap * static_cast<double>(n) /
        static_cast<double>(np * (np - 1)));
    for (std::size_t from = 0; from < np; ++from) {
      for (std::size_t to = 0; to < np; ++to) {
        if (from != to) k = std::min(k, cand[from * np + to].size());
      }
    }
    for (std::size_t from = 0; from < np; ++from) {
      for (std::size_t to = 0; to < np; ++to) {
        if (from == to) continue;
        auto& c = cand[from * np + to];
        std::nth_element(c.begin(), c.begin() + static_cast<long>(k), c.end());
        for (std::size_t i = 0; i < k; ++i) {
          owner[static_cast<std::size_t>(c[i].second)] = static_cast<int>(to);
        }
      }
    }
    std::vector<Index> mine;
    for (std::size_t g = 0; g < n; ++g) {
      if (owner[g] == c_.rank()) mine.push_back(static_cast<Index>(g));
    }
    return mine;
  }

  /// Reshuffle partition: a fresh seeded random assignment.  Returns this
  /// rank's points.
  std::vector<Index> reshuffleAssignment(long epoch,
                                         std::vector<int>& owner) const {
    const std::uint64_t s =
        mix64(in_.seed ^ (0x5bd1e995ull * static_cast<std::uint64_t>(epoch)));
    std::vector<Index> mine;
    for (int q = 0; q < in_.ranks; ++q) {
      std::vector<Index> part =
          mc::chaos::randomPartition(in_.n, in_.ranks, q, s);
      for (Index g : part) owner[static_cast<std::size_t>(g)] = q;
      if (q == c_.rank()) mine = std::move(part);
    }
    return mine;
  }

 private:
  /// Calls fn(k, row) for each owned row of the regular mesh: k is the
  /// row-major index of the row's first point, row its padded storage.
  template <typename F>
  void forOwnedRows(F&& fn) {
    const mc::layout::RegularSection box = a_.ownedBox();
    if (box.empty()) return;
    const mc::parti::PartiAddr addr = a_.desc().addrOf(c_.rank());
    const auto width = static_cast<std::size_t>(box.hi[1] - box.lo[1] + 1);
    for (Index i = box.lo[0]; i <= box.hi[0]; ++i) {
      const Index off = addr.offsetOf(Point::of({i, box.lo[1]}));
      fn(i * in_.cols + box.lo[1],
         a_.raw().subspan(static_cast<std::size_t>(off), width));
    }
  }

  void setArrays(std::shared_ptr<const mc::chaos::TranslationTable> table,
                 const std::vector<Index>& mine) {
    x_ = std::make_unique<mc::chaos::IrregArray<double>>(c_, table, mine);
    y_ = std::make_unique<mc::chaos::IrregArray<double>>(c_, table, mine);
  }

  void localize() {
    ScopedSpan span("chaos.localize");
    const auto r = static_cast<std::size_t>(c_.rank());
    sweep_ = std::make_unique<mc::chaos::EdgeSweep<double>>(
        c_, x_->table(), in_.ia[r], in_.ib[r]);
  }

  void buildCopySchedules() {
    ScopedSpan span("core.schedule_build");
    fwd_ = mc::core::defaultScheduleCache().getOrBuild(
        c_, aObj_, regSet_, mc::core::ChaosAdapter::describe(*x_), irregSet_,
        mc::core::Method::kCooperation);
    rev_ = mc::core::reverseSchedule(*fwd_);
  }

  mc::transport::Comm& c_;
  const CoupledInputs& in_;
  Shared& sh_;
  mc::parti::BlockDistArray<double> a_;
  mc::core::DistObject aObj_;
  mc::core::SetOfRegions regSet_, irregSet_;
  std::optional<mc::parti::GhostExchanger<double>> ghosts_;
  std::vector<double> scratch_;
  std::unique_ptr<mc::chaos::IrregArray<double>> x_, y_;
  std::unique_ptr<mc::chaos::EdgeSweep<double>> sweep_;
  std::shared_ptr<const mc::core::McSchedule> fwd_;
  mc::core::McSchedule rev_;
};

template <typename Body>
WorldOutcome runWorld(const CoupledInputs& in, const WorldPlan& plan,
                      Body body) {
  Shared sh(in);
  mc::obs::setEnabled(plan.trace);
  const double launch = mc::wallSeconds();
  mc::transport::World::runSPMD(in.ranks, [&](mc::transport::Comm& c) {
    OpLoop loop(c, plan, sh.barrier, launch, &sh.more);
    CoupledRank rank(c, in, sh);
    rank.setup();
    loop.endSetup();
    body(c, rank, loop);
    sh.logs[static_cast<std::size_t>(c.rank())] = std::move(loop.log());
  });
  mc::obs::setEnabled(false);
  WorldOutcome out;
  mergeRankLogs(sh.logs, out);
  return out;
}

}  // namespace

WorldOutcome runCoupledCfd(const CoupledInputs& in, const WorldPlan& plan) {
  return runWorld(in, plan, [&](mc::transport::Comm&, CoupledRank& rank,
                                OpLoop& loop) {
    while (loop.next()) {
      const long op = loop.opIndex();
      rank.refill(op);
      loop.beginOp();
      const bool ok = rank.step(op == plan.corruptOp);
      loop.endOp(!ok);
    }
  });
}

WorldOutcome runRemapRebuild(const CoupledInputs& in, const WorldPlan& plan) {
  std::vector<double> migratedFrac;  // rank 0's drift epochs
  double partitionCpu = 0;           // rank 0's partitioner thread CPU
  WorldOutcome out = runWorld(in, plan, [&](mc::transport::Comm& c,
                                            CoupledRank& rank, OpLoop& loop) {
    std::vector<int> owner(static_cast<std::size_t>(in.n));
    for (int q = 0; q < in.ranks; ++q) {
      for (Index g : in.firstMine[static_cast<std::size_t>(q)]) {
        owner[static_cast<std::size_t>(g)] = q;
      }
    }
    while (loop.next()) {
      const long epoch = loop.opIndex();
      const bool cold = epoch % kReshuffleEvery == kReshuffleEvery - 1;
      rank.refill(epoch);
      // The partitioner is the application's choice, not runtime work: it
      // runs before the op, like the input generation.
      const double cpu0 = mc::threadCpuSeconds();
      const std::vector<Index> assigned =
          cold ? rank.reshuffleAssignment(epoch, owner)
               : rank.driftAssignment(epoch, owner);
      if (c.rank() == 0) partitionCpu += mc::threadCpuSeconds() - cpu0;
      loop.beginOp();
      bool ok = true;
      if (cold) {
        rank.reshuffle(assigned);
      } else {
        double frac = 0;
        ok = rank.drift(assigned, frac);
        if (c.rank() == 0) migratedFrac.push_back(frac);
      }
      ok = rank.step(epoch == plan.corruptOp) && ok;
      loop.endOp(!ok);
    }
  });
  double sum = 0;
  for (double f : migratedFrac) sum += f;
  out.extra["layout.migration_frac"] =
      migratedFrac.empty()
          ? 0.0
          : sum / static_cast<double>(migratedFrac.size());
  out.extra["chaos.partition_cpu_s"] =
      out.opVirtual.empty()
          ? 0.0
          : partitionCpu / static_cast<double>(out.opVirtual.size());
  return out;
}

}  // namespace perfbench
