// sched::Executor — the zero-copy, arrival-order schedule executor.
//
// A Schedule is built once and executed many times (the inspector/executor
// split the paper inherits from Saltz et al.); the free-function execute()
// re-derived buffers and matching state on every call and paid two payload
// copies per message (pack buffer -> Message on send, Message -> temporary
// vector on receive).  An Executor instead *binds* to one schedule:
//
//   bind (construction)           run (per time-step)
//   ---------------------------   -------------------------------------
//   per-peer plan byte counts     pack runs straight into a pooled
//   recv slots indexed by         payload buffer, move it into the
//     source global rank          Message (zero copies), drain receives
//   one send buffer per payload   in *arrival order*, unpack straight
//                                 out of the Message payload, recycle
//                                 the buffer for the next step's sends
//
// In steady state a run() performs no transport-layer payload copies and no
// payload heap allocations: a received buffer of a size class this rank
// sends in becomes one of its next step's send buffers, and every other
// buffer returns to the world pool, where the rank that sends in its class
// finds it.  Buffers serve only messages of their own size class; each
// executor takes one buffer per sent payload at bind and returns what it
// holds to the pool when destroyed, so the world's buffer population never
// shrinks and the pool stops allocating once it covers a run's sends.
// TrafficStats{bytesCopied, allocations} observe this.
//
// Arrival-order drain (the only drain): receives match any rank of the
// peer program (Comm::recvMsgAnyOf) and are routed to their plan by the
// sender's global rank.  This is safe for copy semantics because builders
// produce *disjoint* per-peer receive offsets — unpacks commute — and each
// (peer, tag) pair carries exactly one message per run, so the MPI
// non-overtaking guarantee is never needed across peers, only within one
// pair where the mailbox already provides it.  Accumulating runs (runAdd)
// are NOT order-independent (floating-point += does not commute across
// peers targeting the same offset), so the drain stashes payloads and
// applies them in peer order — results stay bitwise identical under any
// delivery interleaving.
//
// Pack and unpack always run through the plan kernels compiled at bind
// (kernels.h).  Node aggregation (node_agg.h) is decided per bind from the
// world's topology: it is on exactly when Comm::hierarchicalOn() holds.
//
// Split-phase execution: run() is synchronous — it blocks draining every
// receive before the caller computes a single point, so per-step time is
// communication latency *added to* compute.  start() instead posts all
// sends and returns a Pending handle; the caller computes whatever does not
// touch the schedule's destination footprint (see footprint.h), calling
// Pending::poll() now and then to consume messages that have already
// arrived, and Pending::finish(dst) / finishAdd(dst) to drain the rest,
// apply local plans, and unpack — communication rides under computation.
// Unpacks are deferred to finish in *plan order*, so results are bitwise
// identical to run()/runAdd() under any delivery interleaving (copy unpacks
// commute; add already applied in peer order).  The buffer-recycling
// invariant survives: payloads stash by plan slot while pending and recycle
// into the executor's free list at finish, so steady-state split-phase runs
// stay zero-copy and allocation-free exactly like run().  A Pending
// destroyed without finish cancels cleanly: the abandoned exchange's
// messages are drained and discarded so the next run sees a clean mailbox.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "obs/span.h"
#include "sched/footprint.h"
#include "sched/kernels.h"
#include "sched/node_agg.h"
#include "sched/schedule.h"
#include "transport/comm.h"

namespace mc::sched {

template <typename T>
class Executor {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// Binds to an intra-program schedule the caller keeps alive.
  Executor(transport::Comm& comm, const Schedule& sched)
      : Executor(comm, &sched, nullptr, /*remoteProgram=*/-1) {}

  /// Binds to an intra-program schedule, sharing ownership (the usual form
  /// for cached schedules).
  Executor(transport::Comm& comm, std::shared_ptr<const Schedule> sched)
      : Executor(comm, sched.get(), sched, /*remoteProgram=*/-1) {}

  /// The sending half of an inter-program move (peer ranks of the
  /// schedule's sends live in `remoteProgram`).
  static Executor sender(transport::Comm& comm, const Schedule& sched,
                         int remoteProgram) {
    MC_REQUIRE(sched.recvs.empty(),
               "sender half must not carry receive plans");
    MC_REQUIRE(sched.localElementCount() == 0,
               "inter-program schedules have no local transfers");
    return Executor(comm, &sched, nullptr, remoteProgram);
  }
  static Executor sender(transport::Comm& comm,
                         std::shared_ptr<const Schedule> sched,
                         int remoteProgram) {
    MC_REQUIRE(sched && sched->recvs.empty() &&
               sched->localElementCount() == 0);
    return Executor(comm, sched.get(), sched, remoteProgram);
  }

  /// The receiving half of an inter-program move.
  static Executor receiver(transport::Comm& comm, const Schedule& sched,
                           int remoteProgram) {
    MC_REQUIRE(sched.sends.empty(),
               "receiver half must not carry send plans");
    MC_REQUIRE(sched.localElementCount() == 0,
               "inter-program schedules have no local transfers");
    return Executor(comm, &sched, nullptr, remoteProgram);
  }
  static Executor receiver(transport::Comm& comm,
                           std::shared_ptr<const Schedule> sched,
                           int remoteProgram) {
    MC_REQUIRE(sched && sched->sends.empty() &&
               sched->localElementCount() == 0);
    return Executor(comm, sched.get(), sched, remoteProgram);
  }

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;
  Executor(Executor&&) = default;
  Executor& operator=(Executor&&) = default;
  /// Returns the payload buffers still held to the world pool, so a
  /// short-lived executor (sched::execute) leaves the world's buffer
  /// population as it found it rather than freeing buffers other ranks'
  /// next sends count on.
  ~Executor() {
    for (std::vector<std::byte>& buf : freeBufs_) {
      comm_->releasePayload(std::move(buf));
    }
    for (std::vector<std::byte>& buf : stash_) {
      comm_->releasePayload(std::move(buf));
    }
  }

  const Schedule& schedule() const { return *sched_; }

  /// Re-binds this executor to a new (e.g. patched) schedule without the
  /// cold-start costs of constructing a fresh one: recycled payload buffers
  /// survive the re-bind (stashed payloads join them), and compiled plan
  /// kernels are carried over for every peer whose plan is unchanged — only
  /// plans the repartitioning actually touched recompile.  After one step
  /// of a same-shaped schedule the executor is back to its steady state
  /// (zero payload allocations per run).  Intra-program only.
  void rebind(const Schedule& sched) { rebindTo(&sched, nullptr); }
  void rebind(std::shared_ptr<const Schedule> sched) {
    const Schedule* p = sched.get();
    MC_REQUIRE(p != nullptr);
    rebindTo(p, std::move(sched));
  }

  // --- intra-program runs ---------------------------------------------------

  /// One schedule execution: pack + send, local copies, drain + unpack.
  /// Collective over the program; `tag` must match across it.  `src` and
  /// `dst` may alias (ghost fills).
  void run(std::span<const T> src, std::span<T> dst, int tag) {
    MC_REQUIRE(remoteProgram_ < 0,
               "inter-program executor: use runSend / runRecv");
    MC_REQUIRE(!inFlight_,
               "split-phase run in flight: finish() it before run()");
    sendPhase(src, tag);
    localPhase(src, dst, /*add=*/false);
    if (agg_) {
      drainStashed(dst, tag, /*add=*/false);
    } else {
      drainCopy(dst, tag);
    }
  }
  void run(std::span<const T> src, std::span<T> dst) {
    run(src, dst, comm_->nextUserTag());
  }

  /// Accumulating execution (dst[off] += value): the Chaos scatter-add.
  /// Received contributions are applied in peer order regardless of arrival
  /// order, so results are bitwise deterministic.
  void runAdd(std::span<const T> src, std::span<T> dst, int tag) {
    MC_REQUIRE(remoteProgram_ < 0,
               "inter-program executor: use runSend / runRecv");
    MC_REQUIRE(!inFlight_,
               "split-phase run in flight: finish() it before runAdd()");
    sendPhase(src, tag);
    localPhase(src, dst, /*add=*/true);
    drainStashed(dst, tag, /*add=*/true);
  }
  void runAdd(std::span<const T> src, std::span<T> dst) {
    runAdd(src, dst, comm_->nextUserTag());
  }

  // --- split-phase runs -----------------------------------------------------

  /// A split-phase run in flight (see the file comment).  Move-only; exactly
  /// one of finish()/finishAdd() must eventually run, or the destructor
  /// cancels the exchange (drains and discards its messages).
  class Pending {
   public:
    Pending(const Pending&) = delete;
    Pending& operator=(const Pending&) = delete;
    Pending(Pending&& other) noexcept : ex_(other.ex_) {
      other.ex_ = nullptr;
    }
    Pending& operator=(Pending&&) = delete;
    ~Pending() {
      if (ex_ != nullptr) ex_->cancelPending();
    }

    /// Opportunistic non-blocking drain: consumes every message that has
    /// already arrived (stashing the payload — unpacking waits for finish),
    /// then returns true when all receives are in.
    bool poll() {
      requireActive();
      return ex_->pollPending();
    }

    /// True when every expected message has been consumed (by poll).
    bool done() const {
      requireActive();
      return ex_->pendingDone();
    }

    /// Blocks for the remaining messages, applies local transfers from the
    /// span passed to start(), unpacks everything in plan order, recycles
    /// payloads.  Result is bitwise identical to run(src, dst, tag).
    void finish(std::span<T> dst) {
      requireActive();
      Executor* ex = ex_;
      ex_ = nullptr;
      ex->finishPending(dst, /*add=*/false);
    }

    /// Accumulating finish; bitwise identical to runAdd(src, dst, tag).
    void finishAdd(std::span<T> dst) {
      requireActive();
      Executor* ex = ex_;
      ex_ = nullptr;
      ex->finishPending(dst, /*add=*/true);
    }

   private:
    friend class Executor;
    explicit Pending(Executor* ex) : ex_(ex) {}
    void requireActive() const {
      MC_REQUIRE(ex_ != nullptr,
                 "split-phase handle already finished (or moved from)");
    }

    Executor* ex_;  // null once finished / moved from
  };

  /// Posts all sends for one schedule execution and returns without touching
  /// `dst` — receives, local transfers, and unpacks happen in the returned
  /// handle's finish()/finishAdd().  Between start and finish the caller may
  /// compute freely outside footprint().dstTouched (of dst) and
  /// footprint().localSrc (of src); `src` must stay alive and unmodified at
  /// those localSrc offsets until finish.  Collective over the program.
  Pending start(std::span<const T> src, int tag) {
    MC_REQUIRE(remoteProgram_ < 0,
               "inter-program executor: use runSend / runRecv");
    MC_REQUIRE(!inFlight_,
               "split-phase run already in flight: finish() it first");
    sendPhase(src, tag);
    ++runEpoch_;
    inFlight_ = true;
    pendingTag_ = tag;
    pendingSrc_ = src;
    arrived_ = 0;
    return Pending(this);
  }
  Pending start(std::span<const T> src) {
    return start(src, comm_->nextUserTag());
  }

  /// The schedule's destination footprint — which offsets a run touches and
  /// which are free for overlapped computation.  Built once, on first use
  /// (one-shot executes never pay for it).
  const Footprint& footprint() const {
    if (!footprint_.has_value()) footprint_ = Footprint::of(*sched_);
    return *footprint_;
  }

  // --- inter-program halves -------------------------------------------------

  /// Sender half; the remote program concurrently calls runRecv on the
  /// matching receiver executor.  Collective over both programs.
  void runSend(std::span<const T> src) {
    MC_REQUIRE(remoteProgram_ >= 0, "intra-program executor: use run");
    sendPhase(src, comm_->nextInterTag(remoteProgram_));
  }

  /// Receiver half.
  void runRecv(std::span<T> dst) {
    MC_REQUIRE(remoteProgram_ >= 0, "intra-program executor: use run");
    drainCopy(dst, comm_->nextInterTag(remoteProgram_));
  }

  /// Split-phase receiver half: allocates the paired inter-program tag *now*
  /// — so it lines up with the remote sender's runSend in the usual paired
  /// tag-allocation order — and returns a Pending to poll/finish later.
  /// Between startRecv and finish the receiver's rank is free to compute;
  /// the compute server stages batch k+1's receives this way so their
  /// messages drain underneath batch k's multiply.
  Pending startRecv() {
    MC_REQUIRE(remoteProgram_ >= 0, "intra-program executor: use start");
    MC_REQUIRE(!inFlight_,
               "split-phase run already in flight: finish() it first");
    const int tag = comm_->nextInterTag(remoteProgram_);
    ++runEpoch_;
    inFlight_ = true;
    pendingTag_ = tag;
    pendingSrc_ = {};
    arrived_ = 0;
    return Pending(this);
  }

 private:
  struct RecvSlot {
    int srcGlobal = 0;       // sender's global rank (the arrival-order key)
    std::size_t bytes = 0;   // exact expected payload size
    std::uint64_t epoch = 0;  // last run that consumed this slot
  };

  Executor(transport::Comm& comm, const Schedule* sched,
           std::shared_ptr<const Schedule> keepAlive, int remoteProgram)
      : comm_(&comm),
        keepAlive_(std::move(keepAlive)),
        sched_(sched),
        remoteProgram_(remoteProgram) {
    MC_REQUIRE(sched_ != nullptr);
    bind();
  }

  void bind() {
    bindReusing(nullptr, nullptr, nullptr);
    bindSendBuffers();
  }

  /// Fills all bind-time state for sched_.  When `old` (plus its compiled
  /// kernels) is given, plans identical to the old schedule's plan for the
  /// same peer reuse the already-compiled kernel instead of recompiling —
  /// the rebind() fast path for untouched peers.
  void bindReusing(const Schedule* old, std::vector<PlanKernel>* oldSend,
                   std::vector<PlanKernel>* oldRecv) {
    const int peerProg = peerProgram();
    sendPlanBytes_.reserve(sched_->sends.size());
    for (const OffsetPlan& p : sched_->sends) {
      sendPlanBytes_.push_back(static_cast<std::size_t>(p.elementCount()) *
                               sizeof(T));
    }
    slots_.reserve(sched_->recvs.size());
    for (const OffsetPlan& p : sched_->recvs) {
      RecvSlot s;
      s.srcGlobal = comm_->globalRankOf(peerProg, p.peer);
      s.bytes = static_cast<std::size_t>(p.elementCount()) * sizeof(T);
      // Plans are sorted by peer and global ranks are monotone in peer, so
      // slots_ is sorted by srcGlobal and slot index == plan index; a
      // duplicate peer would break the one-message-per-pair matching.
      MC_REQUIRE(slots_.empty() || slots_.back().srcGlobal < s.srcGlobal,
                 "receive plans must be sorted by peer, without duplicates");
      slots_.push_back(s);
    }
    stash_.resize(sched_->recvs.size());
    stashOff_.assign(sched_->recvs.size(), 0);
    bindAggregation();
    // Compile the dispatch kernels once per bind (see kernels.h): every
    // run thereafter moves bytes through the variant the plan's shape
    // earned instead of re-branching per run.
    ensureKernelMetrics();
    compileLane(sched_->sends, old != nullptr ? &old->sends : nullptr,
                oldSend, sendKernels_);
    compileLane(sched_->recvs, old != nullptr ? &old->recvs : nullptr,
                oldRecv, recvKernels_);
    localKernel_ = LocalKernel::compile(*sched_);
  }

  /// Compiles one lane of plan kernels, carrying over the old compiled
  /// kernel for any peer whose plan is bitwise unchanged (two-pointer walk —
  /// both lanes are sorted by peer).
  static void compileLane(const std::vector<OffsetPlan>& plans,
                          const std::vector<OffsetPlan>* oldPlans,
                          std::vector<PlanKernel>* oldKernels,
                          std::vector<PlanKernel>& out) {
    out.reserve(plans.size());
    std::size_t j = 0;
    for (const OffsetPlan& p : plans) {
      const PlanKernel* reuse = nullptr;
      if (oldPlans != nullptr && oldKernels != nullptr) {
        while (j < oldPlans->size() && (*oldPlans)[j].peer < p.peer) ++j;
        if (j < oldPlans->size() && (*oldPlans)[j].peer == p.peer &&
            (*oldPlans)[j].runs == p.runs &&
            (*oldPlans)[j].offsets == p.offsets) {
          reuse = &(*oldKernels)[j];
        }
      }
      out.push_back(reuse != nullptr ? *reuse : PlanKernel::compile(p));
    }
  }

  void rebindTo(const Schedule* sched, std::shared_ptr<const Schedule> keep) {
    MC_REQUIRE(remoteProgram_ < 0, "rebind is intra-program only");
    MC_REQUIRE(!inFlight_,
               "split-phase run in flight: finish() it before rebind()");
    const Schedule* old = sched_;
    // Keep the old schedule alive until the reuse walk below is done.
    std::shared_ptr<const Schedule> oldKeepAlive = std::move(keepAlive_);
    std::vector<PlanKernel> oldSendKernels = std::move(sendKernels_);
    std::vector<PlanKernel> oldRecvKernels = std::move(recvKernels_);
    // Stashed payload capacity is as good as a free buffer; keep it.
    for (std::vector<std::byte>& buf : stash_) {
      if (buf.capacity() > 0) freeBufs_.push_back(std::move(buf));
    }
    stash_.clear();
    sendPlanBytes_.clear();
    slots_.clear();
    sendKernels_.clear();
    recvKernels_.clear();
    footprint_.reset();
    sched_ = sched;
    keepAlive_ = std::move(keep);
    bindReusing(old, &oldSendKernels, &oldRecvKernels);
    bindSendBuffers();
  }

  /// Fixes the pool size class of every payload one run sends and holds
  /// one buffer per sent payload from bind on: retained buffers of a class
  /// the schedule sends in are kept (the rest return to the world pool),
  /// and the missing ones are acquired now, before this executor sends
  /// anything.  A run's first sends then start from buffers in hand rather
  /// than racing other ranks' drains to the pool for them.
  void bindSendBuffers() {
    sendClasses_.clear();
    std::vector<std::size_t> payloadBytes;
    if (!agg_) {
      payloadBytes = sendPlanBytes_;
    } else {
      for (const std::size_t i : directSendIdx_) {
        payloadBytes.push_back(kAggMsgHeaderBytes + sendPlanBytes_[i]);
      }
      for (const AggGroup& g : aggGroups_) payloadBytes.push_back(g.frameBytes);
    }
    for (const std::size_t nbytes : payloadBytes) {
      if (nbytes > 0) {
        sendClasses_.push_back(transport::BufferPool::classFor(nbytes));
      }
    }
    std::vector<std::vector<std::byte>> held = std::move(freeBufs_);
    freeBufs_.clear();
    for (std::vector<std::byte>& buf : held) recycle(std::move(buf));
    for (const std::size_t nbytes : payloadBytes) {
      if (nbytes > 0 &&
          wantsBuffer(transport::BufferPool::classFor(nbytes))) {
        freeBufs_.push_back(comm_->acquirePayload(nbytes));
      }
    }
  }

  // --- node aggregation -----------------------------------------------------

  /// Decides aggregation for this bind from the world's topology
  /// (Comm::hierarchicalOn) and derives the per-node send grouping and
  /// receive expectations.  Intra-program only; with aggregation on, binds
  /// are collective over the program (the node leader learns which frames
  /// to expect via an intra-node exchange).
  void bindAggregation() {
    agg_ = false;
    directSendIdx_.clear();
    aggGroups_.clear();
    aggExpected_ = 0;
    if (remoteProgram_ >= 0 || !comm_->hierarchicalOn()) return;
    MC_REQUIRE(alignof(T) <= 8,
               "node aggregation supports element alignment up to 8");
    agg_ = true;
    const int myNode = comm_->myNode();
    // Group send plans by destination node; plans stay in peer order inside
    // each group and groups sort by leader, so framing is deterministic.
    for (std::size_t i = 0; i < sched_->sends.size(); ++i) {
      const OffsetPlan& plan = sched_->sends[i];
      if (comm_->nodeOfRank(plan.peer) == myNode) {
        directSendIdx_.push_back(i);
        continue;
      }
      const int leader = comm_->leaderOfRank(plan.peer);
      auto g = std::find_if(
          aggGroups_.begin(), aggGroups_.end(),
          [leader](const AggGroup& a) { return a.leader == leader; });
      if (g == aggGroups_.end()) {
        g = aggGroups_.insert(g, AggGroup{leader, kAggMsgHeaderBytes, {}});
      }
      g->frameBytes += kAggSegHeaderBytes + sendPlanBytes_[i];
      g->planIdx.push_back(i);
    }
    std::sort(aggGroups_.begin(), aggGroups_.end(),
              [](const AggGroup& a, const AggGroup& b) {
                return a.leader < b.leader;
              });
    // Receive expectations: same-node sources arrive directly; remote
    // sources arrive inside frames at the node leader, which forwards other
    // ranks' segments intra-node.
    std::size_t directRecvs = 0;
    std::vector<std::int32_t> myRemote;
    for (const RecvSlot& s : slots_) {
      const int srcLocal = comm_->localRankOfGlobal(s.srcGlobal);
      if (comm_->nodeOfRank(srcLocal) == myNode) {
        ++directRecvs;
      } else {
        myRemote.push_back(s.srcGlobal);
      }
    }
    const int tag = comm_->nextUserTag();
    if (!comm_->isNodeLeader()) {
      comm_->send(comm_->nodeLeader(), tag, myRemote);
      aggExpected_ = directRecvs + myRemote.size();
    } else {
      std::vector<std::int32_t> uni = myRemote;
      for (int r : comm_->nodePeers()) {
        if (r == comm_->rank()) continue;
        const std::vector<std::int32_t> peerRemote =
            comm_->recv<std::int32_t>(r, tag);
        uni.insert(uni.end(), peerRemote.begin(), peerRemote.end());
      }
      // One frame arrives per distinct remote source of the node.
      std::sort(uni.begin(), uni.end());
      uni.erase(std::unique(uni.begin(), uni.end()), uni.end());
      aggExpected_ = directRecvs + uni.size();
    }
  }

  // --- send side ------------------------------------------------------------

  void packInto(std::size_t i, std::span<const T> src, std::byte* out) {
    packKernel<T>(sendKernels_[i], sched_->sends[i], src,
                  reinterpret_cast<T*>(out));
  }

  /// Packs send plan i into its own message to the plan's peer.  In
  /// aggregated mode the payload leads with a routing header.
  void sendDirect(std::size_t i, std::span<const T> src, int tag) {
    const std::size_t header = agg_ ? kAggMsgHeaderBytes : 0;
    std::vector<std::byte> payload = obtainBuffer(header + sendPlanBytes_[i]);
    if (agg_) writeAggMsgHeader(payload.data(), kAggData, comm_->globalRank());
    {
      obs::ScopedSpan packSpan(obs::phase::kPack);
      comm_->compute([&] { packInto(i, src, payload.data() + header); });
    }
    comm_->sendBytesTo(peerProgram(), sched_->sends[i].peer, tag,
                       std::move(payload));
  }

  /// Flat: one message per send plan.  Aggregated: same-node peers get
  /// their direct message, every remote *node* gets exactly ONE framed
  /// message addressed to its leader — so this rank emits at most nodes-1
  /// inter-node messages per schedule step.
  void sendPhase(std::span<const T> src, int tag) {
    obs::ScopedSpan sendSpan(obs::phase::kSend);
    if (!agg_) {
      for (std::size_t i = 0; i < sched_->sends.size(); ++i) {
        sendDirect(i, src, tag);
      }
      return;
    }
    for (std::size_t i : directSendIdx_) sendDirect(i, src, tag);
    for (const AggGroup& g : aggGroups_) {
      std::vector<std::byte> payload = obtainBuffer(g.frameBytes);
      writeAggMsgHeader(payload.data(), kAggFrame, comm_->globalRank());
      {
        obs::ScopedSpan packSpan(obs::phase::kPack);
        comm_->compute([&] {
          std::byte* p = payload.data() + kAggMsgHeaderBytes;
          for (std::size_t i : g.planIdx) {
            writeAggSegHeader(
                p,
                comm_->globalRankOf(comm_->program(), sched_->sends[i].peer),
                sendPlanBytes_[i]);
            p += kAggSegHeaderBytes;
            packInto(i, src, p);
            p += sendPlanBytes_[i];
          }
        });
      }
      comm_->sendBytes(g.leader, tag, std::move(payload));
    }
  }

  /// A payload buffer with size() == nbytes: one of the executor's own
  /// recycled buffers of the request's pool size class (deterministic — no
  /// cross-thread state), else one from the world pool.  A larger buffer is
  /// never lent to a smaller message: that would leave a later message of
  /// the larger class short, and the pool would allocate for it.
  std::vector<std::byte> obtainBuffer(std::size_t nbytes) {
    const std::size_t cls = transport::BufferPool::classFor(nbytes);
    for (std::size_t i = 0; i < freeBufs_.size(); ++i) {
      if (transport::BufferPool::capacityClass(freeBufs_[i].capacity()) !=
          cls) {
        continue;
      }
      std::vector<std::byte> buf = std::move(freeBufs_[i]);
      freeBufs_.erase(freeBufs_.begin() + static_cast<std::ptrdiff_t>(i));
      buf.resize(nbytes);  // capacity covers the class: no reallocation
      return buf;
    }
    return comm_->acquirePayload(nbytes);
  }

  /// Parks a drained payload for the next step's sends while this executor
  /// holds fewer buffers of its size class than a run sends in that class;
  /// any other payload recycles through the world pool.
  void recycle(std::vector<std::byte>&& payload) {
    if (payload.capacity() > 0 &&
        wantsBuffer(
            transport::BufferPool::capacityClass(payload.capacity()))) {
      freeBufs_.push_back(std::move(payload));
    } else {
      comm_->releasePayload(std::move(payload));
    }
  }

  /// Whether this executor holds fewer buffers of pool class `cls` than a
  /// run sends in it.
  bool wantsBuffer(std::size_t cls) const {
    const auto inClass = [cls](const std::vector<std::byte>& b) {
      return transport::BufferPool::capacityClass(b.capacity()) == cls;
    };
    return std::count(sendClasses_.begin(), sendClasses_.end(), cls) >
           std::count_if(freeBufs_.begin(), freeBufs_.end(), inClass);
  }

  // --- local transfers ------------------------------------------------------

  void localPhase(std::span<const T> src, std::span<T> dst, bool add) {
    obs::ScopedSpan span(obs::phase::kApply);
    comm_->compute([&] {
      if (localKernel_.kind == KernelKind::kIndexList) {
        // Flattened local transfers; compile() only picks kIndexList when
        // element order matches copyLocalRuns exactly (see kernels.h).
        if (add) {
          localKernel_.add(src, dst);
        } else {
          localKernel_.copy(src, dst);
        }
        return;
      }
      if (add) {
        if (!sched_->localRuns.empty()) {
          addLocalRuns(std::span<const LocalRun>(sched_->localRuns), src,
                       dst);
        } else {
          for (const auto& [from, to] : sched_->localPairs) {
            dst[static_cast<std::size_t>(to)] +=
                src[static_cast<std::size_t>(from)];
          }
        }
        return;
      }
      if (!sched_->localRuns.empty()) {
        // Run-wise copies have read-all-then-write semantics per run
        // (memmove), serving both local-copy policies.
        copyLocalRuns(std::span<const LocalRun>(sched_->localRuns), src, dst);
      } else if (sched_->bufferLocalCopies) {
        // Authentic Parti staging, through a buffer that persists across
        // runs instead of reallocating each step.
        localStage_.resize(sched_->localPairs.size());
        std::size_t i = 0;
        for (const auto& [from, to] : sched_->localPairs) {
          localStage_[i++] = src[static_cast<std::size_t>(from)];
        }
        i = 0;
        for (const auto& [from, to] : sched_->localPairs) {
          dst[static_cast<std::size_t>(to)] = localStage_[i++];
        }
      } else {
        for (const auto& [from, to] : sched_->localPairs) {
          dst[static_cast<std::size_t>(to)] =
              src[static_cast<std::size_t>(from)];
        }
      }
    });
  }

  // --- receive side ---------------------------------------------------------

  /// The program this executor receives from.
  int peerProgram() const {
    return remoteProgram_ >= 0 ? remoteProgram_ : comm_->program();
  }

  /// Blocks for the next message of this run, whichever peer sent it.
  transport::Message nextMessage(int tag) {
    obs::ScopedSpan span(obs::phase::kRecvWait);
    return comm_->recvMsgAnyOf(peerProgram(), tag);
  }

  /// Routes a drained payload to its plan by the *original* sender's global
  /// rank, verifying size and that no plan is served twice in one run.
  std::size_t slotForSrc(int srcGlobal, std::size_t nbytes) {
    std::size_t lo = 0, hi = slots_.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (slots_[mid].srcGlobal < srcGlobal) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    MC_REQUIRE(lo < slots_.size() && slots_[lo].srcGlobal == srcGlobal,
               "unexpected message from global rank %d", srcGlobal);
    RecvSlot& slot = slots_[lo];
    MC_REQUIRE(slot.epoch != runEpoch_,
               "duplicate message from global rank %d in one run", srcGlobal);
    slot.epoch = runEpoch_;
    MC_REQUIRE(nbytes == slot.bytes,
               "schedule mismatch: peer sent %zu bytes, expected %zu", nbytes,
               slot.bytes);
    return lo;  // slot index == plan index (both sorted by peer)
  }

  void drainCopy(std::span<T> dst, int tag) {
    ++runEpoch_;
    for (std::size_t n = 0; n < sched_->recvs.size(); ++n) {
      transport::Message m = nextMessage(tag);
      const std::size_t k = slotForSrc(m.srcGlobal, m.payload.size());
      // Unpack straight out of the payload — builders emit disjoint
      // per-peer receive offsets, so these unpacks commute and arrival
      // order cannot change the result.
      {
        obs::ScopedSpan span(obs::phase::kUnpack);
        comm_->compute([&] {
          unpackKernel<T>(recvKernels_[k], sched_->recvs[k],
                          transport::payloadView<T>(m).data(), dst);
        });
      }
      recycle(std::move(m.payload));
    }
  }

  // --- aggregated receive side ----------------------------------------------

  /// Aggregated-mode intake for one message: a data payload stashes by its
  /// header's original source; a frame is split — the segment addressed to
  /// this rank stays stashed, every other segment re-sends to its same-node
  /// destination with a data header carrying the original source.
  void stashAggMessage(transport::Message&& m, int tag) {
    MC_REQUIRE(m.payload.size() >= kAggMsgHeaderBytes,
               "aggregated message shorter than its header");
    const AggMsgHeader h = readAggMsgHeader(m.payload.data());
    if (h.kind == kAggData) {
      const std::size_t k =
          slotForSrc(h.srcGlobal, m.payload.size() - kAggMsgHeaderBytes);
      stash_[k] = std::move(m.payload);
      stashOff_[k] = kAggMsgHeaderBytes;
      return;
    }
    MC_REQUIRE(h.kind == kAggFrame, "bad aggregated message kind %d", h.kind);
    MC_REQUIRE(comm_->isNodeLeader(),
               "aggregated frame delivered to a non-leader rank");
    constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
    std::size_t ownSlot = kNoSlot;
    std::size_t ownOff = 0;
    std::size_t pos = kAggMsgHeaderBytes;
    while (pos < m.payload.size()) {
      MC_REQUIRE(pos + kAggSegHeaderBytes <= m.payload.size(),
                 "truncated segment header in aggregated frame");
      const AggSegHeader seg = readAggSegHeader(m.payload.data() + pos);
      pos += kAggSegHeaderBytes;
      const auto segBytes = static_cast<std::size_t>(seg.bytes);
      MC_REQUIRE(pos + segBytes <= m.payload.size(),
                 "truncated segment payload in aggregated frame");
      if (seg.dstGlobal == comm_->globalRank()) {
        MC_REQUIRE(ownSlot == kNoSlot,
                   "two segments for one rank in one aggregated frame");
        ownSlot = slotForSrc(h.srcGlobal, segBytes);
        ownOff = pos;
      } else {
        std::vector<std::byte> fwd =
            comm_->acquirePayload(kAggMsgHeaderBytes + segBytes);
        writeAggMsgHeader(fwd.data(), kAggData, h.srcGlobal);
        std::memcpy(fwd.data() + kAggMsgHeaderBytes, m.payload.data() + pos,
                    segBytes);
        comm_->noteForwarded(segBytes);
        comm_->sendBytes(comm_->localRankOfGlobal(seg.dstGlobal), tag,
                         std::move(fwd));
      }
      pos += segBytes;
    }
    MC_REQUIRE(pos == m.payload.size(),
               "trailing bytes in aggregated frame");
    if (ownSlot != kNoSlot) {
      stash_[ownSlot] = std::move(m.payload);
      stashOff_[ownSlot] = ownOff;
    } else {
      recycle(std::move(m.payload));
    }
  }

  /// Unpacks every stashed payload in plan order (honoring each stash's
  /// aggregated-mode byte offset) and recycles the buffers.  Copy unpacks
  /// commute (disjoint per-peer offsets) and adds apply in peer order, so
  /// results are bitwise identical to the flat drain.
  void unpackStash(std::span<T> dst, bool add) {
    for (std::size_t k = 0; k < sched_->recvs.size(); ++k) {
      const OffsetPlan& plan = sched_->recvs[k];
      obs::ScopedSpan span(obs::phase::kUnpack);
      comm_->compute([&] {
        const T* payload =
            reinterpret_cast<const T*>(stash_[k].data() + stashOff_[k]);
        if (add) {
          unpackAddKernel<T>(recvKernels_[k], plan, payload, dst);
        } else {
          unpackKernel<T>(recvKernels_[k], plan, payload, dst);
        }
      });
      recycle(std::move(stash_[k]));
      stash_[k] = {};
      stashOff_[k] = 0;
    }
  }

  /// Verifies, sizes, and stashes one drained message by plan slot; in
  /// aggregated mode a frame is split (and forwarded) first.
  void stashMessage(transport::Message&& m, int tag) {
    if (agg_) {
      stashAggMessage(std::move(m), tag);
    } else {
      stash_[slotForSrc(m.srcGlobal, m.payload.size())] = std::move(m.payload);
    }
  }

  /// Takes every message of the run as it arrives, then unpacks in plan
  /// order: the accumulating drain (+= does not commute across peers that
  /// hit the same offset) and the aggregated drain (segments reach this
  /// rank through frames and forwards) both go through the stash.
  void drainStashed(std::span<T> dst, int tag, bool add) {
    ++runEpoch_;
    for (std::size_t n = 0; n < expectedMessages(); ++n) {
      stashMessage(nextMessage(tag), tag);
    }
    unpackStash(dst, add);
  }

  // --- split-phase internals ------------------------------------------------

  /// Messages one run consumes (in aggregated mode frames and forwards
  /// replace the per-peer messages, so the count differs from recvs.size()).
  std::size_t expectedMessages() const {
    return agg_ ? aggExpected_ : sched_->recvs.size();
  }

  bool pendingDone() const { return arrived_ == expectedMessages(); }

  /// Blocking intake of one more pending message.
  void drainOnePending() {
    stashMessage(nextMessage(pendingTag_), pendingTag_);
    ++arrived_;
  }

  bool pollPending() {
    while (!pendingDone()) {
      std::optional<transport::Message> m =
          comm_->tryRecvMsgAnyOf(peerProgram(), pendingTag_);
      if (!m.has_value()) break;
      stashMessage(std::move(*m), pendingTag_);
      ++arrived_;
    }
    return pendingDone();
  }

  void finishPending(std::span<T> dst, bool add) {
    // Drain whatever poll() did not get (blocking).
    while (!pendingDone()) drainOnePending();
    localPhase(pendingSrc_, dst, add);
    // Unpack in plan order: copy unpacks commute (disjoint per-peer
    // offsets), adds must apply in peer order — either way this is bitwise
    // identical to the corresponding run()/runAdd().
    unpackStash(dst, add);
    inFlight_ = false;
    pendingSrc_ = {};
  }

  /// Abandoned split-phase run (Pending destroyed without finish): consume
  /// the exchange's remaining messages so the mailbox and the executor's
  /// epoch state stay consistent, discard the data, keep the executor
  /// reusable.  In aggregated mode the drain still splits and forwards
  /// frames — node-mates depend on the leader relaying their segments even
  /// when the leader's own exchange is abandoned.  Errors are swallowed —
  /// this runs from a destructor, possibly unwinding a world abort.
  void cancelPending() noexcept {
    try {
      while (!pendingDone()) drainOnePending();
    } catch (...) {
      // Aborted world or timeout: leave whatever arrived; the abort tears
      // the whole run down anyway.
    }
    for (std::size_t k = 0; k < stash_.size(); ++k) {
      if (stash_[k].capacity() > 0) recycle(std::move(stash_[k]));
      stash_[k] = {};
      stashOff_[k] = 0;
    }
    inFlight_ = false;
    pendingSrc_ = {};
  }

  /// One framed message to a remote node (aggregated mode).
  struct AggGroup {
    int leader = 0;               // destination node's leader (local rank)
    std::size_t frameBytes = 0;   // header + segments, fixed at bind
    std::vector<std::size_t> planIdx;  // send plans packed, in peer order
  };

  transport::Comm* comm_;
  std::shared_ptr<const Schedule> keepAlive_;
  const Schedule* sched_;
  int remoteProgram_;  // -1 for intra-program executors

  std::vector<std::size_t> sendPlanBytes_;  // per send plan, fixed at bind
  std::vector<std::size_t> sendClasses_;    // pool class per sent payload
  std::vector<RecvSlot> slots_;             // sorted by srcGlobal
  std::vector<PlanKernel> sendKernels_;     // compiled at bind, per plan
  std::vector<PlanKernel> recvKernels_;
  LocalKernel localKernel_;
  std::uint64_t runEpoch_ = 0;
  std::vector<std::vector<std::byte>> freeBufs_;  // recycled payloads
  std::vector<std::vector<std::byte>> stash_;     // deferred-unpack slots
  std::vector<std::size_t> stashOff_;  // payload byte offset per stash slot
  std::vector<T> localStage_;  // persistent Parti local-copy staging

  // Node aggregation (node_agg.h), decided at bind.
  bool agg_ = false;
  std::vector<std::size_t> directSendIdx_;  // send plans to same-node peers
  std::vector<AggGroup> aggGroups_;         // one frame per remote node
  std::size_t aggExpected_ = 0;  // messages consumed per aggregated run

  // Split-phase state (one run may be in flight at a time).
  bool inFlight_ = false;
  int pendingTag_ = 0;
  std::span<const T> pendingSrc_{};  // captured by start, read at finish
  std::size_t arrived_ = 0;          // messages stashed so far this run
  mutable std::optional<Footprint> footprint_;  // built on first use
};

/// Executes `sched` within one program: packs `src` elements, sends at most
/// one message per peer, copies local pairs, then unpacks into `dst`.
/// Collective; `tag` must match across the program (comm.nextUserTag()).
/// `src` and `dst` may alias (e.g. a ghost fill within one buffer).
///
/// One-shot convenience over Executor — loops should bind an Executor once
/// and run() it per step to keep its persistent buffers.
template <typename T>
void execute(transport::Comm& comm, const Schedule& sched,
             std::span<const T> src, std::span<T> dst, int tag) {
  Executor<T>(comm, sched).run(src, dst, tag);
}

/// Like execute, but *accumulates* received and local elements into `dst`
/// (dst[off] += value).  This is the Chaos scatter-add executor used for
/// irregular reductions such as Loop 3 of the paper's Figure 1.
template <typename T>
void executeAdd(transport::Comm& comm, const Schedule& sched,
                std::span<const T> src, std::span<T> dst, int tag) {
  Executor<T>(comm, sched).runAdd(src, dst, tag);
}

}  // namespace mc::sched
