// The pre-Executor schedule executors, kept verbatim in behavior as
// sched::reference::{execute, executeAdd}.
//
// These are the copy-per-step loops sched::Executor replaces: every send
// packs into a fresh std::vector<T> and the transport copies it again into
// the Message; every receive allocates and fills a temporary vector before
// unpacking; receives drain in fixed peer order.  They remain as
//
//   * the baseline leg of bench/micro_data_move (old path vs executor), and
//   * the oracle for the executor's differential tests.
//
// Production call sites route through sched::Executor; this header lives
// with the tests (target mc_oracles) and src/ never includes it.
#pragma once

#include <span>
#include <vector>

#include "oracles/plan_exec.h"
#include "sched/schedule.h"
#include "transport/comm.h"

namespace mc::sched::reference {

/// Peer-ordered, copy-per-step schedule execution (pre-Executor behavior).
template <typename T>
void execute(transport::Comm& comm, const Schedule& sched,
             std::span<const T> src, std::span<T> dst, int tag) {
  static_assert(std::is_trivially_copyable_v<T>);
  for (const OffsetPlan& plan : sched.sends) {
    std::vector<T> buf(static_cast<size_t>(plan.elementCount()));
    comm.compute([&] { packPlan<T>(plan, src, buf.data()); });
    comm.send(plan.peer, tag, buf);  // copying send
  }
  comm.compute([&] {
    if (!sched.localRuns.empty()) {
      copyLocalRuns(std::span<const LocalRun>(sched.localRuns), src, dst);
    } else if (sched.bufferLocalCopies) {
      std::vector<T> buf;
      buf.reserve(sched.localPairs.size());
      for (const auto& [from, to] : sched.localPairs) {
        buf.push_back(src[static_cast<size_t>(from)]);
      }
      size_t i = 0;
      for (const auto& [from, to] : sched.localPairs) {
        dst[static_cast<size_t>(to)] = buf[i++];
      }
    } else {
      for (const auto& [from, to] : sched.localPairs) {
        dst[static_cast<size_t>(to)] = src[static_cast<size_t>(from)];
      }
    }
  });
  for (const OffsetPlan& plan : sched.recvs) {
    const std::vector<T> buf = comm.recv<T>(plan.peer, tag);  // alloc + copy
    MC_REQUIRE(buf.size() == static_cast<size_t>(plan.elementCount()),
               "schedule mismatch: peer %d sent %zu elements, expected %lld",
               plan.peer, buf.size(),
               static_cast<long long>(plan.elementCount()));
    comm.compute([&] { unpackPlan<T>(plan, buf.data(), dst); });
  }
}

/// Accumulating variant (dst[off] += value), same copy-per-step behavior.
template <typename T>
void executeAdd(transport::Comm& comm, const Schedule& sched,
                std::span<const T> src, std::span<T> dst, int tag) {
  static_assert(std::is_trivially_copyable_v<T>);
  for (const OffsetPlan& plan : sched.sends) {
    std::vector<T> buf(static_cast<size_t>(plan.elementCount()));
    comm.compute([&] { packPlan<T>(plan, src, buf.data()); });
    comm.send(plan.peer, tag, buf);
  }
  comm.compute([&] {
    if (!sched.localRuns.empty()) {
      addLocalRuns(std::span<const LocalRun>(sched.localRuns), src, dst);
    } else {
      for (const auto& [from, to] : sched.localPairs) {
        dst[static_cast<size_t>(to)] += src[static_cast<size_t>(from)];
      }
    }
  });
  for (const OffsetPlan& plan : sched.recvs) {
    const std::vector<T> buf = comm.recv<T>(plan.peer, tag);
    MC_REQUIRE(buf.size() == static_cast<size_t>(plan.elementCount()),
               "schedule mismatch: peer %d sent %zu elements, expected %lld",
               plan.peer, buf.size(),
               static_cast<long long>(plan.elementCount()));
    comm.compute([&] { unpackPlanAdd<T>(plan, buf.data(), dst); });
  }
}

}  // namespace mc::sched::reference
