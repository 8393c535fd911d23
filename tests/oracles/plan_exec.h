// Oracle pack/unpack primitives for one OffsetPlan.
//
// The three moves every executor makes — gather a plan's elements into a
// contiguous buffer, scatter a contiguous buffer to a plan's elements, and
// the accumulating scatter — written as the plain run-wise loops (with an
// element-wise fallback for uncompressed plans).  sched::Executor runs the
// compiled kernels of sched/kernels.h instead; these loops back the
// reference executors the differential tests compare it against.
#pragma once

#include <span>
#include <type_traits>

#include "sched/run_plan.h"
#include "sched/schedule.h"

namespace mc::sched::reference {

/// Packs `plan`'s source elements into `out`, which must hold
/// plan.elementCount() elements.  Run-wise when the plan is compressed.
template <typename T>
void packPlan(const OffsetPlan& plan, std::span<const T> src, T* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (!plan.runs.empty()) {
    packRuns(src, std::span<const OffsetRun>(plan.runs), out);
    return;
  }
  for (layout::Index off : plan.offsets) {
    *out++ = src[static_cast<size_t>(off)];
  }
}

/// Unpacks `buf` (plan.elementCount() elements, pack order) into `dst` at
/// the plan's offsets.
template <typename T>
void unpackPlan(const OffsetPlan& plan, const T* buf, std::span<T> dst) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (!plan.runs.empty()) {
    unpackRuns(std::span<const OffsetRun>(plan.runs), buf, dst);
    return;
  }
  for (layout::Index off : plan.offsets) {
    dst[static_cast<size_t>(off)] = *buf++;
  }
}

/// Accumulating unpack: dst[off] += value, in pack order.
template <typename T>
void unpackPlanAdd(const OffsetPlan& plan, const T* buf, std::span<T> dst) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (!plan.runs.empty()) {
    unpackRunsAdd(std::span<const OffsetRun>(plan.runs), buf, dst);
    return;
  }
  for (layout::Index off : plan.offsets) {
    dst[static_cast<size_t>(off)] += *buf++;
  }
}

}  // namespace mc::sched::reference
