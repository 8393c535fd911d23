// Size-classed recycling pool for message payload buffers.
//
// The steady-state hot path of schedule execution moves one payload buffer
// per message per time-step.  Allocating those buffers fresh every step
// costs an allocator round trip per message; the pool instead recycles
// payload *capacity* across steps: a released buffer parks in the free list
// of the largest power-of-two class its capacity covers, and an acquire is
// served from the class that covers the requested size.  Buffers acquired
// here always carry class-rounded capacity, so a recycled buffer serves any
// later request of its class regardless of the exact byte count.
//
// One shared instance lives in the transport WorldState (all virtual
// processors of a world recycle through it — payloads cross threads inside
// Messages, so the pool must too); sched::Executor additionally keeps a
// tiny per-executor free list in front of it for deterministic reuse.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace mc::transport {

class BufferPool {
 public:
  struct Stats {
    std::uint64_t acquires = 0;
    std::uint64_t hits = 0;       // served from a free list
    std::uint64_t allocations = 0;  // had to heap-allocate
    std::uint64_t releases = 0;
    std::uint64_t dropped = 0;    // released past the per-class bound
  };

  /// Returns a buffer with size() == nbytes and capacity rounded up to the
  /// size class.  Sets *fresh (when non-null) to whether the buffer was
  /// heap-allocated rather than recycled.
  std::vector<std::byte> acquire(std::size_t nbytes, bool* fresh = nullptr) {
    if (nbytes == 0) {
      if (fresh != nullptr) *fresh = false;
      return {};
    }
    const std::size_t cls = classFor(nbytes);
    std::vector<std::byte> buf;
    if (cls >= kNumClasses) {  // absurdly large: bypass the pool
      buf.resize(nbytes);
      if (fresh != nullptr) *fresh = true;
      return buf;
    }
    bool recycled = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.acquires;
      auto& list = free_[cls];
      if (!list.empty()) {
        buf = std::move(list.back());
        list.pop_back();
        recycled = true;
        ++stats_.hits;
      } else {
        ++stats_.allocations;
      }
    }
    if (!recycled) buf.reserve(std::size_t{1} << cls);
    buf.resize(nbytes);
    if (fresh != nullptr) *fresh = !recycled;
    return buf;
  }

  /// Returns a buffer's capacity to the pool (contents are discarded).
  /// Buffers beyond the per-class bound are simply freed.
  void release(std::vector<std::byte>&& buf) {
    if (buf.capacity() == 0) return;
    const std::size_t cls = capacityClass(buf.capacity());
    if (cls >= kNumClasses) return;
    buf.clear();
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.releases;
    auto& list = free_[cls];
    if (list.size() >= kMaxPerClass) {
      ++stats_.dropped;
      return;  // buf frees on scope exit
    }
    list.push_back(std::move(buf));
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  /// Smallest class exponent covering `nbytes` (min class 64 bytes, so tiny
  /// control messages share one list instead of fragmenting across 1/2/4…).
  static std::size_t classFor(std::size_t nbytes) {
    const std::size_t w = std::bit_width(nbytes - 1);
    return w < kMinClass ? kMinClass : w;
  }

  /// The class a released buffer of `capacity` (> 0) parks in: the largest
  /// class its capacity fully covers, so an acquire from that class never
  /// needs to reallocate.
  static std::size_t capacityClass(std::size_t capacity) {
    return static_cast<std::size_t>(std::bit_width(capacity)) - 1;
  }

 private:
  static constexpr std::size_t kMinClass = 6;   // 64 B
  static constexpr std::size_t kNumClasses = 48;
  static constexpr std::size_t kMaxPerClass = 64;

  mutable std::mutex mutex_;
  Stats stats_;
  std::vector<std::vector<std::byte>> free_[kNumClasses];
};

}  // namespace mc::transport
