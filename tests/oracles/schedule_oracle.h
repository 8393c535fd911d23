// Sequential linearization oracle, kept as the reference of the Meta-Chaos
// schedule builders (core::computeSchedule, computeScheduleSend and
// computeScheduleRecv).
//
// The paper defines a schedule by one rule, virtual linearization: the i-th
// element of the source set goes to the i-th element of the destination
// set.  This oracle states that rule and nothing more.  It asks each side
// for every position's (owner, offset) through the uncached inquiry
// enumerateAll, pairs position i with position i, and lists what each rank
// must send, receive and copy locally, in linearization order.  It shares
// nothing with the builder it checks: no chunking, no ownership tables, no
// all-to-all wire streams, no coalescing greedy, no peer bookkeeping.
//
// A distributed Chaos table cannot be enumerated locally; a test passes a
// replicated twin table built from the same partition, which places every
// element identically.  Header-only (target mc_oracles); src/ never
// includes it.
#pragma once

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/adapter.h"
#include "core/registry.h"
#include "core/schedule_builder.h"
#include "sched/schedule.h"

namespace mc::core::reference {

using layout::Index;

/// Every linearization position's owner and local offset on one side.
struct Placement {
  std::vector<int> owner;
  std::vector<Index> offset;
  Index size() const { return static_cast<Index>(owner.size()); }
};

/// Enumerates one side element by element.  The descriptor must support
/// local enumeration (for distributed Chaos, pass a replicated twin).
inline Placement placementOf(const DistObject& obj, const SetOfRegions& set) {
  registerBuiltinAdapters();
  const LibraryAdapter& lib = Registry::instance().get(obj.library());
  const Index n = set.numElements();
  Placement p{std::vector<int>(static_cast<std::size_t>(n), -1),
              std::vector<Index>(static_cast<std::size_t>(n), 0)};
  lib.enumerateAll(obj, set, [&](Index lin, int owner, Index off) {
    MC_CHECK(lin >= 0 && lin < n);
    MC_CHECK(p.owner[static_cast<std::size_t>(lin)] == -1);
    p.owner[static_cast<std::size_t>(lin)] = owner;
    p.offset[static_cast<std::size_t>(lin)] = off;
  });
  for (const int owner : p.owner) MC_CHECK(owner >= 0);
  return p;
}

/// One position of a send provenance stream.
struct SendElem {
  Index lin = 0;
  Index srcOff = 0;
  Index dstOff = 0;
  Index dstOwner = 0;
  bool operator==(const SendElem&) const = default;
};

/// One position of a receive provenance stream.
struct RecvElem {
  Index lin = 0;
  Index dstOff = 0;
  Index srcOwner = 0;
  bool operator==(const RecvElem&) const = default;
};

/// What one rank's schedule must contain, element by element.
struct RankSchedule {
  std::map<int, std::vector<Index>> sends;  // peer -> source offsets
  std::map<int, std::vector<Index>> recvs;  // peer -> destination offsets
  std::vector<std::pair<Index, Index>> localPairs;  // (src, dst)
  std::vector<SendElem> sendElems;  // positions this rank sources
  std::vector<RecvElem> recvElems;  // positions it receives from a peer
};

/// Rank `me`'s share of an intra-program schedule: both sides live in the
/// same program, so a position with both owners == me is a local copy.
inline RankSchedule expectedIntra(const Placement& src, const Placement& dst,
                                  int me) {
  MC_CHECK(src.size() == dst.size());
  RankSchedule out;
  for (Index i = 0; i < src.size(); ++i) {
    const auto k = static_cast<std::size_t>(i);
    const int s = src.owner[k];
    const int d = dst.owner[k];
    if (s == me) {
      out.sendElems.push_back(SendElem{i, src.offset[k], dst.offset[k], d});
      if (d == me) {
        out.localPairs.emplace_back(src.offset[k], dst.offset[k]);
      } else {
        out.sends[d].push_back(src.offset[k]);
      }
    } else if (d == me) {
      out.recvElems.push_back(RecvElem{i, dst.offset[k], s});
      out.recvs[s].push_back(dst.offset[k]);
    }
  }
  return out;
}

/// Rank `me`'s half of an inter-program schedule.  The sending program's
/// rank `me` sends every position it owns to the destination program's
/// owner; the receiving program's rank `me` receives every position it
/// owns from the source program's owner.
inline RankSchedule expectedInter(const Placement& src, const Placement& dst,
                                  int me, bool isSender) {
  MC_CHECK(src.size() == dst.size());
  RankSchedule out;
  for (Index i = 0; i < src.size(); ++i) {
    const auto k = static_cast<std::size_t>(i);
    if (isSender && src.owner[k] == me) {
      out.sends[dst.owner[k]].push_back(src.offset[k]);
    } else if (!isSender && dst.owner[k] == me) {
      out.recvs[src.owner[k]].push_back(dst.offset[k]);
    }
  }
  return out;
}

/// Provenance streams expanded to one record per position.
inline std::vector<SendElem> expand(const std::vector<SendSeg>& segs) {
  std::vector<SendElem> out;
  for (const SendSeg& g : segs) {
    for (Index k = 0; k < g.count; ++k) {
      out.push_back(SendElem{g.lin + k, g.srcOff + k * g.srcStride,
                             g.dstOff + k * g.dstStride, g.dstOwner});
    }
  }
  return out;
}
inline std::vector<RecvElem> expand(const std::vector<RecvSeg>& segs) {
  std::vector<RecvElem> out;
  for (const RecvSeg& g : segs) {
    for (Index k = 0; k < g.count; ++k) {
      out.push_back(RecvElem{g.lin + k, g.dstOff + k * g.dstStride,
                             g.srcOwner});
    }
  }
  return out;
}

/// The expected plan in sched::Schedule form, one plan per peer in
/// ascending peer order, compressed by sched::Schedule::compress().
inline sched::Schedule compressedPlan(const RankSchedule& want) {
  sched::Schedule plan;
  for (const auto& [peer, offsets] : want.sends) {
    plan.sends.push_back(sched::OffsetPlan{peer, offsets, {}});
  }
  for (const auto& [peer, offsets] : want.recvs) {
    plan.recvs.push_back(sched::OffsetPlan{peer, offsets, {}});
  }
  plan.localPairs = want.localPairs;
  plan.compress();
  return plan;
}

/// Describes the first difference between a built schedule and the
/// oracle's, or returns "" when they agree: the same peers in the same
/// order, the same expanded offsets, the same runs as the compressed
/// oracle offsets, the same local pairs and local runs, and — when
/// `provenance` — the same expanded send and receive provenance.
inline std::string firstMismatch(const McSchedule& got,
                                 const RankSchedule& want, bool provenance) {
  std::ostringstream why;
  const sched::Schedule ref = compressedPlan(want);
  const auto comparePlans = [&](const char* what,
                                const std::vector<sched::OffsetPlan>& g,
                                const std::vector<sched::OffsetPlan>& w) {
    if (g.size() != w.size()) {
      why << what << ": " << g.size() << " plans, oracle has " << w.size();
      return false;
    }
    for (std::size_t i = 0; i < g.size(); ++i) {
      if (g[i].peer != w[i].peer) {
        why << what << "[" << i << "]: peer " << g[i].peer << ", oracle "
            << w[i].peer;
        return false;
      }
      if (g[i].expandedOffsets() != w[i].offsets) {
        why << what << " to peer " << g[i].peer << ": offsets differ";
        return false;
      }
      if (!(g[i].runs == w[i].runs)) {
        why << what << " to peer " << g[i].peer
            << ": runs differ from the compressed oracle offsets";
        return false;
      }
    }
    return true;
  };
  if (!comparePlans("sends", got.plan.sends, ref.sends)) return why.str();
  if (!comparePlans("recvs", got.plan.recvs, ref.recvs)) return why.str();
  if (got.plan.expandedLocalPairs() != want.localPairs) {
    return "local pairs differ";
  }
  if (!(got.plan.localRuns == ref.localRuns)) {
    return "local runs differ from the compressed oracle pairs";
  }
  if (provenance) {
    if (!got.hasProvenance) return "no provenance recorded";
    if (expand(got.sendSegs) != want.sendElems) {
      return "send provenance differs";
    }
    if (expand(got.recvSegs) != want.recvElems) {
      return "receive provenance differs";
    }
  }
  return "";
}

}  // namespace mc::core::reference
