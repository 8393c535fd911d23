// The three workloads.  Inputs are generated from the seed on the main
// thread before any world launches (so generation stays out of setup_s);
// each run function launches one world and returns what it measured.
#pragma once

#include <memory>

#include "bench.h"

namespace perfbench {

/// Figure 1 of the paper in one SPMD program: a side x side Parti mesh
/// coupled through Meta-Chaos to a side*side-point Chaos mesh whose
/// translation table is distributed or, where schedules must be patchable
/// (patching enumerates the new distribution locally), replicated.
struct CoupledInputs;
std::shared_ptr<const CoupledInputs> makeCoupledInputs(long side, int ranks,
                                                       std::uint64_t seed,
                                                       bool replicated);

/// coupled_cfd: setup = ghost inspector, localize, copy schedules; one op =
/// one verified time-step.
WorldOutcome runCoupledCfd(const CoupledInputs& in, const WorldPlan& plan);

/// remap_rebuild: one op = one repartition epoch (four drift epochs, then
/// one full reshuffle) followed by one verified time-step.
WorldOutcome runRemapRebuild(const CoupledInputs& in, const WorldPlan& plan);

/// matvec_service: a 2-rank compute server and two single-rank clients in
/// a closed loop; one op = one verified request.
WorldOutcome runMatvecService(long n, const WorldPlan& plan);

}  // namespace perfbench
