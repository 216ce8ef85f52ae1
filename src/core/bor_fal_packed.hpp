#pragma once

#include <vector>

#include "core/find_min.hpp"
#include "core/msf.hpp"
#include "graph/types.hpp"
#include "pprim/thread_team.hpp"

namespace smp::core {

/// The Bor-FAL Borůvka loop (see bor_fal.cpp for the algorithm commentary)
/// over a build_packed_input result: consumes `in`, returns the selected
/// input-edge ids (unsorted — callers assemble the result).  Accumulates
/// phase timings into `st` and honors the budget and instrumentation of
/// `opts`; bor_fal_msf is this engine between the input build and the
/// result assembly.
std::vector<graph::EdgeId> bor_fal_packed_engine(ThreadTeam& team,
                                                 PackedSolveInput in,
                                                 const MsfOptions& opts,
                                                 StepTimes& st);

}  // namespace smp::core
