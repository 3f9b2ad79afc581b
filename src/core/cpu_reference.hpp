#pragma once
/// \file cpu_reference.hpp
/// The paper's CPU baseline: "we conduct a comparative analysis by running
/// the C++ algorithm on the CPU" — i.e. the accelerator's own analysis,
/// executed in software.
///
/// It runs the planner's own quadrant kernels (core/quadrant_plan.hpp) on
/// the four local frames and applies each line assignment as one word
/// operation, line = (line & ~sources) | targets. Nothing is lowered to
/// moves: like the FPGA, whose output is the packed movement-record stream,
/// it only counts the atoms that shift. It predicts the same final
/// occupancy as QrmPlanner; since both share the kernels, that equality
/// checks the lowering and realization, and the kernels themselves are
/// checked against an independent per-atom reference in the tests.
/// Fig. 7(a)'s CPU column times this function.

#include <cstdint>

#include "core/config.hpp"
#include "lattice/grid.hpp"

namespace qrm {

struct CpuReferenceResult {
  OccupancyGrid final_grid;          ///< predicted occupancy after all moves
  std::uint64_t movement_records = 0;  ///< per-atom records (empty shifts removed)
  std::int32_t passes = 0;
  bool target_filled = false;
  bool feasible = true;
};

/// Run the QRM analysis (same pass program as QrmPlanner for the given
/// config) without schedule materialisation. Preconditions: as
/// QrmPlanner::plan. `sen_limit` is honoured; merge_quadrants and
/// aod_legalize do not affect this analysis (they shape the physical
/// command stream, which this path does not emit).
[[nodiscard]] CpuReferenceResult run_cpu_reference(const OccupancyGrid& initial,
                                                   const QrmConfig& config);

}  // namespace qrm
