#include "core/cpu_reference.hpp"

#include <array>

#include "core/quadrant_plan.hpp"
#include "lattice/quadrant.hpp"
#include "util/assert.hpp"

namespace qrm {

namespace {

/// Apply one row pass's assignments to `grid`, each row becoming
/// (row & ~sources) | targets, and return the movement records (atoms that
/// shift). Sources are atoms of the row, so XOR clears them.
std::uint64_t apply_rows(OccupancyGrid& grid, const std::vector<LineAssignment>& assignments) {
  std::uint64_t records = 0;
  for (const LineAssignment& a : assignments) {
    BitRow row = grid.row(a.line);
    row ^= a.sources;
    row |= a.targets;
    grid.set_row(a.line, std::move(row));
    records += a.movers();
  }
  return records;
}

}  // namespace

CpuReferenceResult run_cpu_reference(const OccupancyGrid& initial, const QrmConfig& config) {
  QRM_EXPECTS_MSG(initial.height() > 0 && initial.width() > 0 && initial.height() % 2 == 0 &&
                      initial.width() % 2 == 0,
                  "QRM requires non-empty, even grid dimensions");
  const Region target = config.target;
  QRM_EXPECTS_MSG(
      target == centered_region(initial.height(), initial.width(), target.rows, target.cols) &&
          target.rows % 2 == 0 && target.cols % 2 == 0,
      "QRM requires an even-sized, centred target region");

  const QuadrantGeometry geom(initial.height(), initial.width());
  const std::int32_t quarter_rows = target.rows / 2;
  const std::int32_t quarter_cols = target.cols / 2;

  CpuReferenceResult result;

  // LDM: split + flip into the unified local frame.
  std::array<OccupancyGrid, 4> local;
  for (const Quadrant q : kAllQuadrants)
    local[static_cast<std::size_t>(q)] = geom.extract_local(initial, q);

  // A column pass runs as a row pass on the transposed frame, so every
  // assignment applies to a row.
  const auto compact_pass_all = [&](Axis axis) {
    for (auto& grid : local) {
      if (axis == Axis::Cols) grid = grid.flipped(Flip::Transpose);
      result.movement_records +=
          apply_rows(grid, compact_pass(grid, Axis::Rows, config.sen_limit));
      if (axis == Axis::Cols) grid = grid.flipped(Flip::Transpose);
    }
    ++result.passes;
  };

  if (config.mode == PlanMode::Balanced) {
    for (auto& grid : local) {
      BalanceReport report;
      const auto assignments =
          balance_pass(grid, quarter_rows, quarter_cols, config.sen_limit, &report);
      if (!report.feasible) result.feasible = false;
      result.movement_records += apply_rows(grid, assignments);
    }
    ++result.passes;
    compact_pass_all(Axis::Cols);
  } else {
    const Region quarter{0, 0, quarter_rows, quarter_cols};
    const auto centre_filled = [&] {
      for (const auto& grid : local)
        if (!grid.region_full(quarter)) return false;
      return true;
    };
    for (std::int32_t it = 0; it < config.max_iterations; ++it) {
      const std::uint64_t before = result.movement_records;
      compact_pass_all(Axis::Rows);
      compact_pass_all(Axis::Cols);
      if (result.movement_records == before) break;  // converged
      if (centre_filled()) break;                    // "until the center is filled"
    }
  }

  // OCM restore: write the local frames back into the global grid.
  result.final_grid = OccupancyGrid(initial.height(), initial.width());
  for (const Quadrant q : kAllQuadrants)
    geom.write_back(result.final_grid, q, local[static_cast<std::size_t>(q)]);
  result.target_filled = result.final_grid.region_full(target);
  return result;
}

}  // namespace qrm
