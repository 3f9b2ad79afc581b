#include "baselines/common.hpp"

#include <algorithm>
#include <set>

#include "util/assert.hpp"

namespace qrm::baselines {

std::vector<std::int32_t> band_targets(const std::vector<std::int32_t>& atoms,
                                       std::int32_t band_start, std::int32_t band_size,
                                       std::int32_t line_length) {
  QRM_EXPECTS(band_start >= 0 && band_size > 0 && band_start + band_size <= line_length);
  const auto n = static_cast<std::int32_t>(atoms.size());
  const std::int32_t band_end = band_start + band_size;

  if (n <= band_size) {
    // Partial fill: stack everything from the band start.
    std::vector<std::int32_t> targets(atoms.size());
    for (std::int32_t i = 0; i < n; ++i) targets[static_cast<std::size_t>(i)] = band_start + i;
    return targets;
  }

  // Split: `above` atoms right-justify against the band start, the next
  // band_size atoms fill the band, the rest left-justify below the band.
  // Natural split = number of atoms originally above the band, clamped so
  // every segment fits its side.
  std::int32_t above = 0;
  for (const std::int32_t a : atoms)
    if (a < band_start) ++above;
  const std::int32_t below_capacity = line_length - band_end;
  const std::int32_t min_above = std::max(std::int32_t{0}, n - band_size - below_capacity);
  const std::int32_t max_above = std::min(n - band_size, band_start);
  above = std::clamp(above, min_above, max_above);

  std::vector<std::int32_t> targets(atoms.size());
  for (std::int32_t i = 0; i < above; ++i)
    targets[static_cast<std::size_t>(i)] = band_start - above + i;
  for (std::int32_t i = 0; i < band_size; ++i)
    targets[static_cast<std::size_t>(above + i)] = band_start + i;
  for (std::int32_t i = above + band_size; i < n; ++i)
    targets[static_cast<std::size_t>(i)] = band_end + (i - above - band_size);
  return targets;
}

GlobalPlacement compute_balanced_placement(const OccupancyGrid& grid, const Region& target) {
  QRM_EXPECTS(target.within(grid.height(), grid.width()));
  const std::int32_t height = grid.height();
  const std::int32_t width = grid.width();

  // Row capacities from a plain per-cell scan (deliberately no bit tricks:
  // this code models the baselines' published, general-purpose analyses).
  std::vector<std::vector<std::int32_t>> atoms(static_cast<std::size_t>(height));
  for (std::int32_t r = 0; r < height; ++r) {
    for (std::int32_t c = 0; c < width; ++c) {
      if (grid.occupied({r, c})) atoms[static_cast<std::size_t>(r)].push_back(c);
    }
  }

  GlobalPlacement placement;
  std::vector<std::int32_t> remaining(static_cast<std::size_t>(height));
  for (std::int32_t r = 0; r < height; ++r)
    remaining[static_cast<std::size_t>(r)] =
        static_cast<std::int32_t>(atoms[static_cast<std::size_t>(r)].size());

  std::vector<std::set<std::int32_t>> chosen(static_cast<std::size_t>(height));
  for (std::int32_t c = target.col0; c < target.col_end(); ++c) {
    std::vector<std::int32_t> order(static_cast<std::size_t>(height));
    for (std::int32_t r = 0; r < height; ++r) order[static_cast<std::size_t>(r)] = r;
    std::stable_sort(order.begin(), order.end(), [&remaining](std::int32_t a, std::int32_t b) {
      return remaining[static_cast<std::size_t>(a)] > remaining[static_cast<std::size_t>(b)];
    });
    std::int32_t granted = 0;
    for (const std::int32_t r : order) {
      if (granted == target.rows) break;
      if (remaining[static_cast<std::size_t>(r)] <= 0) break;
      chosen[static_cast<std::size_t>(r)].insert(c);
      --remaining[static_cast<std::size_t>(r)];
      ++granted;
    }
    if (granted < target.rows) {
      placement.feasible = false;
      placement.shortfall += target.rows - granted;
    }
  }

  for (std::int32_t r = 0; r < height; ++r) {
    const auto& row_atoms = atoms[static_cast<std::size_t>(r)];
    if (row_atoms.empty()) continue;
    std::set<std::int32_t> final_positions = chosen[static_cast<std::size_t>(r)];
    for (const std::int32_t a : row_atoms) {
      if (final_positions.size() == row_atoms.size()) break;
      final_positions.insert(a);
    }
    for (std::int32_t c = 0; c < width && final_positions.size() < row_atoms.size(); ++c) {
      final_positions.insert(c);
    }
    QRM_ENSURES(final_positions.size() == row_atoms.size());
    const std::vector<std::int32_t> targets(final_positions.begin(), final_positions.end());
    if (targets == row_atoms) continue;
    placement.row_assignments.push_back(make_assignment(r, width, row_atoms, targets));
  }
  return placement;
}

std::vector<LineAssignment> compute_band_columns(const OccupancyGrid& grid,
                                                 const Region& target) {
  std::vector<LineAssignment> out;
  for (std::int32_t c = 0; c < grid.width(); ++c) {
    std::vector<std::int32_t> atoms;
    for (std::int32_t r = 0; r < grid.height(); ++r)
      if (grid.occupied({r, c})) atoms.push_back(r);
    if (atoms.empty()) continue;
    // Columns outside the target still tidy toward the band (harmless and
    // keeps the array compact, mirroring the published procedures).
    const std::vector<std::int32_t> targets =
        band_targets(atoms, target.row0, target.rows, grid.height());
    if (targets == atoms) continue;
    out.push_back(make_assignment(c, grid.height(), atoms, targets));
  }
  return out;
}

void finalize_stats(PlanResult& result, const Region& target) {
  result.stats.target_filled = result.final_grid.region_full(target);
  result.stats.defects_remaining =
      static_cast<std::int64_t>(target.area()) - result.final_grid.atom_count(target);
}

}  // namespace qrm::baselines
