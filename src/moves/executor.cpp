#include "moves/executor.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "moves/aod.hpp"
#include "util/assert.hpp"

namespace qrm {

std::optional<std::string> validate_move(const OccupancyGrid& grid, const ParallelMove& move,
                                         bool check_aod) {
  if (move.sites.empty()) return "move has no sites";
  if (move.steps < 1) return "move step count must be >= 1";

  // Membership through one sorted copy of the sites, each with its index in
  // the move: equal neighbours are duplicates, and a swept cell is a member
  // iff a binary search finds it. The repeat reported is the earliest one in
  // site order, so errors come out in the order a plain scan meets them.
  std::vector<std::pair<Coord, std::size_t>> sorted(move.sites.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) sorted[i] = {move.sites[i], i};
  std::sort(sorted.begin(), sorted.end());
  std::size_t first_repeat = sorted.size();
  for (std::size_t k = 1; k < sorted.size(); ++k)
    if (sorted[k].first == sorted[k - 1].first)
      first_repeat = std::min(first_repeat, sorted[k].second);
  for (std::size_t i = 0; i < move.sites.size(); ++i) {
    const Coord& s = move.sites[i];
    if (!grid.in_bounds(s)) return "source out of bounds: " + qrm::to_string(s);
    if (!grid.occupied(s)) return "source holds no atom: " + qrm::to_string(s);
    if (i == first_repeat) return "duplicate source: " + qrm::to_string(s);
  }
  const auto is_source = [&sorted](Coord c) {
    const auto it = std::lower_bound(sorted.begin(), sorted.end(), std::pair{c, std::size_t{0}});
    return it != sorted.end() && it->first == c;
  };
  for (const Coord& s : move.sites) {
    for (std::int32_t k = 1; k <= move.steps; ++k) {
      const Coord cell = moved(s, move.dir, k);
      if (!grid.in_bounds(cell)) {
        return "swept path leaves the grid: " + qrm::to_string(s) + " -> " + qrm::to_string(cell);
      }
      // Lockstep: a cell occupied by another member of this move is vacated
      // simultaneously and cannot collide; any other atom is a collision.
      if (grid.occupied(cell) && !is_source(cell)) {
        return "collision with bystander atom at " + qrm::to_string(cell) + " while moving " +
               qrm::to_string(s);
      }
    }
  }
  if (check_aod) {
    if (auto violation = aod_violation(grid, move)) return violation;
  }
  return std::nullopt;
}

void apply_move_unchecked(OccupancyGrid& grid, const ParallelMove& move) {
  for (const Coord& s : move.sites) grid.clear(s);
  for (const Coord& s : move.sites) {
    const Coord d = moved(s, move.dir, move.steps);
    QRM_ENSURES_MSG(!grid.occupied(d), "executor: destination already occupied");
    grid.set(d);
  }
}

void apply_move(OccupancyGrid& grid, const ParallelMove& move, bool check_aod) {
  if (auto violation = validate_move(grid, move, check_aod)) {
    throw PreconditionError("invalid move: " + *violation);
  }
  apply_move_unchecked(grid, move);
}

ExecutionReport run_schedule(OccupancyGrid& grid, const Schedule& schedule,
                             const ExecutionOptions& options) {
  ExecutionReport report;
  for (const auto& move : schedule.moves()) {
    if (auto violation = validate_move(grid, move, options.check_aod)) {
      report.ok = false;
      report.error = "move " + std::to_string(report.moves_applied) + ": " + *violation;
      return report;
    }
    apply_move_unchecked(grid, move);
    ++report.moves_applied;
    report.atoms_displaced += move.sites.size();
  }
  return report;
}

}  // namespace qrm
