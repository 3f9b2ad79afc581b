#pragma once
/// \file aod.hpp
/// The 2D-AOD trap-generation constraint (paper Sec. II-B).
///
/// A move is realised by driving one RF tone per selected row and per
/// selected column; tweezers appear at *every* (row, col) cross product.
/// A parallel move is therefore physically legal only if every occupied trap
/// in rows(move) x cols(move) is itself part of the move — otherwise a
/// bystander atom would be grabbed and dragged. Unoccupied cross traps are
/// harmless.

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "lattice/grid.hpp"
#include "moves/schedule.hpp"

namespace qrm {

/// Returns an explanation of the first violation of the AOD cross-product
/// rule for `move` against `grid`, or nullopt when legal. Does not check
/// collision/occupancy semantics (see executor.hpp for those).
[[nodiscard]] std::optional<std::string> aod_violation(const OccupancyGrid& grid,
                                                       const ParallelMove& move);

[[nodiscard]] inline bool is_aod_legal(const OccupancyGrid& grid, const ParallelMove& move) {
  return !aod_violation(grid, move).has_value();
}

/// Partition an intended simultaneous displacement of `sites` (all moving
/// `steps` cells in `dir`, for any `steps` >= 1) into a sequence of
/// AOD-legal, collision-free parallel moves of that same step count, in
/// execution order.
///
/// The returned moves, applied in order to `grid`'s state, displace exactly
/// the requested atoms; `grid` itself is not modified. Sites must be
/// occupied and their intended destinations must be collision-free as a
/// whole (i.e. the *intent* is valid: every swept cell is free or holds
/// another site; legalisation only handles the AOD cross-product and
/// intra-set ordering).
///
/// One greedy partition serves every step count: sites are visited front
/// first (nearest the destination side), minor axis ascending, and each
/// joins the current move when its whole swept path is free or vacated by
/// an accepted member and the AOD lines it adds capture no bystander. When
/// the whole set is already legal it comes back as a single move.
///
/// `major_mirror` is an optional caller-maintained copy of the grid in
/// major-line orientation — transposed for horizontal moves, plain for
/// vertical — that legalize reads instead of re-deriving it (an O(area)
/// transpose or copy otherwise paid on every call; the realizer calls this
/// once per round). On return the mirror reflects `grid` AFTER the
/// returned moves are applied, so a caller stepping many rounds keeps one
/// mirror in sync for the whole sequence. The accept decisions are
/// byte-identical with or without a mirror.
[[nodiscard]] std::vector<ParallelMove> legalize(const OccupancyGrid& grid,
                                                 std::span<const Coord> sites, Direction dir,
                                                 std::int32_t steps,
                                                 OccupancyGrid* major_mirror = nullptr);

}  // namespace qrm
