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

/// Partitions intended simultaneous displacements into AOD-legal parallel
/// moves, round after round, against a grid it owns.
///
/// A call `legalize(sites, dir, steps)` takes an intent: every atom of
/// `sites` moves `steps` (>= 1) cells in `dir`. Sites must be distinct and
/// hold atoms, and the intent as a whole must be collision-free (every
/// swept cell is free or holds another site); legalisation only handles the
/// AOD cross-product rule and the order inside the set. The call returns
/// AOD-legal, collision-free parallel moves of that same step count, in
/// execution order, and advances the owned grid to the state after them.
///
/// One greedy partition serves every step count: sites are visited front
/// first (nearest the destination side), minor axis ascending, and each
/// joins the current move when its whole swept path is free or vacated by
/// an accepted member and the AOD lines it adds capture no bystander. When
/// the whole set is already legal it comes back as a single move.
///
/// The legalizer keeps the grid in major-line orientation (the lines the
/// move crosses: transposed for W/E motion, plain for N/S), together with
/// the per-call bucket and batch-membership grids, which stay all-zero
/// between calls. A caller stepping many rounds along one axis (the
/// realizer, for one `realize_assignments` call) builds one legalizer and
/// pays for no per-round transpose or allocation; batches are applied with
/// word operations, and `take_grid()` writes the row-major grid back once.
/// The accept decisions are the same, byte for byte, as one free `legalize`
/// call per round on the current grid.
///
/// A precondition failure leaves the owned state unspecified: discard the
/// object after any exception.
class AodLegalizer {
 public:
  /// Legalizes motion along one axis (`horizontal`: W/E, else N/S) of `grid`.
  AodLegalizer(const OccupancyGrid& grid, bool horizontal);

  /// Legalize one round; `dir` must lie on the legalizer's axis.
  [[nodiscard]] std::vector<ParallelMove> legalize(std::span<const Coord> sites, Direction dir,
                                                   std::int32_t steps);

  /// The row-major grid after every round legalized so far.
  [[nodiscard]] OccupancyGrid take_grid() &&;

 private:
  /// Bucket `sites` into rmaj_ and list the major lines they occupy in
  /// live_, front-first for motion toward `dmaj`.
  void bucket(std::span<const Coord> sites, std::int32_t dmaj);
  /// True when the whole bucketed set is one legal lockstep command.
  [[nodiscard]] bool legal_as_one(std::int32_t dmaj, std::int32_t steps);
  std::vector<ParallelMove> greedy_partition(std::size_t left, Direction dir, std::int32_t dmaj,
                                             std::int32_t steps);
  /// Lockstep word-parallel apply of one batch whose members on major line
  /// m are masks.row(m), for every m of `lines`: clear all sources, then set
  /// all destinations `shift` lines on.
  void apply(const OccupancyGrid& masks, std::span<const std::int32_t> lines,
             std::int32_t shift);
  [[nodiscard]] Coord site_at(std::int32_t major, std::int32_t minor) const {
    return horiz_ ? Coord{minor, major} : Coord{major, minor};
  }

  bool horiz_;
  OccupancyGrid gmaj_;  ///< the grid, rows = major lines
  OccupancyGrid rmaj_;  ///< sites still to move, bucketed by major line
  OccupancyGrid mmaj_;  ///< current batch's members (row m = line m's mask)
  BitRow present_;      ///< scratch: major lines holding a site
  std::vector<std::int32_t> live_;         ///< lines of rmaj_ with sites, front-first
  std::vector<std::int32_t> batch_lines_;  ///< lines accepted into the batch, in order
  BitRow acc_min_;           ///< minors accepted into the batch
  BitRow bystander_minors_;  ///< minors with a bystander on an accepted line
  BitRow minmask_;           ///< every site's minor (the one-command probe)
  BitRow accepted_;          ///< one line's accepted mask
  std::vector<BitRow::Word> surv_;
  std::vector<Coord> batch_;
};

/// One-shot form of `AodLegalizer::legalize`: partitions one intent against
/// `grid`, which is not modified.
[[nodiscard]] std::vector<ParallelMove> legalize(const OccupancyGrid& grid,
                                                 std::span<const Coord> sites, Direction dir,
                                                 std::int32_t steps);

}  // namespace qrm
