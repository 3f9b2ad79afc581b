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
/// `run_unit_phase(sites, displacements, dir, out)` takes a whole phase of
/// unit steps at once: site i moves displacements[i] cells, one per round,
/// and round r moves every site not yet at its target. The sites are
/// bucketed and checked once; each round's accepted members are carried one
/// line on as the next round's movers, and the sites arriving after round r
/// are retired from them. Its moves are exactly those of one `legalize`
/// call per round on the current grid.
///
/// One greedy partition serves every step count: sites are visited front
/// first (nearest the destination side), minor axis ascending, and each
/// joins the current move when its whole swept path is free or vacated by
/// an accepted member and the AOD lines it adds capture no bystander. When
/// the whole set is already legal it comes back as a single move.
///
/// Storage is flat: the grid (in major-line orientation: the lines the move
/// crosses, so transposed for W/E motion), the movers, the batch members and
/// the next round's movers are one word array each, `wpl_` words per major
/// line, and the major lines holding movers are one bit mask. The mover,
/// member and next-round masks stay all-zero between calls. A caller
/// stepping many rounds along one axis (the realizer, for one
/// `realize_assignments` call) builds one legalizer and pays for no
/// per-round transpose or allocation; `take_grid()` writes the row-major
/// grid back once.
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

  /// Legalize a phase of unit steps (see the class comment), appending every
  /// round's moves to `out`; `displacements[i]` >= 1 is site i's step count
  /// and its target must lie on the grid. Throws InvariantError when a site
  /// misses its target.
  void run_unit_phase(std::span<const Coord> sites, std::span<const std::int32_t> displacements,
                      Direction dir, Schedule& out);

  /// The row-major grid after every round legalized so far.
  [[nodiscard]] OccupancyGrid take_grid() &&;

 private:
  using Word = BitRow::Word;

  [[nodiscard]] Word* line(std::vector<Word>& words, std::int32_t m) {
    return words.data() + static_cast<std::size_t>(m) * wpl_;
  }
  /// Index of site (major, minor) in a flat per-line array of bits.
  [[nodiscard]] std::size_t bit_at(std::int32_t major, std::int32_t minor) const {
    return static_cast<std::size_t>(major) * wpl_ * BitRow::kWordBits +
           static_cast<std::size_t>(minor);
  }
  /// Check `sites` and set them in movers_ and live_.
  void bucket(std::span<const Coord> sites);
  /// Legalize the `left` movers of movers_ as one round, appending to moves_.
  /// With `carry`, every moved site is set in next_/next_live_.
  void round(Direction dir, std::int32_t dmaj, std::int32_t steps, std::size_t left, bool carry);
  /// True when all of movers_ is one legal lockstep command.
  [[nodiscard]] bool legal_as_one(std::int32_t dmaj, std::int32_t steps);
  /// Lockstep apply of the batch in batch_ (lines batch_lines_): clear all
  /// sources, set all destinations `shift` lines on, drop the members from
  /// movers_, then emit the move.
  void apply(Direction dir, std::int32_t steps, std::int32_t shift, bool carry);

  bool horiz_;
  std::int32_t majors_;
  std::int32_t minors_;
  std::size_t wpl_;                        ///< words per major line
  std::vector<Word> grid_;                 ///< the grid, by major line
  std::vector<Word> movers_;               ///< sites still to move this round
  std::vector<Word> batch_;                ///< the current batch's members
  std::vector<Word> next_;                 ///< next round's movers (unit phases only)
  std::vector<Word> live_;                 ///< bit m: line m of movers_ is non-empty
  std::vector<Word> next_live_;            ///< the same for next_
  std::vector<Word> acc_min_;              ///< minors accepted into the batch
  std::vector<Word> bystander_minors_;     ///< minors with a bystander on an accepted line
  std::vector<std::int32_t> batch_lines_;  ///< lines accepted into the batch, in order
  std::vector<Coord> batch_sites_;         ///< the batch's sites, in emission order
  std::vector<ParallelMove> moves_;        ///< the moves legalized by the current call
};

/// One-shot form of `AodLegalizer::legalize`: partitions one intent against
/// `grid`, which is not modified.
[[nodiscard]] std::vector<ParallelMove> legalize(const OccupancyGrid& grid,
                                                 std::span<const Coord> sites, Direction dir,
                                                 std::int32_t steps);

}  // namespace qrm
