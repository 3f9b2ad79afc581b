#pragma once
/// \file realizer.hpp
/// Turns per-line (row or column) atom re-placements into an executable
/// schedule of parallel moves.
///
/// Rearrangement planners think in terms of "this row's atoms should end up
/// at these columns". The realizer lowers that intent to physics: rounds of
/// simultaneous single-step shifts (the hardware's shift commands; rounds
/// crossing a dead line become multi-step hops), with each round optionally
/// partitioned into AOD-legal sub-moves. Motion is
/// order-preserving within every line, which is exactly the regime in which
/// lockstep tweezer moves are collision-free.

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "lattice/grid.hpp"
#include "moves/dead_channels.hpp"
#include "moves/schedule.hpp"
#include "util/bitrow.hpp"

namespace qrm {

/// Which family of lines an assignment addresses.
enum class Axis : std::uint8_t {
  Rows,  ///< lines are rows; positions are column indices; motion is W/E
  Cols,  ///< lines are columns; positions are row indices; motion is N/S
};

/// Re-placement of (a subset of) one line's atoms, as two masks over the
/// whole line.
///
/// The k-th set bit of `sources` (each an atom of the line) goes to the k-th
/// set bit of `targets`, so the two masks hold the same number of bits and
/// motion preserves order. Atoms outside `sources` stay fixed, and so do
/// sources whose k-th target is their own position; no moving atom may pass
/// or land on a fixed one.
struct LineAssignment {
  std::int32_t line = 0;
  BitRow sources;
  BitRow targets;

  /// Call `fn(source, target)` for every atom that moves, ascending.
  /// Precondition: sources and targets hold the same number of bits.
  template <typename Fn>
  void for_each_move(Fn&& fn) const {
    const auto position = [](std::size_t word, BitRow::Word bits) {
      return static_cast<std::int32_t>(word * BitRow::kWordBits +
                                       static_cast<std::size_t>(std::countr_zero(bits)));
    };
    const auto& to = targets.words();
    std::size_t ti = 0;
    BitRow::Word tw = to.empty() ? 0 : to[0];
    const auto& from = sources.words();
    for (std::size_t si = 0; si < from.size(); ++si) {
      for (BitRow::Word sw = from[si]; sw != 0; sw &= sw - 1) {
        while (tw == 0) tw = to.at(++ti);
        const std::int32_t source = position(si, sw);
        const std::int32_t target = position(ti, tw);
        tw &= tw - 1;
        if (source != target) fn(source, target);
      }
    }
  }
  /// Number of atoms that move.
  [[nodiscard]] std::size_t movers() const {
    std::size_t n = 0;
    for_each_move([&n](std::int32_t, std::int32_t) { ++n; });
    return n;
  }
};

/// The assignment sending `sources[i]` to `targets[i]` along a line of
/// `length` positions. Throws PreconditionError unless both lists strictly
/// ascend inside [0, length).
[[nodiscard]] LineAssignment make_assignment(std::int32_t line, std::int32_t length,
                                             const std::vector<std::int32_t>& sources,
                                             const std::vector<std::int32_t>& targets);

struct RealizeOptions {
  /// Partition every round into AOD-legal sub-moves (cross-product rule).
  /// When false each round is emitted as one ParallelMove (useful to study
  /// the idealised lower bound on command count).
  bool aod_legalize = true;
  /// Dead AOD channels to route around (nullable; empty mask behaves like
  /// null). Positions on a dead perpendicular line cannot host an atom, so
  /// rounds crossing one are emitted as multi-step hops that land on the
  /// next live position. The grid must already be masked (no atoms on dead
  /// lines) — planners guarantee this via mask_dead_lines.
  const DeadChannelMask* dead = nullptr;
};

struct RealizeResult {
  std::size_t rounds_toward_origin = 0;  ///< rounds moving W/N
  std::size_t rounds_away = 0;           ///< rounds moving E/S
  std::size_t atoms_moved = 0;           ///< atoms with nonzero displacement
};

/// Realize `assignments`, appending the generated moves to `schedule` and
/// advancing `grid` to the post-move state. Movers are taken line by line in
/// the order given, ascending along each line, and that order shapes the
/// emitted commands.
///
/// Throws PreconditionError when an assignment is malformed: a line out of
/// range or repeated, masks not spanning the line, unequal source and target
/// counts, a source without an atom, or motion that would pass or land on a
/// fixed atom.
RealizeResult realize_assignments(OccupancyGrid& grid, Axis axis,
                                  std::span<const LineAssignment> assignments,
                                  Schedule& schedule, const RealizeOptions& options = {});

}  // namespace qrm
