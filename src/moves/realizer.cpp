#include "moves/realizer.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "moves/aod.hpp"
#include "moves/executor.hpp"
#include "util/assert.hpp"

namespace qrm {

namespace {

/// A moving atom tracked through the rounds.
struct Mover {
  std::int32_t line;
  std::int32_t pos;     // current position along the line
  std::int32_t target;  // final position
};

Coord to_coord(Axis axis, std::int32_t line, std::int32_t pos) {
  return axis == Axis::Rows ? Coord{line, pos} : Coord{pos, line};
}

void validate_assignment(const OccupancyGrid& grid, Axis axis, const LineAssignment& a) {
  const std::int32_t line_count = axis == Axis::Rows ? grid.height() : grid.width();
  const auto line_length = static_cast<std::uint32_t>(axis == Axis::Rows ? grid.width()
                                                                         : grid.height());
  QRM_EXPECTS_MSG(a.line >= 0 && a.line < line_count, "assignment line out of range");
  QRM_EXPECTS_MSG(a.sources.width() == line_length && a.targets.width() == line_length,
                  "assignment masks must span the line");
  QRM_EXPECTS_MSG(a.sources.count() == a.targets.count(),
                  "assignment sources/targets size mismatch");
  BitRow fixed = axis == Axis::Rows ? grid.row(a.line) : grid.column(a.line);
  BitRow held = a.sources;
  held &= fixed;
  QRM_EXPECTS_MSG(held == a.sources, "assignment source holds no atom");
  // Order consistency. The k-th source goes to the k-th target, so no atom
  // passes a fixed one exactly when no target lands on a fixed atom and
  // every fixed atom has as many sources as targets below it.
  fixed ^= a.sources;
  BitRow landing = fixed;
  landing &= a.targets;
  bool ordered = landing.none();
  fixed.for_each_set([&](std::uint32_t p) {
    ordered = ordered && a.sources.count_range(0, p) == a.targets.count_range(0, p);
  });
  QRM_EXPECTS_MSG(ordered, "assignment would require an atom to pass another in line " +
                               std::to_string(a.line));
}

/// Emit one round (all `sites` move `steps` cells in `dir`). With a
/// legalizer the round is split into AOD-legal sub-moves and the legalizer
/// advances its own grid (written back to `grid` when realize ends);
/// otherwise it is one ParallelMove applied to `grid` here.
void emit_round(OccupancyGrid& grid, std::vector<Coord> sites, Direction dir,
                std::int32_t steps, Schedule& schedule, AodLegalizer* legalizer) {
  if (sites.empty()) return;
  if (legalizer != nullptr) {
    for (auto& sub : legalizer->legalize(sites, dir, steps)) schedule.push_back(std::move(sub));
  } else {
    ParallelMove move{dir, steps, std::move(sites)};
    apply_move_unchecked(grid, move);
    schedule.push_back(std::move(move));
  }
}

/// Run all rounds of one phase with dead perpendicular lines to hop across.
/// Each round every active mover advances to the next live position (one
/// step plus the length of the dead run it crosses, capped at its remaining
/// displacement — the cap only binds when the assigned target itself is
/// dead, which upper passes may produce mid-plan; the executor freezes such
/// atoms and the next loop round replans them). Movers are walked
/// front-first, so a hop's landing cell is always vacated before it is
/// reached: cells inside a dead run hold no atoms (the grid is masked), and
/// the live landing cell either belonged to a front mover that has already
/// moved this round or was free at validation time (the order-consistency
/// sweep forbids fixed atoms between a mover and its target).
std::size_t run_phase_dead(OccupancyGrid& grid, Axis axis, std::vector<Mover>& movers,
                           bool toward_origin, Schedule& schedule, AodLegalizer* legalizer,
                           const std::vector<std::int32_t>& dead_positions) {
  const Direction dir = axis == Axis::Rows
                            ? (toward_origin ? Direction::West : Direction::East)
                            : (toward_origin ? Direction::North : Direction::South);
  const auto remaining = [toward_origin](const Mover& m) {
    return toward_origin ? m.pos - m.target : m.target - m.pos;
  };
  const auto pos_dead = [&dead_positions](std::int32_t p) {
    return std::binary_search(dead_positions.begin(), dead_positions.end(), p);
  };
  std::vector<Mover*> active;
  active.reserve(movers.size());
  for (auto& m : movers) {
    if (remaining(m) > 0) active.push_back(&m);
  }

  const std::int32_t delta = toward_origin ? -1 : +1;
  std::size_t rounds = 0;
  std::vector<std::int32_t> steps;
  while (!active.empty()) {
    // Front-first walk order, re-established every round (variable steps
    // let a rear mover close a gap, so a single phase-start sort would go
    // stale). Ties across lines break by line for determinism.
    std::sort(active.begin(), active.end(), [&](const Mover* a, const Mover* b) {
      if (a->pos != b->pos) return toward_origin ? a->pos < b->pos : a->pos > b->pos;
      return a->line < b->line;
    });
    steps.assign(active.size(), 1);
    for (std::size_t i = 0; i < active.size(); ++i) {
      const Mover& m = *active[i];
      while (steps[i] < remaining(m) && pos_dead(m.pos + delta * steps[i])) ++steps[i];
    }
    // Emit runs of equal step counts as one command each; a run is
    // internally collision-free (order-preserving equal shifts) and its
    // swept cells are dead, hence empty.
    std::size_t begin = 0;
    while (begin < active.size()) {
      std::size_t end = begin;
      while (end < active.size() && steps[end] == steps[begin]) ++end;
      std::vector<Coord> sites;
      sites.reserve(end - begin);
      for (std::size_t i = begin; i < end; ++i)
        sites.push_back(to_coord(axis, active[i]->line, active[i]->pos));
      emit_round(grid, std::move(sites), dir, steps[begin], schedule, legalizer);
      for (std::size_t i = begin; i < end; ++i) active[i]->pos += delta * steps[begin];
      begin = end;
    }
    std::erase_if(active, [&remaining](Mover* m) { return remaining(*m) == 0; });
    ++rounds;
  }
  return rounds;
}

/// Run all rounds of one phase of unit steps. `toward_origin` selects atoms
/// that must decrease their position (motion W/N); otherwise increase (E/S).
///
/// With a legalizer the whole phase is handed over at once: it takes every
/// mover's site and displacement, carries the movers from round to round as
/// bit masks and checks that each one lands on its target. Without one,
/// each round is one ParallelMove of every mover still short of its target;
/// movers are sorted by remaining displacement (descending), so each round
/// only touches the prefix still in motion and total work is the sum of
/// displacements, not movers x rounds.
std::size_t run_phase(OccupancyGrid& grid, Axis axis, std::vector<Mover>& movers,
                      bool toward_origin, Schedule& schedule, AodLegalizer* legalizer) {
  const Direction dir = axis == Axis::Rows
                            ? (toward_origin ? Direction::West : Direction::East)
                            : (toward_origin ? Direction::North : Direction::South);
  const auto remaining = [toward_origin](const Mover& m) {
    return toward_origin ? m.pos - m.target : m.target - m.pos;
  };
  std::vector<Mover*> active;
  active.reserve(movers.size());
  for (auto& m : movers) {
    if (remaining(m) > 0) active.push_back(&m);
  }
  if (legalizer != nullptr) {
    std::vector<Coord> sites;
    std::vector<std::int32_t> displacements;
    std::int32_t rounds = 0;
    for (Mover* m : active) {
      sites.push_back(to_coord(axis, m->line, m->pos));
      displacements.push_back(remaining(*m));
      rounds = std::max(rounds, remaining(*m));
      m->pos = m->target;  // the legalizer checks every arrival
    }
    legalizer->run_unit_phase(sites, displacements, dir, schedule);
    return static_cast<std::size_t>(rounds);
  }
  std::sort(active.begin(), active.end(),
            [&remaining](const Mover* a, const Mover* b) { return remaining(*a) > remaining(*b); });

  const std::int32_t delta = toward_origin ? -1 : +1;
  std::size_t rounds = 0;
  while (!active.empty()) {
    std::vector<Coord> stepping;
    stepping.reserve(active.size());
    for (Mover* m : active) stepping.push_back(to_coord(axis, m->line, m->pos));
    emit_round(grid, std::move(stepping), dir, 1, schedule, nullptr);
    for (Mover* m : active) m->pos += delta;
    // Arrived movers form a suffix of the displacement-sorted list.
    while (!active.empty() && remaining(*active.back()) == 0) active.pop_back();
    ++rounds;
  }
  return rounds;
}

}  // namespace

LineAssignment make_assignment(std::int32_t line, std::int32_t length,
                               const std::vector<std::int32_t>& sources,
                               const std::vector<std::int32_t>& targets) {
  QRM_EXPECTS(length >= 0);
  LineAssignment a{line, BitRow(static_cast<std::uint32_t>(length)),
                   BitRow(static_cast<std::uint32_t>(length))};
  const auto mark = [length](BitRow& mask, const std::vector<std::int32_t>& positions) {
    for (std::size_t i = 0; i < positions.size(); ++i) {
      QRM_EXPECTS_MSG(positions[i] >= 0 && positions[i] < length,
                      "assignment position out of range");
      QRM_EXPECTS_MSG(i == 0 || positions[i] > positions[i - 1],
                      "assignment positions must ascend");
      mask.set(static_cast<std::uint32_t>(positions[i]));
    }
  };
  mark(a.sources, sources);
  mark(a.targets, targets);
  return a;
}

RealizeResult realize_assignments(OccupancyGrid& grid, Axis axis,
                                  std::span<const LineAssignment> assignments,
                                  Schedule& schedule, const RealizeOptions& options) {
  std::vector<bool> seen_lines(
      static_cast<std::size_t>(axis == Axis::Rows ? grid.height() : grid.width()));
  std::vector<Mover> movers;
  for (const auto& a : assignments) {
    const auto line = static_cast<std::size_t>(a.line);
    QRM_EXPECTS_MSG(a.line < 0 || line >= seen_lines.size() || !seen_lines[line],
                    "duplicate line in one realize call");
    validate_assignment(grid, axis, a);
    seen_lines[line] = true;
    a.for_each_move([&](std::int32_t source, std::int32_t target) {
      movers.push_back({a.line, source, target});
    });
  }

  RealizeResult result;
  result.atoms_moved = movers.size();
  // Dead perpendicular lines along this axis force the hop path: positions
  // are column indices for row motion (so dead *columns* interrupt the
  // line) and row indices for column motion.
  const std::vector<std::int32_t>* dead_positions = nullptr;
  if (options.dead != nullptr) {
    const auto& perpendicular = axis == Axis::Rows ? options.dead->cols : options.dead->rows;
    if (!perpendicular.empty()) dead_positions = &perpendicular;
  }
  // All rounds of both phases move along `axis`, so one legalizer (which
  // keeps the grid in major-line orientation) serves every round and the
  // grid is written back from it once, after the last round.
  std::optional<AodLegalizer> legalizer;
  if (options.aod_legalize && !movers.empty()) legalizer.emplace(grid, axis == Axis::Rows);
  AodLegalizer* const legalizer_ptr = legalizer.has_value() ? &*legalizer : nullptr;
  if (dead_positions != nullptr) {
    result.rounds_toward_origin =
        run_phase_dead(grid, axis, movers, true, schedule, legalizer_ptr, *dead_positions);
    result.rounds_away =
        run_phase_dead(grid, axis, movers, false, schedule, legalizer_ptr, *dead_positions);
  } else {
    // Toward-origin movers are provably never blocked by fixed atoms,
    // arrived atoms, or away-movers (order preservation forbids all three),
    // so the phase completes in max|displacement| rounds; the away phase
    // mirrors it.
    result.rounds_toward_origin = run_phase(grid, axis, movers, true, schedule, legalizer_ptr);
    result.rounds_away = run_phase(grid, axis, movers, false, schedule, legalizer_ptr);
  }
  if (legalizer.has_value()) grid = std::move(*legalizer).take_grid();

  // Legalized phases set pos to target up front (the legalizer checks each
  // arrival), so the grid itself is checked too: every target holds an atom.
  for (const auto& m : movers) {
    QRM_ENSURES_MSG(m.pos == m.target && grid.occupied(to_coord(axis, m.line, m.target)),
                    "realizer failed to deliver an atom");
  }
  return result;
}

}  // namespace qrm
