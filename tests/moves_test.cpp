// Tests for the moves substrate: AOD legality, legalisation, the executor,
// the realizer, schedules, and the physical-time model.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <set>

#include "util/assert.hpp"
#include "loading/loader.hpp"
#include "moves/aod.hpp"
#include "moves/executor.hpp"
#include "moves/physical.hpp"
#include "moves/realizer.hpp"
#include "moves/schedule.hpp"
#include "testutil.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace qrm {
namespace {

/// A valid intent for legalize: each atom joins with probability `pick`,
/// then members are pruned until every remaining member's swept path stays
/// in bounds and holds only free cells or other members (so the set moved
/// as one lockstep command, ignoring the AOD rule, is collision-free).
std::vector<Coord> random_intent(const OccupancyGrid& g, Direction dir, std::int32_t steps,
                                 Rng& rng, double pick) {
  OccupancyGrid member(g.height(), g.width());
  for (std::int32_t r = 0; r < g.height(); ++r)
    for (std::int32_t c = 0; c < g.width(); ++c)
      if (g.occupied({r, c}) && rng.bernoulli(pick)) member.set({r, c});
  for (bool changed = true; changed;) {
    changed = false;
    for (std::int32_t r = 0; r < g.height(); ++r) {
      for (std::int32_t c = 0; c < g.width(); ++c) {
        if (!member.occupied({r, c})) continue;
        for (std::int32_t k = 1; k <= steps; ++k) {
          const Coord cell = moved({r, c}, dir, k);
          if (!g.in_bounds(cell) || (g.occupied(cell) && !member.occupied(cell))) {
            member.clear({r, c});
            changed = true;
            break;
          }
        }
      }
    }
  }
  std::vector<Coord> sites;
  for (std::int32_t r = 0; r < g.height(); ++r)
    for (std::int32_t c = 0; c < g.width(); ++c)
      if (member.occupied({r, c})) sites.push_back({r, c});
  return sites;
}

/// Maps a site drawn for an East move on an n x n grid onto the frame of
/// `dir`, so one hand-built geometry serves all four directions.
Coord east_frame_to(Direction dir, std::int32_t n, Coord c) {
  switch (dir) {
    case Direction::East: return c;
    case Direction::West: return {c.row, n - 1 - c.col};
    case Direction::South: return {c.col, c.row};
    case Direction::North: return {n - 1 - c.col, c.row};
  }
  return c;
}

/// One `realize_assignments` input of the wide battery.
struct RealizeCase {
  OccupancyGrid grid;
  Axis axis;
  std::vector<LineAssignment> assignments;
  bool with_dead;
};

/// Dead channels of the wide battery's hop cases (each inside every size).
const DeadChannelMask kBatteryDead{{3, 17}, {5, 11, 22}};

/// Seeded realize inputs on lines 24, 70, 130 and 256 long (one word, and
/// multi-word lines with and without a partial tail), both axes. Each size
/// gets three kinds of assignment:
///   * random: a random subset of each line's atoms moves to fresh ascending
///     positions between its fixed neighbours, so one line moves both ways;
///   * merged half-lines: every atom of the low half packs up against the
///     middle (away from the origin) and every atom of the high half packs
///     down against it (toward the origin), the quadrant planner's shape;
///   * random on a grid with dead rows and columns, so rounds become hops.
std::vector<RealizeCase> wide_realize_battery() {
  std::vector<RealizeCase> cases;
  Rng rng(4242);
  for (const std::int32_t n : {24, 70, 130, 256}) {
    for (const Axis axis : {Axis::Rows, Axis::Cols}) {
      for (int kind = 0; kind < 3; ++kind) {
        const auto seed = static_cast<std::uint64_t>(n * 10 + kind * 2) +
                          (axis == Axis::Rows ? 0U : 1U);
        // Non-square for the random kinds, so major and minor extents differ.
        OccupancyGrid grid = load_random(n, kind == 1 ? n : n + 3, {0.5, 7000 + seed});
        const bool with_dead = kind == 2;
        if (with_dead) grid = mask_dead_lines(grid, kBatteryDead);
        const std::int32_t lines = axis == Axis::Rows ? grid.height() : grid.width();
        const std::int32_t length = axis == Axis::Rows ? grid.width() : grid.height();
        const auto& dead_positions = axis == Axis::Rows ? kBatteryDead.cols : kBatteryDead.rows;
        const auto live = [&](std::int32_t p) {
          return !with_dead || std::find(dead_positions.begin(), dead_positions.end(), p) ==
                                   dead_positions.end();
        };
        std::vector<LineAssignment> assignments;
        for (std::int32_t line = 0; line < lines; ++line) {
          std::vector<std::int32_t> atoms;
          for (std::int32_t p = 0; p < length; ++p)
            if (grid.occupied(axis == Axis::Rows ? Coord{line, p} : Coord{p, line}))
              atoms.push_back(p);
          if (atoms.empty() || rng.bernoulli(0.15)) continue;
          std::vector<std::int32_t> sources;
          std::vector<std::int32_t> targets;
          if (kind == 1) {
            const std::int32_t mid = length / 2;
            const auto low = static_cast<std::int32_t>(
                std::lower_bound(atoms.begin(), atoms.end(), mid) - atoms.begin());
            for (std::int32_t i = 0; i < static_cast<std::int32_t>(atoms.size()); ++i) {
              sources.push_back(atoms[static_cast<std::size_t>(i)]);
              targets.push_back(i < low ? mid - low + i : mid + i - low);
            }
          } else {
            // Fixed atoms split the line into segments; the movers of a
            // segment take random ascending live positions inside it.
            std::vector<std::int32_t> segment;
            std::int32_t lo = 0;
            const auto place = [&](std::int32_t hi) {
              std::vector<std::int32_t> free_cells;
              for (std::int32_t p = lo; p < hi; ++p)
                if (live(p)) free_cells.push_back(p);
              std::set<std::int32_t> chosen;
              while (chosen.size() < segment.size())
                chosen.insert(free_cells[rng.uniform_below(
                    static_cast<std::uint32_t>(free_cells.size()))]);
              sources.insert(sources.end(), segment.begin(), segment.end());
              targets.insert(targets.end(), chosen.begin(), chosen.end());
              segment.clear();
            };
            for (const std::int32_t p : atoms) {
              if (rng.bernoulli(0.7)) {
                segment.push_back(p);
              } else {
                place(p);
                lo = p + 1;
              }
            }
            place(length);
          }
          assignments.push_back(make_assignment(line, length, sources, targets));
        }
        cases.push_back({std::move(grid), axis, std::move(assignments), with_dead});
      }
    }
  }
  return cases;
}

// ---------------------------------------------------------------------------
// AOD cross-product legality
// ---------------------------------------------------------------------------

TEST(Aod, SingleAtomAlwaysLegal) {
  OccupancyGrid g(4, 4);
  g.set({1, 1});
  EXPECT_TRUE(is_aod_legal(g, {Direction::East, 1, {{1, 1}}}));
}

TEST(Aod, CrossTrapBystanderIsIllegal) {
  // Sites (0,0) and (1,1) selected: rows {0,1} x cols {0,1} generates traps
  // at (0,1) and (1,0) too. Put a bystander at (0,1).
  OccupancyGrid g(4, 4);
  g.set({0, 0});
  g.set({1, 1});
  g.set({0, 1});  // bystander
  const ParallelMove move{Direction::East, 1, {{0, 0}, {1, 1}}};
  const auto violation = aod_violation(g, move);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("(0,1)"), std::string::npos);
}

TEST(Aod, CrossTrapMemberIsLegal) {
  // Same geometry but the cross trap is itself part of the move.
  OccupancyGrid g(4, 4);
  g.set({0, 0});
  g.set({1, 1});
  g.set({0, 1});
  const ParallelMove move{Direction::South, 1, {{0, 0}, {1, 1}, {0, 1}}};
  // (1,0) is empty, so the remaining cross trap is harmless.
  EXPECT_TRUE(is_aod_legal(g, move));
}

TEST(Aod, EmptyCrossTrapHarmless) {
  OccupancyGrid g(4, 4);
  g.set({0, 0});
  g.set({1, 1});
  EXPECT_TRUE(is_aod_legal(g, {Direction::East, 1, {{0, 0}, {1, 1}}}));
}

TEST(Aod, LegalizeSplitsOnBystander) {
  OccupancyGrid g(4, 4);
  g.set({0, 0});
  g.set({1, 1});
  g.set({0, 1});  // bystander: (0,0) and (1,1) cannot ride together
  const std::vector<Coord> sites{{0, 0}, {1, 1}};
  const auto batches = legalize(g, sites, Direction::South, 1);
  ASSERT_EQ(batches.size(), 2u);
  // Every batch must be AOD-legal at its execution time and apply cleanly.
  OccupancyGrid state = g;
  for (const auto& b : batches) {
    EXPECT_FALSE(validate_move(state, b, true).has_value());
    apply_move_unchecked(state, b);
  }
  EXPECT_TRUE(state.occupied({1, 0}));
  EXPECT_TRUE(state.occupied({2, 1}));
  EXPECT_TRUE(state.occupied({0, 1}));  // bystander untouched
}

TEST(Aod, LegalizeKeepsLockstepChainsTogether) {
  // Three atoms in a row moving west: a chain that must stay in one batch
  // (or be ordered front-first).
  OccupancyGrid g(1, 6);
  g.set({0, 2});
  g.set({0, 3});
  g.set({0, 4});
  const std::vector<Coord> sites{{0, 2}, {0, 3}, {0, 4}};
  const auto batches = legalize(g, sites, Direction::West, 1);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].sites.size(), 3u);
  OccupancyGrid state = g;
  EXPECT_FALSE(validate_move(state, batches[0], true).has_value());
}

TEST(Aod, LegalizeRejectsDuplicateSites) {
  // A duplicated site passes the occupancy precondition (both copies see the
  // same atom) and used to be emitted twice inside one ParallelMove; it must
  // fail fast instead.
  OccupancyGrid g(4, 4);
  g.set({1, 1});
  g.set({2, 2});
  const std::vector<Coord> sites{{1, 1}, {2, 2}, {1, 1}};
  EXPECT_THROW((void)legalize(g, sites, Direction::East, 1), PreconditionError);
}

TEST(Aod, UnitPhaseRejectsMalformedSites) {
  // The phase entry checks its sites the way legalize does, and also each
  // displacement and target, before it emits anything.
  OccupancyGrid g(4, 4);
  g.set({1, 1});
  g.set({2, 2});
  const auto rejects = [&](const std::vector<Coord>& sites,
                           const std::vector<std::int32_t>& displacements) {
    Schedule out;
    EXPECT_THROW(AodLegalizer(g, true).run_unit_phase(sites, displacements, Direction::East, out),
                 PreconditionError);
    EXPECT_TRUE(out.empty());
  };
  rejects({{1, 1}, {2, 2}, {1, 1}}, {1, 1, 1});  // duplicate site
  rejects({{1, 1}, {3, 0}}, {1, 1});              // site without an atom
  rejects({{1, 1}, {4, 0}}, {1, 1});              // site off the grid
  rejects({{1, 1}, {2, 2}}, {1, 0});              // no displacement
  rejects({{1, 1}, {2, 2}}, {1, 2});              // target off the grid
  rejects({{1, 1}, {2, 2}}, {1});                 // size mismatch

  // A displacement past any grid is rejected before anything is sized by it.
  rejects({{1, 1}, {2, 2}}, {1, std::numeric_limits<std::int32_t>::max()});
}

TEST(Aod, LegalizeHandsBlockedFollowerToLaterBatch) {
  // Atoms at (0,2) and (2,2) move West; bystander at (0,1)... the first
  // cannot move at all -> invalid intent must throw.
  OccupancyGrid g(3, 4);
  g.set({0, 2});
  g.set({0, 1});  // permanent blocker (not part of the move)
  const std::vector<Coord> sites{{0, 2}};
  EXPECT_THROW((void)legalize(g, sites, Direction::West, 1), InvariantError);
  // A multi-step move is blocked by an atom anywhere on its swept path,
  // not only by the one in the first cell.
  OccupancyGrid far(3, 4);
  far.set({0, 3});
  far.set({0, 1});
  const std::vector<Coord> far_sites{{0, 3}};
  EXPECT_THROW((void)legalize(far, far_sites, Direction::West, 2), InvariantError);
}

TEST(Aod, LegalizeRandomisedAlwaysExecutable) {
  // Property: for random grids and random valid intents in every direction
  // and step count, legalize must produce batches that run cleanly under
  // full validation and move exactly the chosen atoms. An AodLegalizer
  // object must return the same batches as the free function and end
  // holding the post-move grid.
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    const std::int32_t height = trial % 10 == 9 ? 70 : 12;
    const std::int32_t width = trial % 10 == 9 ? 66 : 12;
    const OccupancyGrid g =
        load_random(height, width, {0.45, 1000 + static_cast<std::uint64_t>(trial)});
    for (const Direction dir : kAllDirections) {
      for (std::int32_t steps = 1; steps <= 4; ++steps) {
        // Alternate maximal intents (every atom that can go) with sparse ones.
        const std::vector<Coord> sites =
            random_intent(g, dir, steps, rng, trial % 2 == 0 ? 1.0 : 0.5);
        if (sites.empty()) continue;
        OccupancyGrid expected = g;
        for (const Coord& s : sites) expected.clear(s);
        for (const Coord& s : sites) expected.set(moved(s, dir, steps));
        for (const bool with_object : {false, true}) {
          AodLegalizer legalizer(g, is_horizontal(dir));
          const auto batches =
              with_object ? legalizer.legalize(sites, dir, steps) : legalize(g, sites, dir, steps);
          OccupancyGrid state = g;
          std::size_t moved_atoms = 0;
          for (const auto& b : batches) {
            EXPECT_EQ(b.dir, dir);
            EXPECT_EQ(b.steps, steps);
            const auto violation = validate_move(state, b, true);
            ASSERT_FALSE(violation.has_value()) << *violation;
            apply_move_unchecked(state, b);
            moved_atoms += b.sites.size();
          }
          EXPECT_EQ(moved_atoms, sites.size());
          EXPECT_EQ(state, expected);
          if (with_object) {
            EXPECT_EQ(std::move(legalizer).take_grid(), state);
          }
        }
      }
    }
  }
}

TEST(Aod, LegalizerReuseMatchesFreshCalls) {
  // One legalizer object driven through a seeded sequence of rounds along
  // one axis, the way the realizer drives it, must return exactly the
  // batches of a fresh free-function call on the current grid, every batch
  // must execute under the AOD check, and its grid must track the replay.
  Rng rng(91);
  for (int trial = 0; trial < 8; ++trial) {
    const bool wide = trial % 4 == 3;
    OccupancyGrid state = load_random(wide ? 70 : 12, wide ? 66 : 12,
                                      {0.45, 3000 + static_cast<std::uint64_t>(trial)});
    for (const bool horizontal : {true, false}) {
      AodLegalizer legalizer(state, horizontal);
      const std::array<Direction, 2> phases =
          horizontal ? std::array{Direction::West, Direction::East}
                     : std::array{Direction::North, Direction::South};
      for (int round = 0; round < 12; ++round) {
        const Direction dir = phases[rng.uniform_below(2)];
        const auto steps = static_cast<std::int32_t>(1 + rng.uniform_below(4));
        const std::vector<Coord> sites =
            random_intent(state, dir, steps, rng, round % 2 == 0 ? 1.0 : 0.5);
        const auto fresh = legalize(state, sites, dir, steps);
        const auto batches = legalizer.legalize(sites, dir, steps);
        EXPECT_EQ(batches, fresh) << "trial " << trial << " round " << round;
        for (const auto& b : batches) {
          ASSERT_NO_THROW(apply_move(state, b, true));
        }
        AodLegalizer copy = legalizer;
        EXPECT_EQ(std::move(copy).take_grid(), state) << "trial " << trial << " round " << round;
      }
    }
  }
}

TEST(Aod, LegalizeMultiStepPartitionsArePinned) {
  // Pins the exact batch sequence (direction, steps, sites in order) that
  // legalize emits for multi-step intents that cannot move as one command:
  // hand-built cross-trap geometries plus seeded random intents, steps 2-4
  // in all four directions, on grids narrower and wider than one word.
  struct Case {
    OccupancyGrid grid;
    std::vector<Coord> sites;
    Direction dir;
    std::int32_t steps;
  };
  std::vector<Case> cases;
  constexpr std::int32_t n = 16;
  for (const Direction dir : kAllDirections) {
    for (std::int32_t steps = 2; steps <= 4; ++steps) {
      const auto hand_built = [&](const std::vector<Coord>& movers,
                                  const std::vector<Coord>& fixed) {
        Case c{OccupancyGrid(n, n), {}, dir, steps};
        for (const Coord& m : movers) {
          c.grid.set(east_frame_to(dir, n, m));
          c.sites.push_back(east_frame_to(dir, n, m));
        }
        for (const Coord& f : fixed) c.grid.set(east_frame_to(dir, n, f));
        cases.push_back(std::move(c));
      };
      // A fixed atom on the movers' cross trap splits them.
      hand_built({{2, 6}, {6, 2}}, {{2, 2}});
      // (3,5) is gated behind the fixed atom at (7,5) once (7,9) is in the
      // batch, and its follower (3,4) is then blocked: both go next.
      hand_built({{7, 9}, {3, 5}, {3, 4}}, {{7, 5}});
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const auto draw = static_cast<std::uint64_t>(dir) * 100 + steps * 10 + seed;
        OccupancyGrid g = load_random(n, n, {0.5, 5000 + draw});
        Rng rng(draw);
        std::vector<Coord> sites = random_intent(g, dir, steps, rng, 0.9);
        cases.push_back({std::move(g), std::move(sites), dir, steps});
      }
      const auto draw = static_cast<std::uint64_t>(dir) * 100 + steps * 10;
      OccupancyGrid wide = load_random(70, 66, {0.4, 6000 + draw});
      Rng rng(draw);
      std::vector<Coord> sites = random_intent(wide, dir, steps, rng, 0.6);
      cases.push_back({std::move(wide), std::move(sites), dir, steps});
    }
  }

  std::uint64_t hash = fnv::kOffset;
  std::size_t total_batches = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const auto batches = legalize(c.grid, c.sites, c.dir, c.steps);
    EXPECT_GT(batches.size(), 1u) << "case " << i << " no longer needs a split";
    total_batches += batches.size();
    fnv::mix_u64(hash, batches.size());
    for (const auto& b : batches) {
      fnv::mix_u64(hash, static_cast<std::uint64_t>(b.dir));
      fnv::mix_u64(hash, static_cast<std::uint64_t>(b.steps));
      fnv::mix_u64(hash, b.sites.size());
      for (const Coord& s : b.sites) {
        fnv::mix_u64(hash, static_cast<std::uint64_t>(s.row));
        fnv::mix_u64(hash, static_cast<std::uint64_t>(s.col));
      }
    }
  }
  EXPECT_EQ(cases.size(), 84u);
  EXPECT_EQ(total_batches, 986u);
  EXPECT_EQ(hash, 9642755931064177783ULL) << "multi-step partition drifted";
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

TEST(Executor, RejectsEmptyAndBadSteps) {
  OccupancyGrid g(4, 4);
  g.set({0, 0});
  EXPECT_TRUE(validate_move(g, {Direction::East, 1, {}}, false).has_value());
  EXPECT_TRUE(validate_move(g, {Direction::East, 0, {{0, 0}}}, false).has_value());
}

TEST(Executor, RejectsUnoccupiedSourceAndDuplicates) {
  OccupancyGrid g(4, 4);
  g.set({0, 0});
  EXPECT_TRUE(validate_move(g, {Direction::East, 1, {{1, 1}}}, false).has_value());
  EXPECT_TRUE(validate_move(g, {Direction::East, 1, {{0, 0}, {0, 0}}}, false).has_value());
}

TEST(Executor, RejectsOutOfBoundsDestination) {
  OccupancyGrid g(4, 4);
  g.set({0, 3});
  EXPECT_TRUE(validate_move(g, {Direction::East, 1, {{0, 3}}}, false).has_value());
  g.set({0, 0});
  EXPECT_TRUE(validate_move(g, {Direction::West, 1, {{0, 0}}}, false).has_value());
}

TEST(Executor, RejectsCollisionWithBystander) {
  OccupancyGrid g(1, 4);
  g.set({0, 0});
  g.set({0, 2});
  // Moving (0,0) east by 2 lands on (0,2), and also sweeps (0,1) (empty ok).
  EXPECT_TRUE(validate_move(g, {Direction::East, 2, {{0, 0}}}, false).has_value());
}

TEST(Executor, LockstepChainIsValid) {
  OccupancyGrid g(1, 4);
  g.set({0, 1});
  g.set({0, 2});
  const ParallelMove move{Direction::West, 1, {{0, 1}, {0, 2}}};
  EXPECT_FALSE(validate_move(g, move, true).has_value());
  apply_move(g, move);
  EXPECT_TRUE(g.occupied({0, 0}));
  EXPECT_TRUE(g.occupied({0, 1}));
  EXPECT_FALSE(g.occupied({0, 2}));
}

TEST(Executor, FortySiteMovesReportTheFirstError) {
  // Two rows of a 40-atom lockstep chain (columns 1..20): large enough that
  // membership is not probed site by site, with every error kind placed
  // behind valid sites so the first one in site order must be reported.
  OccupancyGrid g(3, 24);
  std::vector<Coord> chain;
  for (const std::int32_t r : {0, 2})
    for (std::int32_t c = 1; c <= 20; ++c) {
      g.set({r, c});
      chain.push_back({r, c});
    }
  ASSERT_EQ(chain.size(), 40u);
  EXPECT_FALSE(validate_move(g, {Direction::West, 1, chain}, false).has_value());
  EXPECT_FALSE(validate_move(g, {Direction::East, 3, chain}, false).has_value());

  const auto error = [&g](Direction dir, std::int32_t steps, std::vector<Coord> sites) {
    return validate_move(g, {dir, steps, std::move(sites)}, false).value_or("valid");
  };
  std::vector<Coord> duplicate = chain;
  duplicate[30] = {0, 7};
  EXPECT_EQ(error(Direction::West, 1, duplicate), "duplicate source: (0,7)");
  std::vector<Coord> empty = chain;
  empty[25] = {1, 5};
  EXPECT_EQ(error(Direction::West, 1, empty), "source holds no atom: (1,5)");
  // The earlier of two faults wins, whichever kind it is.
  std::vector<Coord> both = duplicate;
  both[35] = {1, 5};
  EXPECT_EQ(error(Direction::West, 1, both), "duplicate source: (0,7)");
  both[12] = {1, 6};
  EXPECT_EQ(error(Direction::West, 1, both), "source holds no atom: (1,6)");

  g.set({2, 22});  // bystander two cells east of the second row's chain
  EXPECT_EQ(error(Direction::East, 2, chain),
            "collision with bystander atom at (2,22) while moving (2,20)");
  std::vector<Coord> shorter = chain;
  shorter.pop_back();  // (2,20) stays put: (2,19) now runs into it
  EXPECT_EQ(error(Direction::East, 1, shorter),
            "collision with bystander atom at (2,20) while moving (2,19)");
}

TEST(Executor, MultiStepSweepChecksPath) {
  OccupancyGrid g(1, 6);
  g.set({0, 0});
  g.set({0, 2});  // blocker midway
  EXPECT_TRUE(validate_move(g, {Direction::East, 3, {{0, 0}}}, false).has_value());
  g.clear({0, 2});
  EXPECT_FALSE(validate_move(g, {Direction::East, 3, {{0, 0}}}, false).has_value());
}

TEST(Executor, MultiStepLockstepGroupSweepsThroughVacatedCells) {
  OccupancyGrid g(1, 6);
  g.set({0, 1});
  g.set({0, 2});
  // Both move east 2: atom at 1 sweeps cells 2 (vacated by partner) and 3.
  const ParallelMove move{Direction::East, 2, {{0, 1}, {0, 2}}};
  EXPECT_FALSE(validate_move(g, move, true).has_value());
  apply_move(g, move);
  EXPECT_TRUE(g.occupied({0, 3}));
  EXPECT_TRUE(g.occupied({0, 4}));
}

TEST(Executor, ApplyMoveThrowsOnViolation) {
  OccupancyGrid g(2, 2);
  EXPECT_THROW(apply_move(g, {Direction::East, 1, {{0, 0}}}), PreconditionError);
}

TEST(Executor, RunScheduleStopsAtFirstViolation) {
  OccupancyGrid g(1, 4);
  g.set({0, 0});
  Schedule s;
  s.push_back({Direction::East, 1, {{0, 0}}});
  s.push_back({Direction::East, 1, {{0, 0}}});  // source now empty -> invalid
  const ExecutionReport report = run_schedule(g, s);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.moves_applied, 1u);
  EXPECT_NE(report.error.find("move 1"), std::string::npos);
}

TEST(Executor, AodCheckCanBeDisabled) {
  // A move that is physically collision-free but violates the AOD
  // cross-product rule: atoms (0,0) and (1,1) ride east while a bystander
  // sits on the generated cross trap (1,0).
  OccupancyGrid g(3, 4);
  g.set({0, 0});
  g.set({1, 1});
  g.set({1, 0});  // bystander on the cross trap
  const ParallelMove move{Direction::East, 1, {{0, 0}, {1, 1}}};
  EXPECT_TRUE(validate_move(g, move, /*check_aod=*/true).has_value());
  EXPECT_FALSE(validate_move(g, move, /*check_aod=*/false).has_value());
}

// ---------------------------------------------------------------------------
// Realizer
// ---------------------------------------------------------------------------

TEST(Realizer, CompactsARow) {
  OccupancyGrid g = OccupancyGrid::from_strings({"01011"});
  Schedule s;
  const LineAssignment a = make_assignment(0, 5, {1, 3, 4}, {0, 1, 2});
  const RealizeResult rr = realize_assignments(g, Axis::Rows, {&a, 1}, s);
  EXPECT_EQ(g.row(0).to_string(), "11100");
  EXPECT_EQ(rr.atoms_moved, 3u);
  EXPECT_EQ(rr.rounds_toward_origin, 2u);  // max displacement
  EXPECT_EQ(rr.rounds_away, 0u);
}

TEST(Realizer, MovesBothDirections) {
  OccupancyGrid g = OccupancyGrid::from_strings({"01100"});
  Schedule s;
  const LineAssignment a = make_assignment(0, 5, {1, 2}, {0, 4});  // one west, one east x2
  (void)realize_assignments(g, Axis::Rows, {&a, 1}, s);
  EXPECT_EQ(g.row(0).to_string(), "10001");
}

TEST(Realizer, ColumnAxisUsesNorthSouth) {
  OccupancyGrid g = OccupancyGrid::from_strings({
      "0",
      "1",
      "1",
      "0",
  });
  Schedule s;
  const LineAssignment a = make_assignment(0, 4, {1, 2}, {0, 1});
  (void)realize_assignments(g, Axis::Cols, {&a, 1}, s);
  EXPECT_TRUE(g.occupied({0, 0}));
  EXPECT_TRUE(g.occupied({1, 0}));
  EXPECT_FALSE(g.occupied({2, 0}));
  for (const auto& m : s.moves()) EXPECT_EQ(m.dir, Direction::North);
}

TEST(Realizer, RejectsMalformedAssignments) {
  OccupancyGrid g = OccupancyGrid::from_strings({"0110"});
  Schedule s;
  // Non-ascending or out-of-range positions cannot become masks.
  EXPECT_THROW((void)make_assignment(0, 4, {2, 1}, {0, 1}), PreconditionError);
  EXPECT_THROW((void)make_assignment(0, 4, {1}, {4}), PreconditionError);
  // Masks narrower than the line.
  LineAssignment narrow = make_assignment(0, 3, {1}, {0});
  EXPECT_THROW((void)realize_assignments(g, Axis::Rows, {&narrow, 1}, s), PreconditionError);
  // Unoccupied source.
  LineAssignment bad2 = make_assignment(0, 4, {0}, {3});
  EXPECT_THROW((void)realize_assignments(g, Axis::Rows, {&bad2, 1}, s), PreconditionError);
  // Size mismatch.
  LineAssignment bad3 = make_assignment(0, 4, {1, 2}, {0});
  EXPECT_THROW((void)realize_assignments(g, Axis::Rows, {&bad3, 1}, s), PreconditionError);
  // Target collides with a fixed atom's ordering (moving atom would pass it).
  OccupancyGrid g2 = OccupancyGrid::from_strings({"0110"});
  LineAssignment bad4 = make_assignment(0, 4, {1}, {3});  // must pass the fixed atom at 2
  EXPECT_THROW((void)realize_assignments(g2, Axis::Rows, {&bad4, 1}, s), PreconditionError);
  // A target on a fixed atom.
  LineAssignment onto = make_assignment(0, 4, {1}, {2});
  EXPECT_THROW((void)realize_assignments(g2, Axis::Rows, {&onto, 1}, s), PreconditionError);
  // Duplicate line.
  LineAssignment ok = make_assignment(0, 4, {1}, {0});
  LineAssignment dup = make_assignment(0, 4, {2}, {3});
  std::vector<LineAssignment> both{ok, dup};
  EXPECT_THROW((void)realize_assignments(g, Axis::Rows, both, s), PreconditionError);
}

TEST(Realizer, MultiLineRoundsShareCommands) {
  // Two rows, both compacting west by one: a single round should carry both
  // atoms (AOD-legal because the cross traps are empty or members).
  OccupancyGrid g = OccupancyGrid::from_strings({
      "010",
      "010",
  });
  Schedule s;
  std::vector<LineAssignment> lines{make_assignment(0, 3, {1}, {0}),
                                    make_assignment(1, 3, {1}, {0})};
  (void)realize_assignments(g, Axis::Rows, lines, s);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].sites.size(), 2u);
}

TEST(Realizer, DeadColumnHopRoundSplitsOnCrossTrapBystander) {
  // Dead columns 2 and 5: the movers at (0,3) and (2,6) each hop one dead
  // column in the same round, both 2 steps West, so they share one hop
  // command -- but their cross trap (0,6) holds a fixed atom, so the hop
  // must split into two AOD-legal 2-step moves.
  OccupancyGrid g = OccupancyGrid::from_strings({
      "00010010",
      "00000000",
      "00000010",
  });
  const OccupancyGrid initial = g;
  const DeadChannelMask dead{{}, {2, 5}};
  Schedule s;
  const std::vector<LineAssignment> lines{make_assignment(0, 8, {3}, {1}),
                                          make_assignment(2, 8, {6}, {4})};
  const RealizeResult result =
      realize_assignments(g, Axis::Rows, lines, s, {.aod_legalize = true, .dead = &dead});
  EXPECT_EQ(result.rounds_toward_origin, 1u);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], (ParallelMove{Direction::West, 2, {{0, 3}}}));
  EXPECT_EQ(s[1], (ParallelMove{Direction::West, 2, {{2, 6}}}));
  EXPECT_EQ(g, OccupancyGrid::from_strings({
                   "01000010",
                   "00000000",
                   "00001000",
               }));
  testutil::expect_replays_to(initial, s, g);
}

TEST(Realizer, RandomisedAssignmentsExecuteCleanly) {
  // Property: random per-line subsets mapped to random order-preserving
  // distinct targets realize into schedules that replay cleanly, conserve
  // atoms, and land on the grid realize_assignments leaves behind (written
  // back once, after the last round, when legalizing). Covers both axes,
  // with and without legalisation (unlegalized rounds break the AOD rule by
  // design, so their replay skips that check) and with and without dead
  // lines to hop.
  Rng rng(5);
  const DeadChannelMask dead{{3, 8}, {2, 5, 11}};
  for (int trial = 0; trial < 25; ++trial) {
    for (const Axis axis : {Axis::Rows, Axis::Cols}) {
      for (const bool with_dead : {false, true}) {
        OccupancyGrid initial =
            load_random(10, 14, {0.4, 2000 + static_cast<std::uint64_t>(trial)});
        if (with_dead) initial = mask_dead_lines(initial, dead);
        const std::int32_t lines = axis == Axis::Rows ? initial.height() : initial.width();
        const std::int32_t length = axis == Axis::Rows ? initial.width() : initial.height();
        const auto& dead_positions = axis == Axis::Rows ? dead.cols : dead.rows;
        const auto live = [&](std::int32_t p) {
          return !with_dead || std::find(dead_positions.begin(), dead_positions.end(), p) ==
                                   dead_positions.end();
        };
        std::vector<LineAssignment> assignments;
        for (std::int32_t line = 0; line < lines; ++line) {
          std::vector<std::int32_t> sources;
          for (std::int32_t p = 0; p < length; ++p)
            if (initial.occupied(axis == Axis::Rows ? Coord{line, p} : Coord{p, line}))
              sources.push_back(p);
          if (sources.empty()) continue;
          // Move every atom of the line to a fresh ascending live placement.
          std::set<std::int32_t> placement;
          while (placement.size() < sources.size()) {
            const auto p = static_cast<std::int32_t>(
                rng.uniform_below(static_cast<std::uint32_t>(length)));
            if (live(p)) placement.insert(p);
          }
          assignments.push_back(make_assignment(
              line, length, sources, {placement.begin(), placement.end()}));
        }
        for (const bool aod_legalize : {true, false}) {
          OccupancyGrid grid = initial;
          Schedule schedule;
          (void)realize_assignments(grid, axis, assignments, schedule,
                                    {.aod_legalize = aod_legalize,
                                     .dead = with_dead ? &dead : nullptr});
          OccupancyGrid replay = initial;
          const ExecutionReport report =
              run_schedule(replay, schedule, {.check_aod = aod_legalize});
          ASSERT_TRUE(report.ok) << report.error;
          EXPECT_EQ(grid, replay) << "trial " << trial << (axis == Axis::Rows ? " rows" : " cols")
                                  << (aod_legalize ? " legalized" : " unlegalized")
                                  << (with_dead ? " dead" : "");
          EXPECT_EQ(replay.atom_count(), initial.atom_count()) << "atoms must be conserved";
        }
      }
    }
  }
}

TEST(Realizer, LegalizedSchedulesArePinned) {
  // Pins the legalized schedule (every command's direction, steps and sites
  // in order), the round counts and the final grid of every case of the
  // wide battery: lines up to 256 long, where the registry's scenarios stay
  // at 50 or below.
  std::uint64_t hash = fnv::kOffset;
  std::size_t total_moves = 0;
  for (const RealizeCase& c : wide_realize_battery()) {
    OccupancyGrid grid = c.grid;
    Schedule schedule;
    const RealizeResult result =
        realize_assignments(grid, c.axis, c.assignments, schedule,
                            {.aod_legalize = true, .dead = c.with_dead ? &kBatteryDead : nullptr});
    total_moves += schedule.size();
    fnv::mix_u64(hash, result.rounds_toward_origin);
    fnv::mix_u64(hash, result.rounds_away);
    fnv::mix_u64(hash, result.atoms_moved);
    fnv::mix_u64(hash, schedule.size());
    for (const ParallelMove& m : schedule.moves()) {
      fnv::mix_u64(hash, static_cast<std::uint64_t>(m.dir));
      fnv::mix_u64(hash, static_cast<std::uint64_t>(m.steps));
      fnv::mix_u64(hash, m.sites.size());
      for (const Coord& s : m.sites) {
        fnv::mix_u64(hash, static_cast<std::uint64_t>(s.row));
        fnv::mix_u64(hash, static_cast<std::uint64_t>(s.col));
      }
    }
    for (std::int32_t r = 0; r < grid.height(); ++r)
      for (const BitRow::Word w : grid.row(r).words()) fnv::mix_u64(hash, w);
  }
  EXPECT_EQ(total_moves, 41642u);
  EXPECT_EQ(hash, 6928359167531501300ULL) << "legalized realize drifted";
}

TEST(Realizer, LegalizedPhasesMatchPerRoundLegalize) {
  // Reference for the legalized unit-step phases: step every mover still
  // short of its target one cell per round, toward the origin first, with
  // one free legalize() call per round on the current grid. Realize must
  // emit exactly that schedule and land on the same grid, on every
  // hop-free case of the wide battery.
  for (const RealizeCase& c : wide_realize_battery()) {
    if (c.with_dead) continue;
    OccupancyGrid grid = c.grid;
    Schedule schedule;
    (void)realize_assignments(grid, c.axis, c.assignments, schedule);

    OccupancyGrid state = c.grid;
    Schedule reference;
    for (const bool toward_origin : {true, false}) {
      const Direction dir = c.axis == Axis::Rows
                                ? (toward_origin ? Direction::West : Direction::East)
                                : (toward_origin ? Direction::North : Direction::South);
      const std::int32_t delta = toward_origin ? -1 : +1;
      std::vector<std::pair<Coord, std::int32_t>> movers;  // position, rounds left
      for (const LineAssignment& a : c.assignments) {
        a.for_each_move([&](std::int32_t source, std::int32_t target) {
          const std::int32_t left = (target - source) * delta;
          if (left <= 0) return;
          movers.push_back(
              {c.axis == Axis::Rows ? Coord{a.line, source} : Coord{source, a.line}, left});
        });
      }
      for (;;) {
        std::vector<Coord> sites;
        for (auto& [at, left] : movers) {
          if (left == 0) continue;
          sites.push_back(at);
          at = moved(at, dir, 1);
          --left;
        }
        if (sites.empty()) break;
        for (const ParallelMove& b : legalize(state, sites, dir, 1)) {
          ASSERT_NO_THROW(apply_move(state, b, true));
          reference.push_back(b);
        }
      }
    }
    EXPECT_EQ(grid, state);
    ASSERT_EQ(schedule.size(), reference.size());
    EXPECT_TRUE(schedule == reference);
  }
}

// ---------------------------------------------------------------------------
// Schedule bookkeeping & physical model
// ---------------------------------------------------------------------------

TEST(Schedule, StatsAndRecords) {
  Schedule s;
  s.push_back({Direction::West, 1, {{0, 1}, {1, 1}}});
  s.push_back({Direction::South, 3, {{2, 2}}});
  const ScheduleStats st = s.stats();
  EXPECT_EQ(st.parallel_moves, 2u);
  EXPECT_EQ(st.atom_moves, 3u);
  EXPECT_EQ(st.total_steps, 5);
  EXPECT_EQ(st.max_steps, 3);
  EXPECT_EQ(st.max_parallelism, 2u);
  EXPECT_DOUBLE_EQ(st.mean_parallelism, 1.5);

  const auto records = s.records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].origin, (Coord{2, 2}));
  EXPECT_EQ(records[2].dir, Direction::South);
  EXPECT_EQ(records[2].steps, 3);
}

TEST(Schedule, AppendAndToString) {
  Schedule a;
  a.push_back({Direction::East, 1, {{0, 0}}});
  Schedule b;
  b.push_back({Direction::North, 2, {{3, 3}}});
  a.append(b);
  EXPECT_EQ(a.size(), 2u);
  const std::string text = a.to_string();
  EXPECT_NE(text.find("E x1"), std::string::npos);
  EXPECT_NE(text.find("N x2"), std::string::npos);
}

TEST(Physical, DurationsAccumulate) {
  const PhysicalModel model{20.0, 10.0};
  Schedule s;
  s.push_back({Direction::East, 1, {{0, 0}, {1, 0}}});
  s.push_back({Direction::East, 4, {{0, 2}}});
  EXPECT_DOUBLE_EQ(model.move_duration_us(s[0]), 30.0);
  EXPECT_DOUBLE_EQ(model.move_duration_us(s[1]), 60.0);
  EXPECT_DOUBLE_EQ(model.schedule_duration_us(s), 90.0);
}

}  // namespace
}  // namespace qrm
