// Tests for the baseline algorithms: each must produce an executable,
// AOD-legal schedule that fills the target; their structural signatures
// (command counts, parallelism) must match their published character.

#include <gtest/gtest.h>

#include <tuple>

#include "util/assert.hpp"
#include "baselines/algorithm.hpp"
#include "baselines/common.hpp"
#include "loading/loader.hpp"
#include "testutil.hpp"

namespace qrm::baselines {
namespace {

using testutil::expect_plan_valid;

TEST(Baselines, RegistryKnowsAllNames) {
  for (const auto& name : algorithm_names()) {
    const auto algo = make_algorithm(name);
    EXPECT_EQ(algo->name(), name);
    EXPECT_FALSE(algo->description().empty());
  }
  EXPECT_THROW((void)make_algorithm("nonsense"), PreconditionError);
}

TEST(Baselines, BandTargetsFillsTheBand) {
  // 4 atoms, band [2,5) in a line of 8.
  const std::vector<std::int32_t> atoms{0, 1, 6, 7};
  const auto targets = band_targets(atoms, 2, 3, 8);
  ASSERT_EQ(targets.size(), 4u);
  // Strictly ascending, covering 2..4.
  for (std::size_t i = 1; i < targets.size(); ++i) EXPECT_GT(targets[i], targets[i - 1]);
  for (std::int32_t p = 2; p < 5; ++p)
    EXPECT_NE(std::find(targets.begin(), targets.end(), p), targets.end());
}

TEST(Baselines, BandTargetsPartialWhenShort) {
  const std::vector<std::int32_t> atoms{5};
  const auto targets = band_targets(atoms, 2, 3, 8);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0], 2);
}

TEST(Baselines, BandTargetsClampsWhenEdgeBound) {
  // 6 atoms, band [0,2): nothing fits above the band.
  const std::vector<std::int32_t> atoms{0, 1, 2, 3, 4, 5};
  const auto targets = band_targets(atoms, 0, 2, 8);
  EXPECT_EQ(targets[0], 0);
  EXPECT_EQ(targets[1], 1);
  for (std::size_t i = 1; i < targets.size(); ++i) EXPECT_GT(targets[i], targets[i - 1]);
  EXPECT_LE(targets.back(), 7);
}

TEST(Baselines, GlobalPlacementMeetsDemand) {
  const OccupancyGrid g = load_random(20, 20, {0.5, 17});
  const Region target = centered_square(20, 12);
  const GlobalPlacement placement = compute_balanced_placement(g, target);
  EXPECT_TRUE(placement.feasible);
  // Count per-column promises (final placements inside target columns).
  std::vector<int> per_column(20, 0);
  OccupancyGrid after = g;
  // Apply placements abstractly: count target positions per column.
  for (const auto& a : placement.row_assignments)
    a.targets.for_each_set([&](std::uint32_t t) { per_column[t]++; });
  // Rows without assignment keep their atoms; count those too.
  std::vector<bool> assigned(20, false);
  for (const auto& a : placement.row_assignments)
    assigned[static_cast<std::size_t>(a.line)] = true;
  for (std::int32_t r = 0; r < 20; ++r) {
    if (assigned[static_cast<std::size_t>(r)]) continue;
    for (std::int32_t c = 0; c < 20; ++c)
      if (g.occupied({r, c})) per_column[static_cast<std::size_t>(c)]++;
  }
  for (std::int32_t c = target.col0; c < target.col_end(); ++c)
    EXPECT_GE(per_column[static_cast<std::size_t>(c)], target.rows) << "column " << c;
}

// Every algorithm fills the paper's Fig. 7(b) workload (20x20 at 50%).
class AllAlgorithms : public ::testing::TestWithParam<std::string> {};

TEST_P(AllAlgorithms, FillsFig7bWorkloadWithValidSchedule) {
  const auto algo = make_algorithm(GetParam());
  int filled = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const OccupancyGrid initial = load_random(20, 20, {0.55, seed});
    const Region target = centered_square(20, 12);
    const PlanResult result = algo->plan(initial, target);
    expect_plan_valid(initial, result);
    if (result.stats.target_filled) ++filled;
  }
  if (GetParam() == "qrm-compact" || GetParam() == "typical") {
    // Compaction-only planners fill only when the Young-diagram condition
    // holds; legality was still verified above.
    SUCCEED();
  } else {
    EXPECT_EQ(filled, 5) << GetParam() << " must fill every feasible workload";
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, AllAlgorithms,
                         ::testing::Values("qrm", "qrm-compact", "typical", "tetris", "psca",
                                           "mta1"));

TEST(Baselines, Mta1IsStrictlySequential) {
  const OccupancyGrid initial = load_random(16, 16, {0.5, 23});
  const Region target = centered_square(16, 10);
  const PlanResult result = make_algorithm("mta1")->plan(initial, target);
  for (const auto& move : result.schedule.moves()) {
    EXPECT_EQ(move.sites.size(), 1u) << "MTA1 must move one atom per command";
    EXPECT_EQ(move.steps, 1) << "MTA1 issues elementary steps";
  }
  expect_plan_valid(initial, result);
}

TEST(Baselines, ParallelAlgorithmsBeatMta1OnCommandCount) {
  const OccupancyGrid initial = load_random(20, 20, {0.55, 29});
  const Region target = centered_square(20, 12);
  const auto mta1 = make_algorithm("mta1")->plan(initial, target);
  const auto tetris = make_algorithm("tetris")->plan(initial, target);
  const auto qrm_result = make_algorithm("qrm")->plan(initial, target);
  EXPECT_LT(tetris.schedule.size(), mta1.schedule.size());
  EXPECT_LT(qrm_result.schedule.size(), mta1.schedule.size());
  // Multi-tweezer algorithms must actually exploit parallelism.
  EXPECT_GT(tetris.schedule.stats().max_parallelism, 4u);
  EXPECT_GT(qrm_result.schedule.stats().max_parallelism, 4u);
  EXPECT_EQ(mta1.schedule.stats().max_parallelism, 1u);
}

TEST(Baselines, TetrisAndPscaReachSameOccupancyFamily) {
  // Both realize the same placement semantics, so both must fill and
  // conserve atoms; their command streams differ (per-round recomputation
  // vs one-shot realization).
  const OccupancyGrid initial = load_random(18, 18, {0.6, 41});
  const Region target = centered_square(18, 10);
  const auto tetris = make_algorithm("tetris")->plan(initial, target);
  const auto psca = make_algorithm("psca")->plan(initial, target);
  EXPECT_TRUE(tetris.stats.target_filled);
  EXPECT_TRUE(psca.stats.target_filled);
  expect_plan_valid(initial, tetris);
  expect_plan_valid(initial, psca);
}

TEST(Baselines, InfeasibleWorkloadReportedNotCrashed) {
  const OccupancyGrid initial = load_random(20, 20, {0.1, 3});
  const Region target = centered_square(20, 12);
  for (const auto& name : {"tetris", "psca", "mta1"}) {
    const PlanResult result = make_algorithm(name)->plan(initial, target);
    EXPECT_FALSE(result.stats.target_filled) << name;
    EXPECT_FALSE(result.stats.feasible) << name;
    expect_plan_valid(initial, result);
  }
}

TEST(Baselines, RectangularTargetsWork) {
  const OccupancyGrid initial = load_random(20, 24, {0.6, 8});
  const Region target = centered_region(20, 24, 10, 14);
  for (const auto& name : {"tetris", "psca", "mta1"}) {
    const PlanResult result = make_algorithm(name)->plan(initial, target);
    EXPECT_TRUE(result.stats.target_filled) << name;
    expect_plan_valid(initial, result);
  }
}

}  // namespace
}  // namespace qrm::baselines
