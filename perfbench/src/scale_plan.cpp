// scale-256-plan: one client issuing QrmPlanner::plan calls on 256x256
// Bernoulli(0.6) grids into the centred 152x152 target. No loop, no
// detection: realize/legalize dominates here, and detection, runtime, batch,
// cache and delta do no work.

#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "exec/plan_cache.hpp"
#include "inputs.hpp"
#include "lattice/region.hpp"
#include "layers.hpp"
#include "util/fnv.hpp"
#include "window.hpp"

namespace pb {

using namespace qrm;

namespace {

/// FNV-1a over a plan's final grid, schedule and statistics.
std::uint64_t plan_fingerprint(const PlanResult& plan) noexcept {
  std::uint64_t hash = fnv::kOffset;
  exec::mix_grid(hash, plan.final_grid);
  fnv::mix_u64(hash, plan.schedule.size());
  for (const ParallelMove& move : plan.schedule.moves()) {
    fnv::mix_u64(hash, static_cast<std::uint64_t>(move.dir));
    fnv::mix_u64(hash, static_cast<std::uint64_t>(move.steps));
    for (const Coord& site : move.sites) {
      fnv::mix_u64(hash, static_cast<std::uint64_t>(site.row));
      fnv::mix_u64(hash, static_cast<std::uint64_t>(site.col));
    }
  }
  fnv::mix_u64(hash, plan.stats.target_filled ? 1 : 0);
  fnv::mix_u64(hash, static_cast<std::uint64_t>(plan.stats.defects_remaining));
  for (const PassInfo& pass : plan.stats.passes) {
    fnv::mix_u64(hash, pass.unit_rounds);
    fnv::mix_u64(hash, pass.atoms_moved);
  }
  return hash;
}

}  // namespace

RunOutput run_scale_256_plan(const Options& options) {
  constexpr std::uint32_t kGrids = 8;  // distinct grids, cycled through
  constexpr std::size_t kHwmodelGrids = 2;

  Trace trace;
  Trace* traced = options.trace ? &trace : nullptr;
  const std::vector<OccupancyGrid> grids = make_scale_inputs(options.seed, kGrids);
  QrmConfig config;
  config.target = centered_region(256, 256, 152, 152);
  config.mode = PlanMode::Balanced;

  std::optional<QrmPlanner> planner;
  const auto setup = [&] {
    planner.emplace(config);
    (void)planner->plan(grids[0]);
  };

  WindowResult window =
      run_window(kGrids, options.seconds, traced, setup, [&](std::size_t index, Trace* trace_op) {
        const auto start = Clock::now();
        const PlanResult plan = plan_once(*planner, grids[index], trace_op);
        const double latency_us = elapsed_us(start);
        return OpResult{latency_us, plan_fingerprint(plan), {latency_us}, {}};
      });

  // Output checks, outside the window: plan every grid again, check that
  // plan, and compare it with the timed outcome.
  double fill = 0.0;
  double filled = 0.0;
  for (std::uint32_t index = 0; index < kGrids; ++index) {
    PlanResult plan;
    try {
      plan = planner->plan(grids[index]);
    } catch (const std::exception& error) {
      window.fail_input(index, std::string("checked plan threw: ") + error.what());
      continue;
    }
    if (window.fingerprints[index] && *window.fingerprints[index] != plan_fingerprint(plan)) {
      window.fail_input(index, "timed outcome differs from the checked plan");
    }
    if (auto error = check_plan(grids[index], plan, config, traced)) {
      window.fail_input(index, *error);
    }
    fill += static_cast<double>(plan.final_grid.atom_count(config.target)) /
            static_cast<double>(config.target.area());
    filled += plan.stats.target_filled ? 1.0 : 0.0;
  }

  RunOutput output;
  output.attempted = window.attempted();
  output.failed = window.failed();
  output.errors = window.errors;
  if (traced != nullptr) {
    probe_hwmodel({grids.begin(), grids.begin() + kHwmodelGrids}, config, trace);
    finish_traced_run(trace, window, options, output);
  } else {
    output.metrics = end_to_end_metrics(window.setup_s, window.latencies(), window.plan_parts(),
                                        window.best_rate(), fill / kGrids, filled / kGrids,
                                        window.peak_rss_mb);
  }
  return output;
}

}  // namespace pb
