// fig7-shot-stream: the paper's configuration as one client issuing one
// imaged shot at a time. The frame is rendered before the window (a real
// camera supplies it); a shot is detect_atoms, then the lossy loop with
// QrmPlanner::plan as its planner.

#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "detection/detector.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "window.hpp"

namespace pb {

using namespace qrm;

RunOutput run_fig7_shot_stream(const Options& options) {
  constexpr std::uint32_t kShots = 256;      // distinct shots, cycled through
  constexpr std::uint32_t kBatchSample = 8;  // every 8th is checked against BatchPlanner
  constexpr std::uint32_t kHwmodelGrids = 16;
  constexpr std::uint32_t kWarmUpShots = 8;  // shots differ widely; warm up on several

  Trace trace;
  Trace* traced = options.trace ? &trace : nullptr;
  const Fig7Inputs inputs = make_fig7_inputs(options.seed, kShots, traced);
  const batch::BatchConfig config = fig7_config(options.seed);

  std::optional<ShotRunner> runner;
  std::optional<QrmPlanner> planner;
  std::vector<double> plan_us;
  rt::PlanFn plan;
  rt::PlanFn traced_plan;
  const auto setup = [&] {
    runner.emplace(config);
    planner.emplace(config.plan);
    plan = timed_plan_fn(*planner, nullptr, &plan_us);
    traced_plan = timed_plan_fn(*planner, traced, &plan_us);
    for (std::uint32_t shot = 0; shot < kWarmUpShots; ++shot) {
      (void)runner->run(shot, inputs.truth[shot], &inputs.frames[shot], plan, nullptr);
    }
  };
  WindowResult window =
      run_window(kShots, options.seconds, traced, setup, [&](std::size_t shot, Trace* trace_op) {
        plan_us.clear();
        const auto start = Clock::now();
        ShotOutcome outcome;
        {
          const ScopedSpan span(trace_op, "shot");
          outcome = runner->run(static_cast<std::uint32_t>(shot), inputs.truth[shot],
                                &inputs.frames[shot], trace_op != nullptr ? traced_plan : plan,
                                trace_op);
        }
        const double latency_us = elapsed_us(start);
        return OpResult{latency_us, outcome.fingerprint(), plan_us, {}};
      });

  // Output checks, outside the window: replay every distinct shot with
  // every plan checked, compare with the timed outcomes, and compare a
  // sample with BatchPlanner::run_shot.
  const batch::BatchPlanner batch_planner(config);
  std::vector<ShotOutcome> checked;
  for (std::uint32_t shot = 0; shot < kShots; ++shot) {
    std::vector<std::string> errors;
    checked.push_back(runner->run(shot, inputs.truth[shot], &inputs.frames[shot],
                                  checking_plan_fn(*planner, &errors, traced), nullptr));
    const ShotOutcome& outcome = checked.back();
    if (window.fingerprints[shot] && *window.fingerprints[shot] != outcome.fingerprint()) {
      errors.push_back("timed outcome differs from the checked replay");
    }
    if (shot % kBatchSample == 0) {
      batch::ShotResult reference;
      {
        const ScopedSpan span(traced, "batch_shot");
        reference = batch_planner.run_shot(shot, nullptr);
      }
      if (!outcome.matches(reference)) errors.push_back("differs from BatchPlanner::run_shot");
    }
    if (traced != nullptr) {
      const DetectionErrors misread = compare_detection(inputs.truth[shot], outcome.planned_input);
      trace.add("detection.site_errors", static_cast<double>(misread.total()));
      trace.add("detection.frames", 1.0);
    }
    for (const std::string& error : errors) window.fail_input(shot, error);
  }

  double successes = 0.0;
  double fill = 0.0;
  for (const ShotOutcome& outcome : checked) {
    successes += outcome.success ? 1.0 : 0.0;
    fill += outcome.fill_rate;
  }

  RunOutput output;
  output.attempted = window.attempted();
  output.failed = window.failed();
  output.errors = window.errors;
  if (traced != nullptr) {
    std::vector<OccupancyGrid> first_round;
    for (std::uint32_t shot = 0; shot < kHwmodelGrids; ++shot) {
      first_round.push_back(checked[shot].planned_input);
    }
    probe_hwmodel(first_round, config.plan, trace);
    finish_traced_run(trace, window, options, output);
  } else {
    output.metrics = end_to_end_metrics(window.setup_s, window.latencies(), window.plan_parts(),
                                        window.best_rate(), fill / kShots, successes / kShots,
                                        window.peak_rss_mb);
  }
  return output;
}

}  // namespace pb
