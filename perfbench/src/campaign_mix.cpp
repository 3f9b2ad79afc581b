// campaign-mix: CampaignRunner::run over the benchmark's own campaign file,
// 2 workers, plan cache on (the campaign default). One operation is one
// whole campaign; the client issues the next when the last returns. This is
// the only workload where batch, exec::PlanCache, DeltaReplanner and
// render_image do most of the work.

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "detection/detector.hpp"
#include "exec/plan_cache.hpp"
#include "exec/policy.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "scenario/campaign.hpp"
#include "util/rng.hpp"
#include "window.hpp"

namespace pb {

using namespace qrm;

namespace {

constexpr std::uint32_t kWorkers = 2;

/// The traced run's serial replay of one shot: the same shot under layer
/// spans (shot > render, detect, loop > plan > ...), timed through
/// BatchPlanner::run_shot, and, for delta scenarios, through the loop's own
/// DeltaReplanner for its reuse counters. Returns the first disagreement
/// with the checked outcome.
std::optional<std::string> replay_traced(const scenario::ScenarioSpec& spec, std::uint32_t shot,
                                         const OccupancyGrid& truth, const ShotRunner& runner,
                                         const QrmPlanner& planner,
                                         const batch::BatchPlanner& batch_planner,
                                         const ShotOutcome& checked, Trace& trace,
                                         double& serial_us) {
  ShotOutcome replay;
  {
    const ScopedSpan span(&trace, "shot");
    std::optional<FluorescenceImage> frame;
    if (spec.imaged_detection) {
      const ScopedSpan render(&trace, "render");
      frame = runner.render(shot, truth);
    }
    std::vector<double> plan_us;
    replay = runner.run(shot, truth, frame ? &*frame : nullptr,
                        timed_plan_fn(planner, &trace, &plan_us), &trace);
  }
  if (replay.fingerprint() != checked.fingerprint()) return "traced replay differs";

  batch::ShotResult reference;
  {
    const auto start = Clock::now();
    const ScopedSpan span(&trace, "batch_shot");
    reference = batch_planner.run_shot(
        shot, spec.load == scenario::LoadProfile::Uniform ? nullptr : &truth);
    serial_us += elapsed_us(start);
  }
  if (!checked.matches(reference)) return "differs from BatchPlanner::run_shot";

  if (spec.replan == ReplanMode::Delta) {
    rt::LoopConfig loop_config = runner.loop_config(shot);
    loop_config.exec.replan = ReplanMode::Delta;
    const rt::LoopReport loop = rt::run_rearrangement_loop(checked.planned_input, loop_config);
    trace.add("core.delta.kernels_reused", static_cast<double>(loop.replan.kernels_reused));
    trace.add("core.delta.kernels_computed", static_cast<double>(loop.replan.kernels_computed));
    trace.add("core.delta.scratch_plans", static_cast<double>(loop.replan.scratch_plans));
    if (loop.final_grid != checked.final_grid) return "delta replay differs";
  }
  return std::nullopt;
}

/// Outcome totals over every checked shot.
struct Tally {
  double shots = 0.0;
  double successes = 0.0;
  double fill = 0.0;
};

/// Output checks of one campaign variant: replay every shot serially with
/// every plan checked and compare it with the campaign's own outcome for
/// that shot. With a trace, also replay each shot under layer spans
/// (replay_traced), probe the accelerator model on the imaged scenarios'
/// first-round grids, and add the serial BatchPlanner time to `serial_us`.
void check_variant(const std::vector<scenario::ScenarioSpec>& specs,
                   const scenario::CampaignReport& report, std::size_t variant,
                   WindowResult& window, Trace* trace, Tally& tally, double& serial_us) {
  const auto cache = std::make_shared<exec::PlanCache>();
  for (std::size_t index = 0; index < specs.size(); ++index) {
    const scenario::ScenarioSpec& spec = specs[index];
    const batch::BatchConfig config = scenario::to_batch_config(spec);
    const ShotRunner shot_runner(config);
    const QrmPlanner planner(config.plan);
    exec::ExecPolicy serial_policy;
    serial_policy.plan_cache = cache;
    serial_policy.replan = spec.replan;
    const batch::BatchPlanner batch_planner(scenario::to_batch_config(spec, serial_policy));
    std::vector<OccupancyGrid> first_round;
    for (std::uint32_t shot = 0; shot < spec.shots; ++shot) {
      const OccupancyGrid truth =
          scenario::generate_workload(spec, exec::shot_seed(spec.seed, shot));
      std::optional<FluorescenceImage> frame;
      if (spec.imaged_detection) frame = shot_runner.render(shot, truth);
      std::vector<std::string> errors;
      const ShotOutcome checked =
          shot_runner.run(shot, truth, frame ? &*frame : nullptr,
                          checking_plan_fn(planner, &errors, trace), nullptr);
      const batch::ShotResult& ran = report.scenarios[index].batch.shots[shot];
      if (!checked.matches(ran)) errors.push_back("differs from the campaign's outcome");
      tally.shots += 1.0;
      tally.successes += ran.success ? 1.0 : 0.0;
      tally.fill += ran.fill_rate;
      if (trace != nullptr) {
        if (auto error = replay_traced(spec, shot, truth, shot_runner, planner, batch_planner,
                                       checked, *trace, serial_us)) {
          errors.push_back(std::move(*error));
        }
        if (spec.imaged_detection) {
          trace->add("detection.site_errors",
                     static_cast<double>(compare_detection(truth, checked.planned_input).total()));
          trace->add("detection.frames", 1.0);
          first_round.push_back(checked.planned_input);
        }
      }
      for (const std::string& error : errors) {
        window.fail_input(variant, spec.name + " shot " + std::to_string(shot) + ": " + error);
      }
    }
    if (trace != nullptr) probe_hwmodel(first_round, config.plan, *trace);
  }
}

}  // namespace

RunOutput run_campaign_mix(const Options& options) {
  // Distinct campaigns (the same file under different seeds), cycled
  // through: one campaign is only ~50 shots, too few for its per-seed
  // shot mix to give steady percentiles on its own.
  constexpr std::size_t kVariants = 6;

  Trace trace;
  Trace* traced = options.trace ? &trace : nullptr;
  const std::string text = read_file(options.campaign_file);
  std::vector<std::vector<scenario::ScenarioSpec>> variants;
  for (std::size_t v = 0; v < kVariants; ++v) {
    variants.push_back(make_campaign_specs(text, derive_seed(options.seed, v)));
  }
  scenario::CampaignConfig campaign;
  campaign.exec.workers = kWorkers;

  std::optional<scenario::CampaignRunner> runner;
  const auto setup = [&] {
    runner.emplace(campaign);
    (void)runner->run(variants[0]);
  };

  std::vector<std::optional<scenario::CampaignReport>> reports(kVariants);
  WindowResult window = run_window(
      kVariants, options.seconds, traced, setup, [&](std::size_t variant, Trace* trace_op) {
        const auto start = Clock::now();
        scenario::CampaignReport report;
        {
          const ScopedSpan span(trace_op, "campaign");
          report = runner->run(variants[variant]);
        }
        OpResult done{elapsed_us(start), report.fingerprint(), {}, {}};
        // The batch layer's own stage timers, per shot: its service time
        // on a worker and its planner time. A shot that made no planner
        // call (a plan-cache hit, or an exit before the first plan) reads
        // plan_us 0 and is left out of the planner times.
        for (const scenario::ScenarioOutcome& outcome : report.scenarios) {
          for (const batch::ShotResult& shot : outcome.batch.shots) {
            done.shot_us.push_back(shot.detect_us + shot.plan_us + shot.execute_us);
            if (shot.plan_us > 0.0) done.plan_us.push_back(shot.plan_us);
          }
        }
        if (!reports[variant]) reports[variant] = std::move(report);
        return done;
      });

  // Per-layer numbers come from the first variant only; every variant is
  // checked.
  Tally tally;
  double serial_us = 0.0;
  for (std::size_t v = 0; v < kVariants; ++v) {
    if (!reports[v]) throw std::runtime_error("no campaign completed: " + window.errors.front());
    check_variant(variants[v], *reports[v], v, window, v == 0 ? traced : nullptr, tally,
                  serial_us);
  }

  RunOutput output;
  output.attempted = window.attempted();
  output.failed = window.failed();
  output.errors = window.errors;
  if (traced != nullptr) {
    trace.add("exec.cache_hits", static_cast<double>(reports[0]->plan_cache.hits));
    trace.add("exec.cache_misses", static_cast<double>(reports[0]->plan_cache.misses));
    trace.add("batch.parallel_efficiency", serial_us / (kWorkers * window.best[0].latency_us));
    finish_traced_run(trace, window, options, output);
  } else {
    output.metrics = end_to_end_metrics(window.setup_s, window.shot_parts(), window.plan_parts(),
                                        window.best_rate() * tally.shots / kVariants,
                                        tally.fill / tally.shots, tally.successes / tally.shots,
                                        window.peak_rss_mb);
  }
  return output;
}

}  // namespace pb
