#include "layers.hpp"

#include <bit>
#include <fstream>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/cpu_reference.hpp"
#include "core/pass_driver.hpp"
#include "detection/detector.hpp"
#include "exec/plan_cache.hpp"
#include "exec/policy.hpp"
#include "hwmodel/accelerator.hpp"
#include "moves/dead_channels.hpp"
#include "moves/executor.hpp"
#include "util/fnv.hpp"

namespace pb {

using namespace qrm;

std::uint64_t ShotOutcome::fingerprint() const noexcept {
  std::uint64_t hash = fnv::kOffset;
  exec::mix_grid(hash, planned_input);
  exec::mix_grid(hash, final_grid);
  fnv::mix_u64(hash, success ? 1 : 0);
  fnv::mix_u64(hash, rounds);
  fnv::mix_u64(hash, commands);
  fnv::mix_u64(hash, static_cast<std::uint64_t>(atoms_lost));
  fnv::mix_u64(hash, std::bit_cast<std::uint64_t>(fill_rate));
  return hash;
}

bool ShotOutcome::matches(const batch::ShotResult& shot) const noexcept {
  return planned_input == shot.planned_input && final_grid == shot.final_grid &&
         success == shot.success && rounds == shot.rounds && commands == shot.commands &&
         atoms_lost == shot.atoms_lost &&
         std::bit_cast<std::uint64_t>(fill_rate) == std::bit_cast<std::uint64_t>(shot.fill_rate);
}

ShotRunner::ShotRunner(batch::BatchConfig config)
    : config_(std::move(config)), loss_(batch::BatchPlanner(config_).effective_loss()) {
  if (config_.drift.shape != DriftShape::None) {
    throw std::invalid_argument("ShotRunner does not model calibration drift");
  }
}

FluorescenceImage ShotRunner::render(std::uint32_t shot, const OccupancyGrid& truth) const {
  ImagingConfig imaging = config_.imaging;
  imaging.seed = exec::imaging_seed(exec::shot_seed(config_.master_seed, shot));
  return render_image(truth, imaging);
}

rt::LoopConfig ShotRunner::loop_config(std::uint32_t shot) const {
  rt::LoopConfig config;
  config.plan = config_.plan;
  config.loss = loss_;
  config.max_rounds = config_.max_rounds;
  config.shot_index = shot;
  return config;
}

ShotOutcome ShotRunner::run(std::uint32_t shot, const OccupancyGrid& truth,
                            const FluorescenceImage* frame, const rt::PlanFn& plan,
                            Trace* trace) const {
  ShotOutcome out;
  if (frame != nullptr) {
    const ScopedSpan span(trace, "detect");
    out.planned_input = detect_atoms(*frame, truth.height(), truth.width(), config_.detection);
  } else {
    out.planned_input = truth;
  }

  rt::LoopReport loop;
  {
    const ScopedSpan span(trace, "loop");
    loop = rt::run_rearrangement_loop(out.planned_input, loop_config(shot), plan);
  }

  out.final_grid = std::move(loop.final_grid);
  out.success = loop.success;
  out.rounds = static_cast<std::uint32_t>(loop.rounds_used());
  out.atoms_lost = loop.total_atoms_lost;
  for (const rt::RoundReport& round : loop.rounds) out.commands += round.commands;
  const Region& target = config_.plan.target;
  const auto area = static_cast<std::int64_t>(target.area());
  const std::int64_t filled = out.final_grid.atom_count(target);
  out.fill_rate = area > 0 ? static_cast<double>(filled) / static_cast<double>(area) : 0.0;
  if (trace != nullptr) trace->add("runtime.rounds", out.rounds);
  return out;
}

PlanResult plan_once(const QrmPlanner& planner, const OccupancyGrid& input, Trace* trace) {
  if (trace == nullptr) return planner.plan(input);

  // QrmPlanner::plan's own sequence (mask dead lines, drive every pass,
  // take the result), with each PassDriver phase under its own span.
  const ScopedSpan plan_span(trace, "plan");
  const QrmConfig& config = planner.config();
  OccupancyGrid masked;
  const OccupancyGrid* start = &input;
  if (!config.dead_channels.empty()) {
    masked = mask_dead_lines(input, config.dead_channels);
    start = &masked;
  }
  PassDriver driver(*start, config);
  for (;;) {
    std::optional<QuadrantPass> pass;
    {
      const ScopedSpan span(trace, "kernel");
      pass = driver.next();
    }
    if (!pass) break;
    const ScopedSpan span(trace, "lower");
    driver.apply(std::move(*pass));
  }
  PlanResult result;
  {
    const ScopedSpan span(trace, "take_result");
    result = driver.take_result();
  }

  double unit_rounds = 0.0;
  double atoms_moved = 0.0;
  for (const PassInfo& pass : result.stats.passes) {
    unit_rounds += static_cast<double>(pass.unit_rounds);
    atoms_moved += static_cast<double>(pass.atoms_moved);
  }
  trace->add("core.passes", static_cast<double>(result.stats.passes.size()));
  trace->add("core.unit_rounds", unit_rounds);
  trace->add("core.atoms_moved", atoms_moved);
  trace->add("moves.parallel_moves", static_cast<double>(result.schedule.size()));
  return result;
}

rt::PlanFn timed_plan_fn(const QrmPlanner& planner, Trace* trace, std::vector<double>* plan_us) {
  return [&planner, trace, plan_us](const OccupancyGrid& state) {
    const auto start = Clock::now();
    PlanResult plan = plan_once(planner, state, trace);
    plan_us->push_back(elapsed_us(start));
    return plan;
  };
}

std::optional<std::string> check_plan(const OccupancyGrid& input, const PlanResult& plan,
                                      const QrmConfig& config, Trace* trace) {
  // Planners plan on the masked view when channels are dead, so the
  // schedule replays onto that view.
  OccupancyGrid replay =
      config.dead_channels.empty() ? input : mask_dead_lines(input, config.dead_channels);
  ExecutionOptions options;
  options.check_aod = true;
  const ExecutionReport report = run_schedule(replay, plan.schedule, options);
  if (!report.ok) return "schedule does not replay: " + report.error;
  if (replay != plan.final_grid) return std::string("replayed grid differs from plan.final_grid");
  if (config.dead_channels.empty()) {
    CpuReferenceResult reference;
    {
      const ScopedSpan span(trace, "cpu_reference");
      reference = run_cpu_reference(input, config);
    }
    if (reference.final_grid != plan.final_grid) {
      return std::string("final grid differs from run_cpu_reference");
    }
  }
  return std::nullopt;
}

rt::PlanFn checking_plan_fn(const QrmPlanner& planner, std::vector<std::string>* errors,
                            Trace* trace) {
  return [&planner, errors, trace](const OccupancyGrid& state) {
    PlanResult plan = planner.plan(state);
    if (auto error = check_plan(state, plan, planner.config(), trace)) {
      errors->push_back(std::move(*error));
    }
    return plan;
  };
}

void probe_hwmodel(const std::vector<OccupancyGrid>& grids, const QrmConfig& plan, Trace& trace) {
  hw::AcceleratorConfig config;
  config.plan = plan;
  const hw::QrmAccelerator accelerator(config);
  for (const OccupancyGrid& grid : grids) {
    hw::AccelResult result;
    {
      const ScopedSpan span(&trace, "hwmodel");
      result = accelerator.run(grid);
    }
    trace.add("hwmodel.sim_us", result.latency_us);
    trace.add("hwmodel.cycles", static_cast<double>(result.cycles.total()));
    trace.add("hwmodel.grids", 1.0);
  }
}

void finish_traced_run(Trace& trace, const WindowResult& window, const Options& options,
                       RunOutput& output) {
  const double overhead = window.tracing_overhead();
  trace.add("trace.overhead", overhead);
  output.metrics = layer_metrics(trace);
  output.notes.push_back("tracing overhead (traced/untraced best latency - 1): " +
                         std::to_string(overhead));
  output.notes.push_back("spans recorded: " + std::to_string(trace.spans().size()));
  if (!options.trace_out.empty()) {
    std::ofstream out(options.trace_out);
    constexpr std::size_t kMaxWrittenSpans = 50000;  // about 6 MB of JSON
    trace.write_chrome_json(out, kMaxWrittenSpans);
    if (!out) throw std::runtime_error("cannot write " + options.trace_out);
  }
}

std::vector<Metric> layer_metrics(const Trace& trace) {
  const std::map<std::string, Trace::Total> totals = trace.totals();
  const auto total = [&totals](const char* key) {
    const auto it = totals.find(key);
    return it != totals.end() ? it->second : Trace::Total{};
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const auto counter = [&trace](const char* name) { return trace.counter(name); };

  const Trace::Total plan = total("plan");
  const Trace::Total shot = total("shot");
  const Trace::Total detect = total("detect");
  const Trace::Total loop = total("loop");
  const Trace::Total cpu_reference = total("cpu_reference");
  const auto plans = static_cast<double>(plan.count);
  const auto shots = static_cast<double>(shot.count);
  const double reused = counter("core.delta.kernels_reused");
  const double computed = counter("core.delta.kernels_computed");
  const double cache_hits = counter("exec.cache_hits");
  const double cache_misses = counter("exec.cache_misses");

  return {
      {"detection.detect_share", ratio(detect.total_us, shot.total_us), "ratio"},
      {"detection.render_ratio",
       ratio(total("render").mean_us(), ratio(detect.total_us + loop.total_us, shots)), "ratio"},
      {"detection.site_errors",
       ratio(counter("detection.site_errors"), counter("detection.frames")), "count"},
      {"core.kernel_us", ratio(total("kernel").total_us, plans), "us"},
      {"core.lower_us", ratio(total("lower").total_us, plans), "us"},
      {"core.take_result_us", ratio(total("take_result").total_us, plans), "us"},
      {"core.plan_other_us", ratio(total("plan/other").total_us, plans), "us"},
      {"core.cpu_reference_us", cpu_reference.mean_us(), "us"},
      {"core.plan_over_cpu_ref", ratio(plan.mean_us(), cpu_reference.mean_us()), "ratio"},
      {"core.passes", ratio(counter("core.passes"), plans), "count"},
      {"core.unit_rounds", ratio(counter("core.unit_rounds"), plans), "count"},
      {"core.atoms_moved", ratio(counter("core.atoms_moved"), plans), "count"},
      {"core.delta.kernels_reused", reused, "count"},
      {"core.delta.kernels_computed", computed, "count"},
      {"core.delta.reuse_ratio", ratio(reused, reused + computed), "ratio"},
      {"core.delta.scratch_plans", counter("core.delta.scratch_plans"), "count"},
      {"moves.parallel_moves", ratio(counter("moves.parallel_moves"), plans), "count"},
      {"moves.moves_per_unit_round",
       ratio(counter("moves.parallel_moves"), counter("core.unit_rounds")), "ratio"},
      {"runtime.rounds", ratio(counter("runtime.rounds"), shots), "count"},
      {"runtime.plan_share", ratio(plan.total_us, loop.total_us), "ratio"},
      {"exec.cache_hit_rate", ratio(cache_hits, cache_hits + cache_misses), "ratio"},
      {"exec.cache_hits", cache_hits, "count"},
      {"exec.cache_misses", cache_misses, "count"},
      {"batch.parallel_efficiency", counter("batch.parallel_efficiency"), "ratio"},
      {"hwmodel.sim_us", ratio(counter("hwmodel.sim_us"), counter("hwmodel.grids")), "sim_us"},
      {"hwmodel.cycles", ratio(counter("hwmodel.cycles"), counter("hwmodel.grids")), "count"},
      {"trace.overhead", counter("trace.overhead"), "ratio"},
  };
}

}  // namespace pb
