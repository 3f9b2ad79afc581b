#pragma once
/// \file layers.hpp
/// How the benchmark drives each layer of the QRM stack through its public
/// entry points: one shot (detect + lossy loop), one plan (plain or with
/// PassDriver phases under spans), the output checks, the accelerator
/// model, and the per-layer metrics a traced run derives from its spans.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "batch/batch_planner.hpp"
#include "bench.hpp"
#include "core/planner.hpp"
#include "detection/image.hpp"
#include "lattice/grid.hpp"
#include "runtime/rearrangement_loop.hpp"
#include "trace.hpp"
#include "window.hpp"

namespace pb {

/// Outcome of one shot, with exactly the deterministic fields of
/// qrm::batch::ShotResult the benchmark compares.
struct ShotOutcome {
  qrm::OccupancyGrid planned_input;
  qrm::OccupancyGrid final_grid;
  bool success = false;
  std::uint32_t rounds = 0;
  std::size_t commands = 0;
  std::int64_t atoms_lost = 0;
  double fill_rate = 0.0;

  [[nodiscard]] std::uint64_t fingerprint() const noexcept;
  [[nodiscard]] bool matches(const qrm::batch::ShotResult& shot) const noexcept;
};

/// Runs shots exactly as qrm::batch::BatchPlanner::run_shot does (same seed
/// streams, same loss model), but with the planner supplied by the caller
/// and the frame rendered by the caller, so the benchmark decides what is
/// timed and what is traced. Calibration drift is not supported.
class ShotRunner {
 public:
  explicit ShotRunner(qrm::batch::BatchConfig config);

  /// The camera frame BatchPlanner renders for shot `shot` of `truth`.
  [[nodiscard]] qrm::FluorescenceImage render(std::uint32_t shot,
                                              const qrm::OccupancyGrid& truth) const;

  /// The loop configuration of shot `shot`, as BatchPlanner builds it.
  [[nodiscard]] qrm::rt::LoopConfig loop_config(std::uint32_t shot) const;

  /// Detect atoms in `frame` (or take `truth` as detected when frame is
  /// null), then run the lossy loop with `plan`. Spans: detect, loop.
  [[nodiscard]] ShotOutcome run(std::uint32_t shot, const qrm::OccupancyGrid& truth,
                                const qrm::FluorescenceImage* frame, const qrm::rt::PlanFn& plan,
                                Trace* trace) const;

 private:
  qrm::batch::BatchConfig config_;
  qrm::rt::LossModel loss_;  ///< BatchPlanner::effective_loss()
};

/// One plan. Without a trace: QrmPlanner::plan. With one: the same pass
/// program driven through PassDriver from outside, under the spans plan >
/// kernel (next), lower (apply), take_result, plus the plan counters.
[[nodiscard]] qrm::PlanResult plan_once(const qrm::QrmPlanner& planner,
                                        const qrm::OccupancyGrid& input, Trace* trace);

/// A loop planner that calls plan_once and appends each call's host time
/// to `plan_us`.
[[nodiscard]] qrm::rt::PlanFn timed_plan_fn(const qrm::QrmPlanner& planner, Trace* trace,
                                            std::vector<double>* plan_us);

/// The output check of one plan: its schedule must replay through
/// run_schedule (AOD rule on) onto plan.final_grid, and without dead
/// channels its final grid must equal run_cpu_reference's. Returns the
/// first violation. The reference call is timed under a cpu_reference span.
[[nodiscard]] std::optional<std::string> check_plan(const qrm::OccupancyGrid& input,
                                                    const qrm::PlanResult& plan,
                                                    const qrm::QrmConfig& config, Trace* trace);

/// A loop planner that plans with QrmPlanner and checks every plan,
/// appending violations to `errors`.
[[nodiscard]] qrm::rt::PlanFn checking_plan_fn(const qrm::QrmPlanner& planner,
                                               std::vector<std::string>* errors, Trace* trace);

/// Run the accelerator cycle model on each grid under hwmodel spans and
/// record its simulated latency and cycles as counters.
void probe_hwmodel(const std::vector<qrm::OccupancyGrid>& grids, const qrm::QrmConfig& plan,
                   Trace& trace);

/// Finish a traced run: record the tracing overhead (traced over untraced
/// best latency, minus one), derive the per-layer metrics into
/// `output`, and write the Chrome trace when options.trace_out is set.
void finish_traced_run(Trace& trace, const WindowResult& window, const Options& options,
                       RunOutput& output);

/// Every per-layer metric, derived from a traced run's spans and counters.
/// A layer the workload does not exercise reports 0.
[[nodiscard]] std::vector<Metric> layer_metrics(const Trace& trace);

}  // namespace pb
