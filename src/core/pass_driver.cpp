#include "core/pass_driver.hpp"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace qrm {

namespace {

/// Map one quadrant-local assignment onto its global line. Local lines map
/// to global lines of the same axis (quadrant flips never transpose); the
/// half-line lands at the centre, mirrored for quadrants whose local axis
/// points away from the global one.
LineAssignment to_global_assignment(const QuadrantGeometry& geom, Quadrant q, Axis axis,
                                    const LineAssignment& local) {
  const bool rows = axis == Axis::Rows;
  const Coord origin = geom.to_global(q, rows ? Coord{local.line, 0} : Coord{0, local.line});
  const std::uint32_t half = local.sources.width();
  const bool mirrored = static_cast<std::uint32_t>(rows ? origin.col : origin.row) < half;
  LineAssignment global{rows ? origin.row : origin.col, BitRow(2 * half), BitRow(2 * half)};
  global.sources.paste(mirrored ? 0 : half, mirrored ? local.sources.reversed() : local.sources);
  global.targets.paste(mirrored ? 0 : half, mirrored ? local.targets.reversed() : local.targets);
  return global;
}

/// Validates the grid shape before QuadrantGeometry construction so the
/// caller sees a QRM-specific message rather than the geometry's.
QuadrantGeometry checked_geometry(const OccupancyGrid& grid) {
  QRM_EXPECTS_MSG(grid.height() > 0 && grid.width() > 0 && grid.height() % 2 == 0 &&
                      grid.width() % 2 == 0,
                  "QRM requires non-empty, even grid dimensions");
  return {grid.height(), grid.width()};
}

}  // namespace

PassDriver::PassDriver(const OccupancyGrid& initial, QrmConfig config,
                       PlanParallelism parallelism)
    : config_(std::move(config)),
      parallelism_(std::move(parallelism)),
      geometry_(checked_geometry(initial)),
      state_(initial) {
  const Region target = config_.target;
  QRM_EXPECTS_MSG(target.rows > 0 && target.cols > 0 && target.rows % 2 == 0 &&
                      target.cols % 2 == 0,
                  "QRM requires an even-sized target region");
  QRM_EXPECTS_MSG(
      target == centered_region(initial.height(), initial.width(), target.rows, target.cols),
      "QRM requires the target region centred in the grid");
  phase_ = config_.mode == PlanMode::Balanced ? Phase::BalanceRow : Phase::CompactRow;
}

std::optional<QuadrantPass> PassDriver::next() {
  QRM_EXPECTS_MSG(!awaiting_apply_, "call apply() before requesting the next pass");
  if (phase_ == Phase::Done) return std::nullopt;

  QuadrantPass pass;
  pass.axis = (phase_ == Phase::BalanceRow || phase_ == Phase::CompactRow) ? Axis::Rows
                                                                           : Axis::Cols;
  pass.balance = phase_ == Phase::BalanceRow;

  const Stopwatch watch;
  const std::int32_t quarter_rows = config_.target.rows / 2;
  const std::int32_t quarter_cols = config_.target.cols / 2;
  // Delta replanning: pass k can serve clean quadrants from the previous
  // drive's captured pass k if the pass kinds line up (they always do until
  // compact-mode termination diverges, at which point extra passes simply
  // compute fresh).
  QuadrantPass* cached = nullptr;
  if (reuse_source_ != nullptr && pass_index_ < reuse_source_->size()) {
    QuadrantPass& prev = (*reuse_source_)[pass_index_];
    if (prev.axis == pass.axis && prev.balance == pass.balance) cached = &prev;
  }
  // The four quadrant kernels are data-independent: each reads the shared
  // (const) state and writes only its own index in the pass arrays. They
  // therefore fan out on the intra-plan pool without changing any result
  // bit; the feasibility fold happens after the join, and AND is
  // order-free, so the outcome matches the sequential loop exactly.
  std::array<bool, 4> reused{};
  const auto compute_quadrant = [&](std::size_t qi) {
    const Quadrant q = kAllQuadrants[qi];
    if (cached != nullptr && !reuse_dirty_[qi]) {
      if (reuse_paranoid_) {
        const OccupancyGrid fresh = geometry_.extract_local(state_, q);
        QRM_ENSURES_MSG(fresh == cached->local_grids[qi],
                        "delta reuse: clean quadrant's grid diverged from the cached pass input");
      }
      // Steal the cached kernel data rather than copying it: a deep copy is
      // O(quadrant area), the same order as the extract+compute it replaces.
      // Safe because each cached pass index is consumed at most once per
      // drive and the source vector is discarded afterwards.
      pass.local_grids[qi] = std::move(cached->local_grids[qi]);
      pass.local_assignments[qi] = std::move(cached->local_assignments[qi]);
      pass.balance_reports[qi] = cached->balance_reports[qi];
      reused[qi] = true;
      return;
    }
    pass.local_grids[qi] = geometry_.extract_local(state_, q);
    if (pass.balance) {
      BalanceReport report;
      pass.local_assignments[qi] = balance_pass(pass.local_grids[qi], quarter_rows, quarter_cols,
                                                config_.sen_limit, &report);
      pass.balance_reports[qi] = report;
    } else {
      pass.local_assignments[qi] =
          compact_pass(pass.local_grids[qi], pass.axis, config_.sen_limit);
    }
  };
  if (ThreadPool* pool = intra_plan_pool(); pool != nullptr) {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(kAllQuadrants.size());
    for (std::size_t qi = 0; qi < kAllQuadrants.size(); ++qi)
      tasks.emplace_back([&compute_quadrant, qi] { compute_quadrant(qi); });
    pool->run_all(std::move(tasks));
  } else {
    for (std::size_t qi = 0; qi < kAllQuadrants.size(); ++qi) compute_quadrant(qi);
  }
  if (pass.balance) {
    for (const BalanceReport& report : pass.balance_reports)
      if (!report.feasible) stats_.feasible = false;
  }
  if (reuse_stats_ != nullptr) {
    for (const bool r : reused) (r ? reuse_stats_->kernels_reused : reuse_stats_->kernels_computed)++;
  }
  stats_.timers.pass_compute_us += watch.elapsed_microseconds();
  awaiting_apply_ = true;
  return pass;
}

void PassDriver::apply(QuadrantPass pass) {
  QRM_EXPECTS_MSG(awaiting_apply_, "apply() must follow a successful next()");
  awaiting_apply_ = false;

  PassInfo info;
  info.axis = pass.axis;
  RealizeOptions realize_options{config_.aod_legalize};
  if (!config_.dead_channels.empty()) realize_options.dead = &config_.dead_channels;

  // Lower each quadrant's local assignments to global coordinates first.
  // The four conversions are pure and data-independent, so they fan out on
  // the intra-plan pool; the merge below then consumes the slots in fixed
  // quadrant order, which is exactly the order the old inline loop produced.
  const Stopwatch merge_watch;
  std::array<std::vector<LineAssignment>, 4> globals;
  const auto lower_quadrant = [&](std::size_t qi) {
    const auto& locals = pass.local_assignments[qi];
    globals[qi].reserve(locals.size());
    for (const auto& la : locals)
      globals[qi].push_back(to_global_assignment(geometry_, kAllQuadrants[qi], pass.axis, la));
  };
  if (ThreadPool* pool = intra_plan_pool(); pool != nullptr) {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(kAllQuadrants.size());
    for (std::size_t qi = 0; qi < kAllQuadrants.size(); ++qi)
      tasks.emplace_back([&lower_quadrant, qi] { lower_quadrant(qi); });
    pool->run_all(std::move(tasks));
  } else {
    for (std::size_t qi = 0; qi < kAllQuadrants.size(); ++qi) lower_quadrant(qi);
  }

  if (config_.merge_quadrants) {
    // Paper Sec. IV-C: west-side (NW+SW) and east-side (NE+SE) shifts run as
    // shared commands; realizing both half-lines of every global line in one
    // call yields exactly those shared rounds. The two half-lines of a
    // global line cover disjoint halves, so their masks OR into the line's
    // slot; lines come out ascending.
    std::vector<LineAssignment> lines(static_cast<std::size_t>(
        pass.axis == Axis::Rows ? geometry_.height() : geometry_.width()));
    for (auto& quadrant : globals) {
      for (LineAssignment& ga : quadrant) {
        LineAssignment& slot = lines[static_cast<std::size_t>(ga.line)];
        if (slot.sources.empty()) {
          slot = std::move(ga);
        } else {
          slot.sources |= ga.sources;
          slot.targets |= ga.targets;
        }
      }
    }
    std::erase_if(lines, [](const LineAssignment& a) { return a.sources.empty(); });
    info.lines_with_motion = lines.size();
    stats_.timers.merge_us += merge_watch.elapsed_microseconds();
    if (!lines.empty()) {
      const Stopwatch realize_watch;
      const RealizeResult rr =
          realize_assignments(state_, pass.axis, lines, schedule_, realize_options);
      info.unit_rounds = rr.rounds_toward_origin + rr.rounds_away;
      info.atoms_moved = rr.atoms_moved;
      stats_.timers.realize_us += realize_watch.elapsed_microseconds();
    }
  } else {
    stats_.timers.merge_us += merge_watch.elapsed_microseconds();
    const Stopwatch realize_watch;
    // Realization mutates the shared grid and schedule: strictly serial, in
    // quadrant order, as the determinism contract requires.
    for (std::size_t qi = 0; qi < kAllQuadrants.size(); ++qi) {
      if (globals[qi].empty()) continue;
      info.lines_with_motion += globals[qi].size();
      const RealizeResult rr =
          realize_assignments(state_, pass.axis, globals[qi], schedule_, realize_options);
      info.unit_rounds += rr.rounds_toward_origin + rr.rounds_away;
      info.atoms_moved += rr.atoms_moved;
    }
    stats_.timers.realize_us += realize_watch.elapsed_microseconds();
  }
  stats_.passes.push_back(info);
  if (capture_sink_ != nullptr) capture_sink_->push_back(std::move(pass));
  ++pass_index_;

  // Advance the pass program.
  switch (phase_) {
    case Phase::BalanceRow:
      phase_ = Phase::BalanceCol;
      break;
    case Phase::BalanceCol:
      stats_.iterations = 1;
      phase_ = Phase::Done;
      break;
    case Phase::CompactRow:
      iteration_atoms_moved_ = info.atoms_moved;
      phase_ = Phase::CompactCol;
      break;
    case Phase::CompactCol:
      iteration_atoms_moved_ += info.atoms_moved;
      ++iteration_;
      stats_.iterations = iteration_;
      if (iteration_atoms_moved_ == 0 || state_.region_full(config_.target) ||
          iteration_ >= config_.max_iterations) {
        phase_ = Phase::Done;
      } else {
        phase_ = Phase::CompactRow;
      }
      break;
    case Phase::Done:
      break;
  }
}

ThreadPool* PassDriver::intra_plan_pool() const noexcept {
  return parallelism_.workers > 0 ? parallelism_.pool.get() : nullptr;
}

PlanResult PassDriver::take_result() {
  QRM_EXPECTS_MSG(phase_ == Phase::Done,
                  "take_result() needs a finished drive (next() returned nullopt)");
  PlanResult result;
  stats_.target_filled = state_.region_full(config_.target);
  stats_.defects_remaining =
      static_cast<std::int64_t>(config_.target.area()) - state_.atom_count(config_.target);
  result.schedule = std::move(schedule_);
  // Plans outlive the driver (plan cache, delta replanner), so drop the
  // vector's growth slack; shrinking moves each ParallelMove, it does not
  // copy its sites.
  result.schedule.moves().shrink_to_fit();
  result.final_grid = std::move(state_);
  result.stats = stats_;
  return result;
}

}  // namespace qrm
