#pragma once
/// \file window.hpp
/// The closed-loop measuring window every workload runs: one client issues
/// one operation at a time, cycling over the workload's distinct inputs,
/// until the run's time is up. Each operation times itself and returns the
/// fingerprint of its outcome; repeats of one input must reproduce it.
///
/// Why best-of-repeats: on a shared host, interference comes in bursts of
/// about a second that slow every operation in them by up to half, so a
/// run's plain median moves by 15-20% from run to run. Every input repeats
/// many times in a run, and its fastest repeat is steady to a few percent.
/// The window therefore keeps, per input, its fastest repeat: the latency
/// of the whole operation and the parts that one repeat timed (planner
/// calls, shots). The workloads report percentiles across inputs of those.

#include <algorithm>
#include <cstdint>
#include <exception>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "trace.hpp"

namespace pb {

/// What one operation reports: its host latency, outcome fingerprint, and
/// the host time of each part it timed, in a deterministic order.
struct OpResult {
  double latency_us = 0.0;
  std::uint64_t fingerprint = 0;
  std::vector<double> plan_us;  ///< each planner call, in call order
  std::vector<double> shot_us;  ///< each shot inside the operation (campaign-mix)
};

struct WindowResult {
  /// Fastest untraced repeat per input, with the parts it timed, and the
  /// fastest traced repeat's latency.
  struct Best {
    double latency_us = std::numeric_limits<double>::infinity();
    double traced_latency_us = std::numeric_limits<double>::infinity();
    std::vector<double> plan_us;
    std::vector<double> shot_us;
  };
  std::vector<Best> best;
  std::vector<double> setup_s;             ///< every timed set-up, in seconds
  std::vector<std::uint64_t> ops;          ///< operations per input
  std::vector<std::uint64_t> op_failures;  ///< operations per input that threw or diverged
  std::vector<bool> bad;                   ///< a later output check failed on the input
  std::vector<std::optional<std::uint64_t>> fingerprints;  ///< first outcome per input
  std::vector<std::string> errors;
  /// Growth of the process's peak resident set over the window: the
  /// program's memory, without the inputs built before it.
  double peak_rss_mb = 0.0;

  [[nodiscard]] std::uint64_t attempted() const noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t n : ops) total += n;
    return total;
  }
  /// Every operation on a bad input counts as failed.
  [[nodiscard]] std::uint64_t failed() const noexcept {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) total += bad[i] ? ops[i] : op_failures[i];
    return total;
  }
  /// Record that a later output check found input `index`'s outcome wrong.
  void fail_input(std::size_t index, const std::string& why) {
    bad[index] = true;
    errors.push_back("input " + std::to_string(index) + ": " + why);
  }

  /// Best untraced latency of every input that completed one.
  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> out;
    for (const Best& b : best) {
      if (b.latency_us < std::numeric_limits<double>::infinity()) out.push_back(b.latency_us);
    }
    return out;
  }
  /// Operations per second if every input ran at its best latency.
  [[nodiscard]] double best_rate() const {
    const std::vector<double> best_us = latencies();
    double total_us = 0.0;
    for (const double us : best_us) total_us += us;
    return static_cast<double>(best_us.size()) / (total_us * 1e-6);
  }
  [[nodiscard]] std::vector<double> plan_parts() const {
    std::vector<double> out;
    for (const Best& b : best) out.insert(out.end(), b.plan_us.begin(), b.plan_us.end());
    return out;
  }
  [[nodiscard]] std::vector<double> shot_parts() const {
    std::vector<double> out;
    for (const Best& b : best) out.insert(out.end(), b.shot_us.begin(), b.shot_us.end());
    return out;
  }
  /// Traced over untraced best latency summed across inputs, minus one.
  [[nodiscard]] double tracing_overhead() const {
    double traced = 0.0;
    double untraced = 0.0;
    for (const Best& b : best) {
      if (b.traced_latency_us < std::numeric_limits<double>::infinity() &&
          b.latency_us < std::numeric_limits<double>::infinity()) {
        traced += b.traced_latency_us;
        untraced += b.latency_us;
      }
    }
    return untraced > 0.0 ? traced / untraced - 1.0 : 0.0;
  }
};

/// Run `op(index, trace)` over inputs 0..inputs-1, round-robin, for
/// `seconds`. With a trace, passes over the inputs alternate between
/// untraced (null trace) and traced, so one run yields both numbers and
/// their difference is the tracing overhead. At least two full passes run
/// (four in a traced run).
///
/// `setup()` builds what the operations use and runs one untimed warm-up
/// operation. It runs before the first pass, and again before any pass
/// that starts a second or more after the last set-up, so its samples
/// spread over the run's interference the way the operations' do.
///
/// The peak resident set is reset before the first set-up, so
/// `peak_rss_mb` counts set-up and operations but not the caller's inputs.
template <typename Setup, typename Op>
[[nodiscard]] WindowResult run_window(std::size_t inputs, double seconds, Trace* trace,
                                      Setup&& setup, Op&& op) {
  WindowResult result;
  result.best.assign(inputs, {});
  result.ops.assign(inputs, 0);
  result.op_failures.assign(inputs, 0);
  result.bad.assign(inputs, false);
  result.fingerprints.assign(inputs, std::nullopt);
  const std::size_t min_passes = trace != nullptr ? 4 : 2;
  const double base_rss_mb = reset_peak_rss_mb();
  const auto start = Clock::now();
  auto last_setup = start;
  for (std::size_t pass = 0;; ++pass) {
    if (pass == 0 || elapsed_us(last_setup) >= 1e6) {
      last_setup = Clock::now();
      setup();
      result.setup_s.push_back(elapsed_us(last_setup) / 1e6);
    }
    const bool traced = trace != nullptr && pass % 2 == 1;
    for (std::size_t index = 0; index < inputs; ++index) {
      ++result.ops[index];
      const auto diverged = [&](const char* what) {
        ++result.op_failures[index];
        result.errors.push_back("input " + std::to_string(index) + ": " + what);
      };
      try {
        const OpResult done = op(index, traced ? trace : nullptr);
        std::optional<std::uint64_t>& expected = result.fingerprints[index];
        if (!expected) expected = done.fingerprint;
        if (*expected != done.fingerprint) {
          diverged("outcome differs between repeats");
          continue;
        }
        WindowResult::Best& best = result.best[index];
        if (traced) {
          best.traced_latency_us = std::min(best.traced_latency_us, done.latency_us);
          continue;
        }
        if (done.latency_us < best.latency_us) {
          best.latency_us = done.latency_us;
          best.plan_us = done.plan_us;
          best.shot_us = done.shot_us;
        }
      } catch (const std::exception& error) {
        diverged((std::string("threw: ") + error.what()).c_str());
      }
    }
    if (pass + 1 >= min_passes && elapsed_us(start) >= seconds * 1e6) break;
  }
  result.peak_rss_mb = peak_rss_mb() - base_rss_mb;
  return result;
}

}  // namespace pb
