#pragma once
/// \file bench.hpp
/// Shared vocabulary of the QRM stack benchmark: run options, the result a
/// workload hands back, and the timing and summary helpers every workload
/// uses.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;      ///< Chrome trace file of a traced run ("" = none)
  std::string campaign_file;  ///< campaign-mix scenario file
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `metrics` holds the end-to-end metrics of
/// an untraced run or the per-layer metrics of a traced run; `notes` are
/// printed for people and never parsed.
struct RunOutput {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< one line per failed check
  std::vector<std::string> notes;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double elapsed_us(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since).count();
}

/// Memory of the program under test: the window calls reset_peak_rss_mb()
/// once the workload's inputs are built and peak_rss_mb() when it ends, and
/// reports the difference, so the inputs themselves are not counted.
/// reset_peak_rss_mb() returns free heap pages to the kernel, resets the
/// kernel's peak (VmHWM) to the current resident set, and returns that set
/// in MiB; peak_rss_mb() returns VmHWM in MiB.
double reset_peak_rss_mb();
[[nodiscard]] double peak_rss_mb();

/// The end-to-end metrics of an untraced run, in BENCHMARK.json order.
/// `setup_s` is the median of the set-up samples; latency and plan
/// percentiles are qrm::stats percentiles of the given samples.
/// `throughput` is operations (shots or plans) per second; `fill_rate` the
/// mean target fill at the end of each distinct operation, and
/// `success_rate` the share of them that end defect-free.
[[nodiscard]] std::vector<Metric> end_to_end_metrics(const std::vector<double>& setup_s,
                                                     const std::vector<double>& latency_us,
                                                     const std::vector<double>& plan_us,
                                                     double throughput, double fill_rate,
                                                     double success_rate, double peak_rss_mb);

/// Print `output` for people, then the result object as the last line.
void print_result(const Options& options, const RunOutput& output);

/// The three workloads; each throws only on a benchmark bug (a failing
/// operation is counted in RunOutput, not thrown).
[[nodiscard]] RunOutput run_fig7_shot_stream(const Options& options);
[[nodiscard]] RunOutput run_scale_256_plan(const Options& options);
[[nodiscard]] RunOutput run_campaign_mix(const Options& options);

}  // namespace pb
