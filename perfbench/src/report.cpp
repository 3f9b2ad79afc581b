#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "util/stats.hpp"

namespace pb {

namespace {

/// A "Vm...:  <n> kB" field of /proc/self/status, in MiB.
double status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string key;
  double kib = 0.0;
  while (status >> key) {
    if (key == field + ":" && status >> kib) return kib / 1024.0;
    status.ignore(1 << 12, '\n');
  }
  throw std::runtime_error("no " + field + " in /proc/self/status");
}

}  // namespace

double reset_peak_rss_mb() {
  malloc_trim(0);
  // "5" resets VmHWM to the current resident set (proc(5), clear_refs). Where
  // the write is refused the peak is not reset, and input-generation
  // transients may be counted.
  std::ofstream("/proc/self/clear_refs") << "5";
  return status_mb("VmRSS");
}

double peak_rss_mb() { return status_mb("VmHWM"); }

std::vector<Metric> end_to_end_metrics(const std::vector<double>& setup_s,
                                       const std::vector<double>& latency_us,
                                       const std::vector<double>& plan_us, double throughput,
                                       double fill_rate, double success_rate,
                                       double peak_rss_mb) {
  const qrm::stats::SortedSample latency(latency_us);
  const qrm::stats::SortedSample plan(plan_us);
  return {
      {"setup_s", qrm::stats::percentile(setup_s, 50.0), "s"},
      {"latency_p50_us", latency.percentile(50.0), "us"},
      {"latency_p90_us", latency.percentile(90.0), "us"},
      {"plan_p50_us", plan.percentile(50.0), "us"},
      {"plan_p90_us", plan.percentile(90.0), "us"},
      {"throughput", throughput, "1/s"},
      {"fill_rate", fill_rate, "ratio"},
      {"success_rate", success_rate, "ratio"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };
}

void print_result(const Options& options, const RunOutput& output) {
  for (const Metric& metric : output.metrics) {
    if (!std::isfinite(metric.value)) {
      throw std::runtime_error("metric " + metric.name + " is not a finite number");
    }
  }
  std::printf("workload %s seed %llu seconds %g trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("build {\"compiler\": \"%s\", \"build_type\": \"%s\"}\n", PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);
  for (const std::string& note : output.notes) std::printf("note %s\n", note.c_str());
  constexpr std::size_t kShownErrors = 10;
  for (std::size_t i = 0; i < output.errors.size() && i < kShownErrors; ++i) {
    std::printf("error %s\n", output.errors[i].c_str());
  }
  const double error_rate = output.attempted > 0 ? static_cast<double>(output.failed) /
                                                       static_cast<double>(output.attempted)
                                                 : 1.0;
  std::printf("operations attempted %llu failed %llu error_rate %.17g\n",
              static_cast<unsigned long long>(output.attempted),
              static_cast<unsigned long long>(output.failed), error_rate);
  for (const Metric& metric : output.metrics) {
    std::printf("metric %-28s %.17g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }

  const bool correct = output.failed == 0 && output.errors.empty() && output.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(output.attempted),
              static_cast<unsigned long long>(output.failed));
  for (std::size_t i = 0; i < output.metrics.size(); ++i) {
    const Metric& metric = output.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace pb
