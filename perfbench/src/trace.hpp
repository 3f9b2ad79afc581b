#pragma once
/// \file trace.hpp
/// In-memory span and counter recorder for the benchmark's traced runs.
///
/// Spans nest strictly (single thread, innermost-first close). When a span
/// that had children closes, the recorder appends an explicit residual span
/// covering the part of its duration no child covered, so every parent's
/// children plus its residual add up to the parent exactly (integer
/// nanoseconds). Nothing is written until the run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace pb {

class Trace {
 public:
  struct Span {
    const char* name = "";     ///< static string; for a residual, the parent's name
    std::int64_t start_ns = 0;  ///< since the trace was created
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  ///< index into spans(), -1 for a root
    bool residual = false;     ///< the parent's time no child covered

    [[nodiscard]] std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
  };

  /// Sum and count of every span sharing one key: the span name, or
  /// "<parent name>/other" for residuals.
  struct Total {
    double total_us = 0.0;
    std::uint64_t count = 0;
    [[nodiscard]] double mean_us() const noexcept {
      return count > 0 ? total_us / static_cast<double>(count) : 0.0;
    }
  };

  Trace() : origin_(Clock::now()) {}

  /// Open a span as a child of the innermost open span. `name` must outlive
  /// the trace (string literals).
  std::int32_t open(const char* name);
  /// Close `id`, which must be the innermost open span.
  void close(std::int32_t id);

  /// Add `value` to the named counter.
  void add(const std::string& counter, double value) { counters_[counter] += value; }
  [[nodiscard]] double counter(const std::string& name) const;

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::map<std::string, Total> totals() const;

  /// Chrome trace-event JSON (opens in Perfetto or chrome://tracing) of
  /// whole root spans, in order, while the total stays within `max_spans`;
  /// counters always.
  void write_chrome_json(std::ostream& out, std::size_t max_spans) const;

 private:
  using Clock = std::chrono::steady_clock;

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  struct Open {
    std::int32_t id;
    std::int64_t children_ns;  ///< time covered by closed children so far
    bool has_children;
  };
  std::vector<Open> stack_;
  std::map<std::string, double> counters_;
};

/// RAII span; a null trace makes it a no-op, so untraced code paths pay one
/// branch.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name)
      : trace_(trace), id_(trace != nullptr ? trace->open(name) : -1) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace* trace_;
  std::int32_t id_;
};

}  // namespace pb
