// Tests of the benchmark's own code: input generation, the percentiles
// of the end-to-end metrics, and the trace's residual accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "inputs.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

bool same_frame(const qrm::FluorescenceImage& a, const qrm::FluorescenceImage& b) {
  if (a.height() != b.height() || a.width() != b.width()) return false;
  for (std::int32_t r = 0; r < a.height(); ++r) {
    for (std::int32_t c = 0; c < a.width(); ++c) {
      if (a.at(r, c) != b.at(r, c)) return false;
    }
  }
  return true;
}

constexpr const char* kCampaign =
    "name=a\ngrid=24\nload=uniform\nfill=0.6\nshots=2\n---\n"
    "name=b\ngrid=24\nload=pattern\npattern=half-grid\nshots=2\n";

TEST(Inputs, Fig7InputsArePureFunctionOfSeed) {
  const pb::Fig7Inputs a = pb::make_fig7_inputs(7, 3);
  const pb::Fig7Inputs b = pb::make_fig7_inputs(7, 3);
  const pb::Fig7Inputs other = pb::make_fig7_inputs(8, 3);
  ASSERT_EQ(a.truth.size(), 3U);
  ASSERT_EQ(a.frames.size(), 3U);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(a.truth[i], b.truth[i]);
    EXPECT_TRUE(same_frame(a.frames[i], b.frames[i]));
    EXPECT_NE(a.truth[i], other.truth[i]);
    EXPECT_FALSE(same_frame(a.frames[i], other.frames[i]));
  }
  EXPECT_NE(a.truth[0], a.truth[1]);
  EXPECT_EQ(pb::fig7_config(7).master_seed, 7U);
}

TEST(Inputs, ScaleInputsArePureFunctionOfSeed) {
  const std::vector<qrm::OccupancyGrid> a = pb::make_scale_inputs(7, 2);
  ASSERT_EQ(a.size(), 2U);
  EXPECT_EQ(a, pb::make_scale_inputs(7, 2));
  EXPECT_NE(a, pb::make_scale_inputs(8, 2));
  EXPECT_NE(a[0], a[1]);
  EXPECT_EQ(a[0].height(), 256);
}

TEST(Inputs, CampaignSpecsArePureFunctionOfSeed) {
  const auto a = pb::make_campaign_specs(kCampaign, 7);
  ASSERT_EQ(a.size(), 2U);
  EXPECT_EQ(a, pb::make_campaign_specs(kCampaign, 7));
  const auto other = pb::make_campaign_specs(kCampaign, 8);
  EXPECT_NE(a[0].seed, other[0].seed);
  EXPECT_NE(a[0].seed, a[1].seed);
}

TEST(EndToEndMetrics, PercentilesAgreeWithSortedSample) {
  qrm::Rng rng(42);
  for (std::size_t n = 1; n <= 64; ++n) {
    std::vector<double> latency;
    std::vector<double> plan;
    for (std::size_t i = 0; i < n; ++i) {
      // Ties are common in latency samples; draw from a small range.
      latency.push_back(static_cast<double>(rng.uniform_below(20)) + 0.25 * (i % 3));
      plan.push_back(static_cast<double>(rng.uniform_below(7)));
    }
    const std::vector<double> setup = {plan.begin(), plan.begin() + (n + 1) / 2};
    const qrm::stats::SortedSample latency_ref(latency);
    const qrm::stats::SortedSample plan_ref(plan);
    const std::vector<pb::Metric> metrics =
        pb::end_to_end_metrics(setup, latency, plan, 1.0, 1.0, 1.0, 1.0);
    const auto value = [&metrics](const std::string& name) {
      const auto it = std::find_if(metrics.begin(), metrics.end(),
                                   [&name](const pb::Metric& m) { return m.name == name; });
      return it != metrics.end() ? it->value : -1.0;
    };
    EXPECT_EQ(value("setup_s"), qrm::stats::SortedSample(setup).median()) << "n=" << n;
    EXPECT_EQ(value("latency_p50_us"), latency_ref.percentile(50.0)) << "n=" << n;
    EXPECT_EQ(value("latency_p90_us"), latency_ref.percentile(90.0)) << "n=" << n;
    EXPECT_EQ(value("plan_p50_us"), plan_ref.percentile(50.0)) << "n=" << n;
    EXPECT_EQ(value("plan_p90_us"), plan_ref.percentile(90.0)) << "n=" << n;
  }
}

void spin_for(std::chrono::microseconds duration) {
  const auto until = std::chrono::steady_clock::now() + duration;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(Trace, ChildrenPlusResidualEqualParent) {
  pb::Trace trace;
  {
    const pb::ScopedSpan root(&trace, "root");
    spin_for(std::chrono::microseconds(50));
    {
      const pb::ScopedSpan a(&trace, "a");
      { const pb::ScopedSpan x(&trace, "x"); spin_for(std::chrono::microseconds(30)); }
      spin_for(std::chrono::microseconds(20));
      { const pb::ScopedSpan y(&trace, "y"); spin_for(std::chrono::microseconds(30)); }
    }
    { const pb::ScopedSpan b(&trace, "b"); spin_for(std::chrono::microseconds(40)); }
    spin_for(std::chrono::microseconds(10));
  }
  const pb::ScopedSpan disabled(nullptr, "ignored");

  const auto& spans = trace.spans();
  // root, a, x, y, a's residual, b, root's residual.
  ASSERT_EQ(spans.size(), 7U);
  std::size_t residuals = 0;
  for (std::size_t id = 0; id < spans.size(); ++id) {
    if (spans[id].residual) continue;
    std::int64_t children = 0;
    std::int64_t covered = 0;  // union of non-residual child intervals
    std::int64_t covered_until = spans[id].start_ns;
    std::int64_t residual = -1;
    for (const pb::Trace::Span& child : spans) {
      if (child.parent != static_cast<std::int32_t>(id)) continue;
      children += child.duration_ns();
      if (child.residual) {
        residual = child.duration_ns();
        continue;
      }
      const std::int64_t from = std::max(child.start_ns, covered_until);
      if (child.end_ns > from) covered += child.end_ns - from;
      covered_until = std::max(covered_until, child.end_ns);
    }
    if (residual < 0) {
      EXPECT_EQ(children, 0) << spans[id].name << " has children but no residual";
      continue;
    }
    ++residuals;
    EXPECT_EQ(children, spans[id].duration_ns()) << spans[id].name;
    EXPECT_EQ(residual, spans[id].duration_ns() - covered) << spans[id].name;
    EXPECT_GT(residual, 0) << spans[id].name;
  }
  EXPECT_EQ(residuals, 2U);

  const auto totals = trace.totals();
  EXPECT_EQ(totals.at("x").count, 1U);
  EXPECT_EQ(totals.at("root/other").count, 1U);
  EXPECT_EQ(totals.count("ignored"), 0U);
}

}  // namespace
