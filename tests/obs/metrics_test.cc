#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <sstream>

namespace evostore::obs {
namespace {

TEST(Counter, StartsAtZeroAndAdds) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(2.5);
  g.add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(Histogram, EmptyIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.add(0.125);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 0.125);
  EXPECT_DOUBLE_EQ(h.max(), 0.125);
  EXPECT_DOUBLE_EQ(h.mean(), 0.125);
  // Bucket interpolation keeps quantiles within the sub-bucket (12.5%
  // relative resolution) of the single stored value.
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_NEAR(h.quantile(q), 0.125, 0.125 * 0.13) << q;
  }
}

TEST(Histogram, QuantilesWithinBucketResolution) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.add(i * 1e-3);  // 1ms .. 1s uniform
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.5 * 0.15);
  EXPECT_NEAR(h.quantile(0.95), 0.95, 0.95 * 0.15);
  EXPECT_NEAR(h.quantile(0.99), 0.99, 0.99 * 0.15);
  // min/max are exact, not bucketed.
  EXPECT_DOUBLE_EQ(h.min(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max(), 1.0);
  // Out-of-range q clamps.
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(Histogram, UnderflowBucketForNonPositiveAndNan) {
  Histogram h;
  h.add(0.0);
  h.add(-3.0);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(1.0);
  EXPECT_EQ(h.count(), 4u);
  // Three of four values are in the underflow bucket: low quantiles resolve
  // to min().
  EXPECT_DOUBLE_EQ(h.quantile(0.5), h.min());
}

TEST(Histogram, ExtremeValuesStayFinite) {
  Histogram h;
  h.add(1e-300);  // far below kMinExp -> clamped into the first bucket
  h.add(1e300);   // far above kMaxExp -> clamped into the last bucket
  EXPECT_EQ(h.count(), 2u);
  EXPECT_TRUE(std::isfinite(h.quantile(0.5)));
  EXPECT_TRUE(std::isfinite(h.quantile(1.0)));
}

TEST(Histogram, SummaryIsOrderIndependent) {
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) values.push_back(std::pow(1.01, i) * 1e-6);
  Histogram forward;
  for (double v : values) forward.add(v);
  std::mt19937 rng(7);
  std::shuffle(values.begin(), values.end(), rng);
  Histogram shuffled;
  for (double v : values) shuffled.add(v);

  HistogramSummary a = forward.summary();
  HistogramSummary b = shuffled.summary();
  EXPECT_EQ(a.count, b.count);
  // Sums are accumulated in feed order, so only near-equal across orders.
  EXPECT_NEAR(a.sum, b.sum, std::abs(a.sum) * 1e-12);
  EXPECT_DOUBLE_EQ(a.min, b.min);
  EXPECT_DOUBLE_EQ(a.max, b.max);
  EXPECT_DOUBLE_EQ(a.p50, b.p50);
  EXPECT_DOUBLE_EQ(a.p95, b.p95);
  EXPECT_DOUBLE_EQ(a.p99, b.p99);
}

// Histograms fed the parts of one value stream merge into the histogram fed
// all of it: count, min, max, underflow, buckets and so every quantile bit
// for bit, the sum up to rounding. The values reach the underflow bucket
// (zeros, negatives) and past both ends of the bucket range.
TEST(Histogram, MergeEqualsOneHistogramFedEverything) {
  std::mt19937_64 rng(24);
  std::uniform_real_distribution<double> exponent(Histogram::kMinExp - 4,
                                                  Histogram::kMaxExp + 2);
  auto value = [&]() -> double {
    switch (rng() % 8) {
      case 0: return 0.0;
      case 1: return -std::exp2(exponent(rng));
      case 2: return std::ldexp(1.0, Histogram::kMinExp - 1);  // lowest
      case 3: return std::ldexp(1.0, Histogram::kMaxExp - 1);  // highest
      default: return std::exp2(exponent(rng));
    }
  };
  for (int trial = 0; trial < 200; ++trial) {
    const size_t parts = 1 + rng() % 8;
    std::vector<Histogram> part(parts);
    Histogram whole;
    for (size_t i = 0, n = 1 + rng() % 300; i < n; ++i) {
      const double v = value();
      whole.add(v);
      part[rng() % parts].add(v);
    }
    Histogram merged;
    for (const Histogram& p : part) merged.merge(p);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_EQ(merged.min(), whole.min());
    EXPECT_EQ(merged.max(), whole.max());
    EXPECT_EQ(merged.parts().underflow, whole.parts().underflow);
    EXPECT_TRUE(merged.parts().buckets == whole.parts().buckets) << trial;
    for (double q : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0}) {
      EXPECT_EQ(merged.quantile(q), whole.quantile(q)) << trial << " q " << q;
    }
    EXPECT_NEAR(merged.sum(), whole.sum(), std::abs(whole.sum()) * 1e-12)
        << trial;
  }
}

TEST(MetricsRegistry, PointersAreStableAndShared) {
  MetricsRegistry reg;
  Counter* c1 = reg.counter("a.count");
  Gauge* g1 = reg.gauge("a.gauge");
  Histogram* h1 = reg.histogram("a.hist");
  // Creating many more metrics must not invalidate earlier pointers.
  for (int i = 0; i < 100; ++i) {
    reg.counter("c" + std::to_string(i));
    reg.histogram("h" + std::to_string(i));
  }
  EXPECT_EQ(reg.counter("a.count"), c1);
  EXPECT_EQ(reg.gauge("a.gauge"), g1);
  EXPECT_EQ(reg.histogram("a.hist"), h1);
  c1->add(5);
  EXPECT_EQ(reg.counter("a.count")->value(), 5u);
}

TEST(MetricsRegistry, HistogramsAreNameOrdered) {
  MetricsRegistry reg;
  reg.histogram("zeta");
  reg.histogram("alpha");
  reg.histogram("mid");
  auto hists = reg.histograms();
  ASSERT_EQ(hists.size(), 3u);
  EXPECT_EQ(hists[0].first, "alpha");
  EXPECT_EQ(hists[1].first, "mid");
  EXPECT_EQ(hists[2].first, "zeta");
}

TEST(MetricsRegistry, JsonIsDeterministic) {
  auto build = [] {
    MetricsRegistry reg;
    reg.counter("rpc.calls")->add(17);
    reg.gauge("codec.ratio")->set(0.4375);
    Histogram* h = reg.histogram("rpc.call_seconds");
    for (int i = 1; i <= 64; ++i) h->add(i * 1e-4);
    std::ostringstream os;
    reg.write_json(os);
    return os.str();
  };
  std::string a = build();
  std::string b = build();
  EXPECT_EQ(a, b);  // byte-identical across identical runs
  EXPECT_NE(a.find("\"rpc.calls\": 17"), std::string::npos) << a;
  EXPECT_NE(a.find("\"rpc.call_seconds\""), std::string::npos);
  EXPECT_EQ(a.front(), '{');
}

TEST(FormatDouble, RoundTripsExactly) {
  for (double v : {0.0, 1.0, 0.1, 1.0 / 3.0, 6.02214076e23, -2.5e-13}) {
    EXPECT_DOUBLE_EQ(std::stod(format_double(v)), v) << format_double(v);
  }
}

TEST(JsonEscape, EscapesControlAndQuote) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape(std::string_view("a\nb")), "a\\nb");
}

}  // namespace
}  // namespace evostore::obs
