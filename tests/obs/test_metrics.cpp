// Unit tests for the metrics registry: instrument semantics, reference
// stability, snapshot isolation, and the canonical JSON export.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

namespace tlc::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, TracksValueAndHighWatermark) {
  Gauge g;
  g.set(3.0);
  g.set(7.5);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.max(), 7.5);
  g.add(10.0);
  EXPECT_DOUBLE_EQ(g.value(), 12.0);
  EXPECT_DOUBLE_EQ(g.max(), 12.0);
}

TEST(Gauge, TracksLowWatermark) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.min(), 0.0);  // untouched gauge reports 0
  g.set(5.0);
  EXPECT_DOUBLE_EQ(g.min(), 5.0);  // first set seeds both watermarks
  EXPECT_DOUBLE_EQ(g.max(), 5.0);
  g.set(2.0);
  g.set(9.0);
  EXPECT_DOUBLE_EQ(g.min(), 2.0);
  EXPECT_DOUBLE_EQ(g.max(), 9.0);
  g.add(-8.0);  // value 1.0 → new floor
  EXPECT_DOUBLE_EQ(g.min(), 1.0);
}

TEST(LogHistogram, SmallValuesAreExact) {
  LogHistogram h;
  for (std::uint64_t v = 0; v < LogHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LogHistogram::bucket_index(v), v);
    EXPECT_EQ(LogHistogram::bucket_upper_bound(v), v);
  }
  h.observe(0);
  h.observe(17);
  h.observe(17);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 34u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 17u);
  EXPECT_EQ(h.quantile(0.5), 17u);
}

TEST(LogHistogram, BucketBoundsRoundTrip) {
  // Every value maps to a bucket whose upper bound is >= the value and
  // within the guaranteed relative error.
  for (const std::uint64_t v :
       {std::uint64_t{63}, std::uint64_t{64}, std::uint64_t{65},
        std::uint64_t{127}, std::uint64_t{128}, std::uint64_t{1000},
        std::uint64_t{123456789}, std::uint64_t{1} << 40,
        (std::uint64_t{1} << 63) + 12345,
        std::numeric_limits<std::uint64_t>::max()}) {
    const std::size_t idx = LogHistogram::bucket_index(v);
    ASSERT_LT(idx, LogHistogram::kBucketCount);
    const std::uint64_t ub = LogHistogram::bucket_upper_bound(idx);
    EXPECT_GE(ub, v);
    // Relative width of the bucket ≤ 2^-kSubBucketBits.
    const double rel =
        static_cast<double>(ub - v) / std::max<double>(1.0, double(v));
    EXPECT_LE(rel, 1.0 / double(LogHistogram::kSubBuckets));
  }
}

TEST(LogHistogram, QuantilesBoundedRelativeError) {
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 10000; ++v) h.observe(v * 1000);  // 1µs..10ms
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 10000000u);
  const auto check = [&](double q, std::uint64_t exact) {
    const std::uint64_t got = h.quantile(q);
    EXPECT_GE(got, exact);
    EXPECT_LE(static_cast<double>(got),
              static_cast<double>(exact) * (1.0 + 1.0 / 64.0) + 1.0)
        << "q=" << q;
  };
  check(0.50, 5000000);
  check(0.90, 9000000);
  check(0.99, 9900000);
  EXPECT_EQ(h.quantile(1.0), h.max());
  EXPECT_EQ(h.quantile(0.0), h.min());
}

TEST(LogHistogram, EmptyAndDurationObserve) {
  LogHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.min(), 0u);
  h.observe_duration(Duration{-5});  // clamps to 0
  h.observe_duration(std::chrono::microseconds{3});
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), 3000u);
}

TEST(MetricsRegistry, SameNameReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(reg.counter("x").value(), 1u);
}

TEST(MetricsRegistry, ReferencesSurviveLaterRegistrations) {
  MetricsRegistry reg;
  Counter& first = reg.counter("first");
  for (int i = 0; i < 1000; ++i) {
    reg.counter("other." + std::to_string(i));
  }
  first.inc(7);
  EXPECT_EQ(reg.counter("first").value(), 7u);
}

TEST(MetricsRegistry, SnapshotIsIsolatedFromLaterMutation) {
  MetricsRegistry reg;
  reg.counter("c").inc(5);
  reg.gauge("g").set(1.5);
  const MetricsSnapshot snap = reg.snapshot();
  reg.counter("c").inc(100);
  reg.gauge("g").set(9.0);
  EXPECT_EQ(snap.counter_or_zero("c"), 5u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g").value, 1.5);
}

TEST(MetricsSnapshot, CounterOrZeroForUnknownName) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.snapshot().counter_or_zero("never.registered"), 0u);
}

TEST(MetricsSnapshot, CanonicalJsonShape) {
  MetricsRegistry reg;
  reg.counter("b").inc(2);
  reg.counter("a").inc(1);
  reg.gauge("g").set(2.0);
  reg.log_histogram("lat").observe(100);
  EXPECT_EQ(reg.to_json(),
            "{\"counters\":{\"a\":1,\"b\":2},"
            "\"gauges\":{\"g\":{\"value\":2,\"min\":2,\"max\":2}},"
            "\"log_histograms\":{\"lat\":{\"count\":1,\"sum\":100,"
            "\"min\":100,\"max\":100,\"p50\":100,\"p90\":100,"
            "\"p99\":100}}}");
}

TEST(MetricsSnapshot, LogHistogramOrZeroForUnknownName) {
  MetricsRegistry reg;
  const auto snap = reg.snapshot().log_histogram_or_zero("nope");
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.p99, 0u);
}

TEST(MetricsSnapshot, JsonIsDeterministicAcrossInsertionOrder) {
  MetricsRegistry forward;
  forward.counter("a").inc();
  forward.counter("b").inc();
  MetricsRegistry backward;
  backward.counter("b").inc();
  backward.counter("a").inc();
  EXPECT_EQ(forward.to_json(), backward.to_json());
}

}  // namespace
}  // namespace tlc::obs
