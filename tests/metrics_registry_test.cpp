// Registry semantics under concurrency: exact counting across threads,
// histogram percentile bounds, and label-set series identity. The suite
// name (MetricsRegistry*) is part of the TSan CI job's -R filter, so every
// test here doubles as a data-race check.
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace olsq2::obs::metrics {
namespace {

class MetricsRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    Registry::instance().reset_all();
  }
  void TearDown() override { set_enabled(false); }
};

TEST_F(MetricsRegistryTest, ConcurrentIncrementsSumExactly) {
  Counter& c = Registry::instance().counter("test_concurrent_total");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST_F(MetricsRegistryTest, ConcurrentHistogramObservesCountExactly) {
  Histogram& h = Registry::instance().histogram("test_concurrent_hist_ms");
  constexpr int kThreads = 8;
  constexpr int kObserves = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kObserves; ++i) {
        h.observe(0.5 + t + i % 10);
      }
    });
  }
  for (auto& t : threads) t.join();
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kObserves);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.bucket_counts) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 0.5 + (kThreads - 1) + 9);
}

TEST_F(MetricsRegistryTest, HistogramExactAggregatesAndQuantileBounds) {
  Histogram& h = Registry::instance().histogram("test_quantile_ms");
  double sum = 0;
  for (int i = 1; i <= 1000; ++i) {
    h.observe(static_cast<double>(i));
    sum += i;
  }
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_DOUBLE_EQ(snap.sum, sum);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 1000.0);
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    const double v = snap.quantile(q);
    EXPECT_GE(v, snap.min) << "q=" << q;
    EXPECT_LE(v, snap.max) << "q=" << q;
  }
  // Log2 buckets bound the relative error: the true p50 is 500, so the
  // estimate must land within the enclosing power-of-two bucket (256, 512].
  const double p50 = snap.quantile(0.5);
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 512.0 + 1e-9);
  // Quantiles are monotone in q.
  EXPECT_LE(snap.quantile(0.5), snap.quantile(0.9));
  EXPECT_LE(snap.quantile(0.9), snap.quantile(0.99));
}

TEST_F(MetricsRegistryTest, HistogramOverflowBucket) {
  Histogram& h = Registry::instance().histogram("test_overflow_ms");
  h.observe(1e30);  // beyond the largest finite bound
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.bucket_counts.back(), 1u);
  EXPECT_TRUE(std::isinf(HistogramSnapshot::bucket_upper(
      snap.bucket_counts.size() - 1)));
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 1e30);  // clamped to exact max
}

TEST_F(MetricsRegistryTest, LabelSetsSelectDistinctSeries) {
  Registry& reg = Registry::instance();
  Counter& a = reg.counter("test_labeled_total", "", {{"engine", "tr"}});
  Counter& b = reg.counter("test_labeled_total", "", {{"engine", "tb"}});
  Counter& a_again = reg.counter("test_labeled_total", "", {{"engine", "tr"}});
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&a, &a_again);  // same name+labels => same object
  a.inc(3);
  b.inc(5);
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(b.value(), 5u);

  bool found = false;
  for (const auto& fam : reg.snapshot()) {
    if (fam.name != "test_labeled_total") continue;
    found = true;
    EXPECT_EQ(fam.series.size(), 2u);
  }
  EXPECT_TRUE(found);
}

TEST_F(MetricsRegistryTest, KindClashThrows) {
  Registry& reg = Registry::instance();
  reg.counter("test_kind_clash");
  EXPECT_THROW(reg.gauge("test_kind_clash"), std::logic_error);
  EXPECT_THROW(reg.histogram("test_kind_clash"), std::logic_error);
}

TEST_F(MetricsRegistryTest, DisabledRecordingIsDropped) {
  Counter& c = Registry::instance().counter("test_disabled_total");
  Gauge& g = Registry::instance().gauge("test_disabled_gauge");
  Histogram& h = Registry::instance().histogram("test_disabled_ms");
  set_enabled(false);
  c.inc(7);
  g.set(3.5);
  h.observe(1.0);
  set_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.snapshot().count, 0u);
}

TEST_F(MetricsRegistryTest, GaugeSetAndAdd) {
  Gauge& g = Registry::instance().gauge("test_gauge_bytes");
  g.set(100.0);
  g.add(-25.0);
  g.add(50.0);
  EXPECT_DOUBLE_EQ(g.value(), 125.0);
}

TEST_F(MetricsRegistryTest, ResetAllKeepsHandlesValid) {
  Counter& c = Registry::instance().counter("test_reset_total");
  c.inc(9);
  Registry::instance().reset_all();
  EXPECT_EQ(c.value(), 0u);
  c.inc(2);  // handle still counts into the same storage
  EXPECT_EQ(c.value(), 2u);
}

}  // namespace
}  // namespace olsq2::obs::metrics
