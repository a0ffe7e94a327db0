#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <utility>

namespace netqos {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic textbook data set
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, HandlesNegativeValues) {
  RunningStats s;
  s.add(-3.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(TimeSeries, AddAndSize) {
  TimeSeries ts;
  EXPECT_TRUE(ts.empty());
  ts.add(seconds(1), 10.0);
  ts.add(seconds(2), 20.0);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.points()[1].value, 20.0);
}

TEST(TimeSeries, StatsBetweenIsHalfOpen) {
  TimeSeries ts;
  ts.add(seconds(0), 1.0);
  ts.add(seconds(1), 2.0);
  ts.add(seconds(2), 3.0);
  const RunningStats s = ts.stats_between(seconds(0), seconds(2));
  EXPECT_EQ(s.count(), 2u);  // t=2 excluded
  EXPECT_DOUBLE_EQ(s.mean(), 1.5);
}

TEST(TimeSeries, MeanBetweenEmptyWindowIsZero) {
  TimeSeries ts;
  ts.add(seconds(10), 5.0);
  EXPECT_EQ(ts.mean_between(seconds(0), seconds(5)), 0.0);
}

TEST(TimeSeries, MaxRelativeError) {
  TimeSeries ts;
  ts.add(seconds(1), 110.0);  // +10%
  ts.add(seconds(2), 95.0);   // -5%
  EXPECT_NEAR(ts.max_relative_error(seconds(0), seconds(3), 100.0), 0.10,
              1e-12);
}

TEST(TimeSeries, MaxRelativeErrorZeroReference) {
  TimeSeries ts;
  ts.add(seconds(1), 50.0);
  EXPECT_EQ(ts.max_relative_error(seconds(0), seconds(2), 0.0), 0.0);
}

TEST(TimeSeries, WindowOutsideDataIsEmpty) {
  TimeSeries ts;
  ts.add(seconds(5), 1.0);
  EXPECT_EQ(ts.stats_between(seconds(6), seconds(10)).count(), 0u);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Histogram, BucketsValuesAtAndBetweenBounds) {
  Histogram h({1.0, 2.0, 4.0});
  h.add(0.5);  // <= 1
  h.add(1.0);  // boundary counts in its own bucket (le semantics)
  h.add(3.0);  // <= 4
  h.add(9.0);  // overflow
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 0u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 13.5);
  EXPECT_DOUBLE_EQ(h.mean(), 13.5 / 4.0);
}

TEST(Histogram, ExponentialFactoryDoublesBounds) {
  const Histogram h = Histogram::exponential(0.001, 2.0, 4);
  ASSERT_EQ(h.bounds().size(), 4u);
  EXPECT_DOUBLE_EQ(h.bounds()[0], 0.001);
  EXPECT_DOUBLE_EQ(h.bounds()[3], 0.008);
}

TEST(Histogram, PercentileInterpolatesWithinBucket) {
  Histogram h({10.0, 20.0, 30.0});
  for (int i = 0; i < 10; ++i) h.add(5.0);   // first bucket
  for (int i = 0; i < 10; ++i) h.add(15.0);  // second bucket
  // Median sits at the boundary between the two populated buckets.
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 10.0);
  // q=0.75 lands midway through the (10, 20] bucket.
  EXPECT_DOUBLE_EQ(h.percentile(0.75), 15.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 20.0);
}

TEST(Histogram, PercentileEmptyAndOverflow) {
  Histogram h({1.0, 2.0});
  EXPECT_EQ(h.percentile(0.95), 0.0);  // empty
  h.add(100.0);                        // only the overflow bucket
  // Overflow clamps to the largest finite bound.
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 2.0);
}

TEST(Histogram, WeightedAddMatchesRepeatedAdds) {
  Histogram weighted({1.0, 2.5, 4.0, 8.0});
  Histogram repeated({1.0, 2.5, 4.0, 8.0});
  const std::pair<double, std::size_t> observations[] = {
      {0.3, 30}, {2.5, 1}, {3.1, 7}, {9.9, 2}, {0.7, 0}};
  for (const auto& [x, n] : observations) {
    weighted.add(x, n);
    for (std::size_t i = 0; i < n; ++i) repeated.add(x);
  }
  EXPECT_EQ(weighted.count(), repeated.count());
  EXPECT_EQ(weighted.bucket_counts(), repeated.bucket_counts());
  for (const double q : {0.0, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(weighted.percentile(q), repeated.percentile(q)) << q;
  }
  // The weighted sum is x * n per call.
  EXPECT_DOUBLE_EQ(weighted.sum(), 0.3 * 30 + 2.5 + 3.1 * 7 + 9.9 * 2);
}

}  // namespace
}  // namespace netqos
