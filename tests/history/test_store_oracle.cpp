// Oracle property test for Series::query.
//
// The reference below is the straightforward algorithm: pick the tier,
// scan every retained bucket with RingTier::overlaps(), and feed the
// Histogram one add() per underlying sample. It lives only here. Series
// answers from a binary-searched bucket range, a count-weighted
// histogram and a per-series memo; over seeded random series, windows
// and append/query interleavings every WindowSummary field must match
// the reference bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "history/store.h"

namespace netqos::hist {
namespace {

const RingTier* oracle_tier(const Series& series, SimTime begin,
                            bool* complete) {
  *complete = false;
  const RingTier* coarsest_nonempty = nullptr;
  if (const auto oldest = series.raw().oldest_start();
      oldest.has_value() && *oldest <= begin) {
    *complete = true;
    return &series.raw();
  }
  if (!series.raw().empty()) coarsest_nonempty = &series.raw();
  for (const RingTier& tier : series.tiers()) {
    if (const auto oldest = tier.oldest_start();
        oldest.has_value() && *oldest <= begin) {
      *complete = true;
      return &tier;
    }
    if (!tier.empty()) coarsest_nonempty = &tier;
  }
  return coarsest_nonempty;
}

WindowSummary oracle_query(const Series& series, SimTime begin, SimTime end) {
  WindowSummary summary;
  bool complete = false;
  const RingTier* tier = oracle_tier(series, begin, &complete);
  if (tier == nullptr) return summary;
  summary.resolution = tier->width();
  summary.complete = complete;

  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::vector<const Bucket*> hits;
  for (std::size_t i = 0; i < tier->size(); ++i) {
    const Bucket& bucket = tier->at(i);
    if (!tier->overlaps(bucket, begin, end)) continue;
    if (hits.empty() || bucket.min < min) min = bucket.min;
    if (hits.empty() || bucket.max > max) max = bucket.max;
    sum += bucket.sum;
    summary.samples += bucket.count;
    hits.push_back(&bucket);
  }
  summary.buckets = hits.size();
  if (summary.samples == 0) return summary;
  summary.min = min;
  summary.max = max;
  summary.mean = sum / static_cast<double>(summary.samples);
  if (max <= min) {
    summary.p95 = max;
  } else {
    constexpr std::size_t kBins = 32;
    std::vector<double> bounds;
    const double step = (max - min) / static_cast<double>(kBins);
    for (std::size_t i = 1; i <= kBins; ++i) {
      bounds.push_back(min + step * static_cast<double>(i));
    }
    Histogram histogram(std::move(bounds));
    for (const Bucket* bucket : hits) {
      for (std::size_t c = 0; c < bucket->count; ++c) {
        histogram.add(bucket->mean());
      }
    }
    summary.p95 = histogram.percentile(0.95);
  }
  return summary;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

::testing::AssertionResult Identical(const WindowSummary& got,
                                     const WindowSummary& want) {
  if (got.samples == want.samples && got.buckets == want.buckets &&
      same_bits(got.min, want.min) && same_bits(got.mean, want.mean) &&
      same_bits(got.max, want.max) && same_bits(got.p95, want.p95) &&
      got.resolution == want.resolution && got.complete == want.complete) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "got {samples " << got.samples << ", buckets " << got.buckets
         << ", min " << got.min << ", mean " << got.mean << ", max "
         << got.max << ", p95 " << got.p95 << ", res " << got.resolution
         << ", complete " << got.complete << "} want {samples "
         << want.samples << ", buckets " << want.buckets << ", min "
         << want.min << ", mean " << want.mean << ", max " << want.max
         << ", p95 " << want.p95 << ", res " << want.resolution
         << ", complete " << want.complete << "}";
}

/// Queries twice (the second answer may come from the memo) and checks
/// both against the reference.
void expect_matches(const Series& series, SimTime begin, SimTime end) {
  const WindowSummary want = oracle_query(series, begin, end);
  EXPECT_TRUE(Identical(series.query(begin, end), want))
      << "window [" << begin << ", " << end << ")";
  EXPECT_TRUE(Identical(series.query(begin, end), want))
      << "repeat of window [" << begin << ", " << end << ")";
}

RetentionPolicy raw_only() {
  RetentionPolicy policy;
  policy.raw_capacity = 24;
  policy.tiers.clear();
  return policy;
}

RetentionPolicy tiny_cascade() {
  RetentionPolicy policy;
  policy.raw_capacity = 5;
  policy.tiers = {{3 * kSecond, 4}, {9 * kSecond, 3}};
  return policy;
}

RetentionPolicy small_cascade() {
  RetentionPolicy policy;
  policy.raw_capacity = 16;
  policy.tiers = {{8 * kSecond, 16}, {32 * kSecond, 8}};
  return policy;
}

std::vector<std::pair<const char*, RetentionPolicy>> policies() {
  return {{"raw_only", raw_only()},
          {"tiny_cascade", tiny_cascade()},
          {"small_cascade", small_cascade()},
          {"default", RetentionPolicy{}},
          {"for_span_600s_2s",
           RetentionPolicy::for_span(seconds(600), 2 * kSecond)}};
}

/// Windows worth asking at the series' current state: trailing windows,
/// random spans (some with begin > end, some empty), and windows whose
/// ends sit exactly on bucket starts and bucket ends of every tier.
std::vector<std::pair<SimTime, SimTime>> windows(const Series& series,
                                                 SimTime now,
                                                 std::mt19937_64& rng) {
  std::vector<std::pair<SimTime, SimTime>> out;
  for (const SimDuration span :
       {20 * kSecond, 5 * 60 * kSecond, 30 * 60 * kSecond}) {
    out.emplace_back(now - span, now + 1);
  }
  out.emplace_back(now, now);          // empty
  out.emplace_back(now + 1, now - 7);  // begin > end
  out.emplace_back(-kSecond * 10'000, now + kSecond);  // before retention
  std::uniform_int_distribution<SimTime> any(-20 * kSecond,
                                             now + 20 * kSecond);
  for (int i = 0; i < 4; ++i) out.emplace_back(any(rng), any(rng));

  std::vector<const RingTier*> tiers = {&series.raw()};
  for (const RingTier& tier : series.tiers()) tiers.push_back(&tier);
  for (const RingTier* tier : tiers) {
    if (tier->empty()) continue;
    std::uniform_int_distribution<std::size_t> pick(0, tier->size() - 1);
    const Bucket& a = tier->at(pick(rng));
    const Bucket& b = tier->at(pick(rng));
    const SimTime lo = std::min(a.start, b.start);
    const SimTime hi = std::max(a.start, b.start);
    out.emplace_back(lo, hi);
    out.emplace_back(lo, hi + tier->width());
    out.emplace_back(lo + tier->width(), hi + 1);
    out.emplace_back(hi, lo);
  }
  return out;
}

TEST(SeriesOracle, RandomAppendsAndWindowsMatchReferenceBitForBit) {
  for (const auto& [name, policy] : policies()) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(::testing::Message() << name << " seed " << seed);
      std::mt19937_64 rng(seed);
      std::uniform_int_distribution<int> roll(0, 99);
      std::uniform_real_distribution<double> value(-50.0, 1000.0);
      Series series(policy);
      SimTime now = 0;
      double held = 0.0;
      // Enough appends to run past the for_span raw ring (302 slots).
      for (int i = 0; i < 700; ++i) {
        const int r = roll(rng);
        SimTime t = now;
        if (r < 10) {
          t = now - 5 * kSecond;  // out of order: folds into the newest
        } else if (r < 15) {
          t = now;  // same time again
        } else {
          now += 2 * kSecond + (r % 3) * kSecond / 2;
          t = now;
        }
        // Runs of one held value make windows with max == min.
        if (r % 4 != 0) held = value(rng);
        series.add(t, held);
        if (i % 3 == 0 || i < 40) {
          for (const auto& [begin, end] : windows(series, now, rng)) {
            expect_matches(series, begin, end);
          }
        }
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(SeriesOracle, EmptySeriesAnswersNothing) {
  const Series series(tiny_cascade());
  expect_matches(series, 0, seconds(10));
  expect_matches(series, seconds(10), 0);
}

TEST(SeriesOracle, ConstantWindowHasP95EqualToMax) {
  Series series(small_cascade());
  for (int i = 0; i < 100; ++i) series.add(seconds(2 * i), 42.5);
  const WindowSummary summary = series.query(seconds(100), seconds(200));
  EXPECT_EQ(summary.min, summary.max);
  EXPECT_EQ(summary.p95, 42.5);
  expect_matches(series, seconds(100), seconds(200));
  expect_matches(series, 0, seconds(200));
}

// An append that merges into the newest bucket leaves the window's
// bucket range unchanged but changes the bucket: a memo keyed on the
// range alone would return the stale answer.
TEST(SeriesOracle, MergeIntoNewestBucketInvalidatesMemo) {
  Series series(small_cascade());
  for (int i = 0; i < 100; ++i) {
    series.add(seconds(2 * i), static_cast<double>(i % 7));
  }
  // [100 s, 198 s] is past raw retention (32 s), so the 8 s tier
  // answers; the newest 8 s bucket starts at 192 s.
  const SimTime begin = seconds(120);
  const SimTime end = seconds(400);
  const WindowSummary before = series.query(begin, end);
  ASSERT_EQ(before.resolution, 8 * kSecond);
  const RingTier& fine = series.tiers().front();
  const SimTime newest = fine.newest().start;
  const RingTier::Range range = fine.overlap_range(begin, end);

  series.add(seconds(199), 1000.0);  // same 8 s bucket as 198 s
  ASSERT_EQ(fine.newest().start, newest);
  const RingTier::Range after_range = fine.overlap_range(begin, end);
  ASSERT_EQ(after_range.first, range.first);
  ASSERT_EQ(after_range.last, range.last);

  const WindowSummary after = series.query(begin, end);
  EXPECT_EQ(after.samples, before.samples + 1);
  EXPECT_EQ(after.max, 1000.0);
  EXPECT_TRUE(Identical(after, oracle_query(series, begin, end)));

  // The raw tier folds an out-of-order sample into its newest bucket:
  // same range, new contents.
  const WindowSummary raw_before = series.query(seconds(190), end);
  ASSERT_EQ(raw_before.resolution, 0);
  series.add(seconds(150), -3.0);
  const WindowSummary raw_after = series.query(seconds(190), end);
  EXPECT_EQ(raw_after.samples, raw_before.samples + 1);
  EXPECT_EQ(raw_after.min, -3.0);
  EXPECT_TRUE(Identical(raw_after, oracle_query(series, seconds(190), end)));
}

TEST(SeriesOracle, CopiedSeriesNeverAnswersFromOriginalsMemo) {
  Series original(small_cascade());
  for (int i = 0; i < 60; ++i) {
    original.add(seconds(2 * i), static_cast<double>(i));
  }
  const SimTime begin = seconds(100);
  const SimTime end = seconds(200);
  (void)original.query(begin, end);  // warm the memo

  Series copy = original;
  Series assigned(small_cascade());
  (void)assigned.query(begin, end);
  assigned = original;

  // Each side takes one more append, so every tier's adds() is equal
  // across them, and the original memoizes its answer first.
  original.add(seconds(120), 5.0);
  const WindowSummary mine = original.query(begin, end);
  copy.add(seconds(120), 500.0);
  assigned.add(seconds(120), -500.0);

  EXPECT_TRUE(Identical(copy.query(begin, end),
                        oracle_query(copy, begin, end)));
  EXPECT_TRUE(Identical(assigned.query(begin, end),
                        oracle_query(assigned, begin, end)));
  EXPECT_EQ(copy.query(begin, end).max, 500.0);
  EXPECT_EQ(assigned.query(begin, end).min, -500.0);
  EXPECT_TRUE(Identical(original.query(begin, end), mine));

  Series moved = std::move(copy);
  EXPECT_TRUE(Identical(moved.query(begin, end),
                        oracle_query(moved, begin, end)));
}

TEST(SeriesOracle, CompleteFollowsBeginOnMemoHit) {
  Series series(raw_only());
  for (int i = 0; i < 10; ++i) series.add(seconds(10 + 2 * i), 1.0 * i);
  // Both windows cover the same raw buckets, so the second is a memo
  // hit; only the first starts inside retention.
  const WindowSummary inside = series.query(seconds(10), seconds(100));
  const WindowSummary before = series.query(seconds(9), seconds(100));
  EXPECT_TRUE(inside.complete);
  EXPECT_FALSE(before.complete);
  EXPECT_EQ(inside.samples, before.samples);
  expect_matches(series, seconds(10), seconds(100));
  expect_matches(series, seconds(9), seconds(100));
}

TEST(SeriesOracle, FootprintExcludesMemo) {
  Series series(small_cascade());
  const std::size_t bytes = series.footprint_bytes();
  for (int i = 0; i < 50; ++i) {
    series.add(seconds(2 * i), 1.0 * i);
    (void)series.query(seconds(2 * i) - seconds(20), seconds(2 * i) + 1);
  }
  EXPECT_EQ(series.footprint_bytes(), bytes);
}

}  // namespace
}  // namespace netqos::hist
