/**
 * @file
 * Unit tests for the statistics utilities (stats/).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <algorithm>
#include <array>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "stats/histogram.h"
#include "stats/rank.h"
#include "stats/residency.h"
#include "stats/summary.h"

namespace apc::stats {
namespace {

TEST(Histogram, EmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, MovedFromIsUnbinnedAndRecordsNothing)
{
    Histogram a(1.0, 1e6, 32);
    a.record(10.0);
    a.record(100.0);
    Histogram b = std::move(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_TRUE(b.binned());
    // The moved-from source is unbinned, not unspecified.
    EXPECT_FALSE(a.binned());
    EXPECT_EQ(a.count(), 0u);
    a.record(5.0);
    a.record(std::nan(""));
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.nanCount(), 0u);
    EXPECT_EQ(a.numBins(), 0u);
    EXPECT_DOUBLE_EQ(a.quantile(0.5), 0.0);
    // Neither side of a merge between binned and unbinned changes.
    EXPECT_FALSE(b.merge(a));
    EXPECT_FALSE(a.merge(b));
    EXPECT_EQ(b.count(), 2u);
    EXPECT_EQ(a.count(), 0u);
    EXPECT_FALSE(Histogram::unbinned().binned());
}

TEST(Histogram, MeanIsExact)
{
    Histogram h(1.0, 1e6, 32);
    h.record(10.0);
    h.record(20.0);
    h.record(30.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
    EXPECT_DOUBLE_EQ(h.minSample(), 10.0);
    EXPECT_DOUBLE_EQ(h.maxSample(), 30.0);
}

TEST(Histogram, QuantileWithinBinResolution)
{
    Histogram h(1.0, 1e6, 64);
    for (int i = 1; i <= 10000; ++i)
        h.record(static_cast<double>(i));
    // p50 ~ 5000, p99 ~ 9900; allow bin-resolution error (~4%).
    EXPECT_NEAR(h.quantile(0.5), 5000.0, 250.0);
    EXPECT_NEAR(h.quantile(0.99), 9900.0, 500.0);
}

TEST(Histogram, QuantileEdgesReturnExactMinMax)
{
    Histogram h(1.0, 1e6, 32);
    h.record(42.0);
    h.record(1234.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 42.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 1234.0);
}

TEST(Histogram, UnderflowAndOverflowCounted)
{
    Histogram h(10.0, 100.0, 8);
    h.record(1.0);    // underflow
    h.record(1e9);    // overflow
    h.record(50.0);
    EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, FractionBetween)
{
    Histogram h(0.1, 1e6, 64);
    for (int i = 0; i < 60; ++i)
        h.record(100.0); // in [20, 200)
    for (int i = 0; i < 40; ++i)
        h.record(1000.0); // outside
    EXPECT_NEAR(h.fractionBetween(20.0, 200.0), 0.60, 0.02);
    EXPECT_NEAR(h.fractionBetween(500.0, 2000.0), 0.40, 0.02);
    EXPECT_NEAR(h.fractionBetween(1.0, 5.0), 0.0, 1e-12);
}

TEST(Histogram, WeightedRecord)
{
    Histogram h(1.0, 1e6, 32);
    h.record(10.0, 3);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.sum(), 30.0);
}

TEST(Histogram, ClearResets)
{
    Histogram h(1.0, 1e6, 32);
    h.record(5.0);
    h.clear();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(Histogram, NonPositiveGoesToUnderflowWithoutCrash)
{
    Histogram h(1.0, 1e6, 32);
    h.record(0.0);
    h.record(-5.0);
    EXPECT_EQ(h.count(), 2u);
}

TEST(Histogram, MergePoolsSamples)
{
    Histogram a(1.0, 1e6, 64), b(1.0, 1e6, 64), ref(1.0, 1e6, 64);
    for (int i = 1; i <= 5000; ++i) {
        a.record(static_cast<double>(i));
        ref.record(static_cast<double>(i));
    }
    for (int i = 5001; i <= 10000; ++i) {
        b.record(static_cast<double>(i));
        ref.record(static_cast<double>(i));
    }
    ASSERT_TRUE(a.merge(b));
    EXPECT_EQ(a.count(), ref.count());
    EXPECT_DOUBLE_EQ(a.sum(), ref.sum());
    EXPECT_DOUBLE_EQ(a.minSample(), 1.0);
    EXPECT_DOUBLE_EQ(a.maxSample(), 10000.0);
    // Merged quantiles equal the pooled single-stream quantiles exactly
    // (same binning grid => identical bin counts).
    EXPECT_DOUBLE_EQ(a.quantile(0.5), ref.quantile(0.5));
    EXPECT_DOUBLE_EQ(a.quantile(0.99), ref.quantile(0.99));
}

TEST(Histogram, MergeIntoEmptyAndFromEmpty)
{
    Histogram a(1.0, 1e6, 32), b(1.0, 1e6, 32);
    b.record(7.0);
    ASSERT_TRUE(a.merge(b));
    EXPECT_EQ(a.count(), 1u);
    EXPECT_DOUBLE_EQ(a.minSample(), 7.0);
    Histogram empty(1.0, 1e6, 32);
    ASSERT_TRUE(a.merge(empty));
    EXPECT_EQ(a.count(), 1u);
}

TEST(Histogram, MergeBothEmptyStaysEmpty)
{
    Histogram a(1.0, 1e6, 32), b(1.0, 1e6, 32);
    ASSERT_TRUE(a.merge(b));
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.sum(), 0.0);
    EXPECT_DOUBLE_EQ(a.quantile(0.5), 0.0);
    // Still usable afterwards.
    a.record(3.0);
    EXPECT_DOUBLE_EQ(a.minSample(), 3.0);
    EXPECT_DOUBLE_EQ(a.maxSample(), 3.0);
}

TEST(Histogram, QuantileOfIdenticalSamplesIsExact)
{
    // All mass in one bin: interpolation must clamp to the recorded
    // value, not report the bin's geometric interior.
    Histogram h(1.0, 1e6, 32);
    for (int i = 0; i < 1000; ++i)
        h.record(77.0);
    for (double q : {0.01, 0.25, 0.5, 0.75, 0.99})
        EXPECT_DOUBLE_EQ(h.quantile(q), 77.0) << q;
}

TEST(Histogram, QuantileAtBucketBoundaries)
{
    // Two samples in distinct bins: any interior quantile interpolates
    // within a matched bin and must stay inside [min, max] and on the
    // correct side of the bin split.
    Histogram h(1.0, 1e6, 8);
    h.record(10.0);
    h.record(1000.0);
    const double p25 = h.quantile(0.25);
    const double p75 = h.quantile(0.75);
    EXPECT_GE(p25, 10.0);
    EXPECT_LT(p25, 1000.0);
    EXPECT_GT(p75, 10.0);
    EXPECT_LE(p75, 1000.0);
    EXPECT_LE(p25, p75);
    // The cumulative boundary between the two samples: q just below
    // 0.5 resolves inside the first sample's bin (10 lives in
    // [10, 10^(9/8)) on this grid), just above inside the second's
    // ([1000, 10^(25/8))).
    EXPECT_LT(h.quantile(0.49), std::pow(10.0, 9.0 / 8.0));
    EXPECT_GE(h.quantile(0.51), 1000.0);
}

TEST(Histogram, ToCsvEmptyIsHeaderOnly)
{
    Histogram h(1.0, 1e6, 32);
    EXPECT_EQ(h.toCsv(), "bin_lower,bin_upper,count\n");
}

TEST(Histogram, ToCsvRoundTripPreservesBinContents)
{
    Histogram h(1.0, 1e4, 16);
    h.record(0.5);  // underflow
    h.record(5e6);  // overflow
    for (int i = 1; i <= 2000; ++i)
        h.record(static_cast<double>(i % 997) + 1.0);

    // Re-record every CSV row's geometric midpoint with its count into
    // a second histogram with identical binning (the midpoint is
    // robust against the lower edge rounding into the previous bin):
    // bin contents — and therefore counts and bin-resolution
    // quantiles — must survive.
    Histogram back(1.0, 1e4, 16);
    std::istringstream in(h.toCsv());
    std::string line;
    ASSERT_TRUE(std::getline(in, line)); // header
    EXPECT_EQ(line, "bin_lower,bin_upper,count");
    while (std::getline(in, line)) {
        double lo = 0, hi = 0;
        unsigned long long cnt = 0;
        ASSERT_EQ(std::sscanf(line.c_str(), "%lf,%lf,%llu", &lo, &hi,
                              &cnt),
                  3)
            << line;
        EXPECT_LE(lo, hi);
        back.record(lo > 0 ? std::sqrt(lo * hi) : 0.0, cnt);
    }
    ASSERT_EQ(back.count(), h.count());
    for (std::size_t i = 0; i < h.numBins(); ++i)
        EXPECT_EQ(back.binCount(i), h.binCount(i)) << i;
    // Quantiles agree to within the interpolation inside one bin.
    for (double q : {0.5, 0.95, 0.99})
        EXPECT_NEAR(back.quantile(q), h.quantile(q),
                    h.quantile(q) * 0.16)
            << q;
}

TEST(Histogram, ToCsvOverflowRowUsesMaxSampleAsUpperEdge)
{
    Histogram h(1.0, 100.0, 8);
    h.record(5000.0);
    const std::string csv = h.toCsv();
    double lo = 0, hi = 0;
    unsigned long long cnt = 0;
    ASSERT_EQ(std::sscanf(csv.c_str(), "bin_lower,bin_upper,count\n"
                                       "%lf,%lf,%llu",
                          &lo, &hi, &cnt),
              3);
    EXPECT_DOUBLE_EQ(hi, 5000.0);
    EXPECT_EQ(cnt, 1u);
}

TEST(Histogram, NanSamplesAreRejectedAndCounted)
{
    Histogram h(1.0, 1e6, 32);
    h.record(10.0);
    h.record(std::nan(""));
    h.record(std::numeric_limits<double>::quiet_NaN(), 3);
    h.record(20.0);
    // NaNs poison nothing: count/sum/min/max/quantiles see only the
    // two real samples.
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.nanCount(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 30.0);
    EXPECT_DOUBLE_EQ(h.minSample(), 10.0);
    EXPECT_DOUBLE_EQ(h.maxSample(), 20.0);
    EXPECT_EQ(h.binCount(0), 0u); // not silently bucketed as underflow
    // toCsv reports them in a trailing marker row.
    const std::string csv = h.toCsv();
    EXPECT_NE(csv.find("nan,nan,4\n"), std::string::npos) << csv;
}

TEST(Histogram, InfiniteSamplesAreRejectedAndCounted)
{
    // ±inf passes an isnan check but poisons sum/mean/min/max just the
    // same (one +inf makes mean() inf forever; +inf after -inf makes
    // sum_ NaN); record() rejects all non-finite samples.
    Histogram h(1.0, 1e6, 32);
    h.record(10.0);
    h.record(std::numeric_limits<double>::infinity());
    h.record(-std::numeric_limits<double>::infinity(), 2);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.nanCount(), 3u);
    EXPECT_DOUBLE_EQ(h.sum(), 10.0);
    EXPECT_DOUBLE_EQ(h.minSample(), 10.0);
    EXPECT_DOUBLE_EQ(h.maxSample(), 10.0);
    const std::string csv = h.toCsv();
    EXPECT_NE(csv.find("nan,nan,3\n"), std::string::npos) << csv;
}

TEST(Histogram, NanCountSurvivesMergeAndClear)
{
    Histogram a(1.0, 1e6, 32), b(1.0, 1e6, 32);
    a.record(std::nan(""));
    b.record(std::nan(""), 2);
    b.record(5.0);
    ASSERT_TRUE(a.merge(b));
    EXPECT_EQ(a.nanCount(), 3u);
    EXPECT_EQ(a.count(), 1u);
    // An all-NaN right-hand side still folds its rejection count.
    Histogram c(1.0, 1e6, 32);
    c.record(std::nan(""));
    ASSERT_TRUE(a.merge(c));
    EXPECT_EQ(a.nanCount(), 4u);
    a.clear();
    EXPECT_EQ(a.nanCount(), 0u);
    EXPECT_EQ(a.toCsv(), "bin_lower,bin_upper,count\n");
}

TEST(Histogram, MergeRejectsBinningMismatch)
{
    Histogram a(1.0, 1e6, 32), b(1.0, 1e6, 64), c(0.1, 1e6, 32);
    b.record(5.0);
    EXPECT_FALSE(a.merge(b));
    EXPECT_FALSE(a.merge(c));
    EXPECT_EQ(a.count(), 0u);
}

TEST(Summary, Empty)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Summary, MeanMinMax)
{
    Summary s;
    s.record(2.0);
    s.record(4.0);
    s.record(9.0);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 15.0);
}

TEST(Summary, VarianceMatchesClosedForm)
{
    Summary s;
    for (double v : {1.0, 2.0, 3.0, 4.0, 5.0})
        s.record(v);
    EXPECT_NEAR(s.variance(), 2.0, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(2.0), 1e-12);
}

TEST(Summary, ClearResets)
{
    Summary s;
    s.record(7.0);
    s.clear();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(Summary, MergeMatchesSingleStream)
{
    Summary a, b, ref;
    for (int i = 0; i < 100; ++i) {
        const double v = std::sin(i * 0.1) * 10.0 + 20.0;
        (i < 40 ? a : b).record(v);
        ref.record(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), ref.count());
    EXPECT_NEAR(a.mean(), ref.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), ref.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), ref.min());
    EXPECT_DOUBLE_EQ(a.max(), ref.max());
    EXPECT_NEAR(a.sum(), ref.sum(), 1e-9);
}

TEST(Summary, MergeWithEmptySides)
{
    Summary a, b;
    b.record(3.0);
    b.record(5.0);
    a.merge(b); // empty <- full
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    Summary empty;
    a.merge(empty); // full <- empty
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
}

TEST(Summary, MergeBothEmptyStaysEmptyAndUsable)
{
    Summary a, b;
    a.merge(b);
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.variance(), 0.0);
    a.record(9.0);
    EXPECT_DOUBLE_EQ(a.mean(), 9.0);
    EXPECT_DOUBLE_EQ(a.min(), 9.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
}

TEST(Residency, AccumulatesTimePerState)
{
    ResidencyCounter<3> r(0, 0);
    r.transitionTo(1, 100);
    r.transitionTo(2, 250);
    r.transitionTo(0, 400);
    EXPECT_EQ(r.timeIn(0, 500), 100 + 100);
    EXPECT_EQ(r.timeIn(1, 500), 150);
    EXPECT_EQ(r.timeIn(2, 500), 150);
}

TEST(Residency, FractionsSumToOne)
{
    ResidencyCounter<3> r(0, 0);
    r.transitionTo(1, 123);
    r.transitionTo(2, 457);
    const sim::Tick now = 1000;
    const double total = r.residency(0, now) + r.residency(1, now) +
        r.residency(2, now);
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Residency, SelfTransitionIsNoop)
{
    ResidencyCounter<2> r(0, 0);
    r.transitionTo(0, 50);
    EXPECT_EQ(r.enterCount(0), 0u);
    EXPECT_EQ(r.timeIn(0, 100), 100);
}

TEST(Residency, EnterCounts)
{
    ResidencyCounter<2> r(0, 0);
    r.transitionTo(1, 10);
    r.transitionTo(0, 20);
    r.transitionTo(1, 30);
    EXPECT_EQ(r.enterCount(1), 2u);
    EXPECT_EQ(r.enterCount(0), 1u);
}

TEST(Residency, ResetKeepsCurrentState)
{
    ResidencyCounter<2> r(0, 0);
    r.transitionTo(1, 100);
    r.reset(200);
    EXPECT_EQ(r.state(), 1u);
    EXPECT_EQ(r.timeIn(1, 300), 100);
    EXPECT_EQ(r.timeIn(0, 300), 0);
    EXPECT_DOUBLE_EQ(r.residency(1, 300), 1.0);
}

TEST(Residency, ZeroWindowIsZero)
{
    ResidencyCounter<2> r(0, 100);
    EXPECT_DOUBLE_EQ(r.residency(0, 100), 0.0);
}

TEST(Rank, ExactRankCountMatchesCeiling)
{
    EXPECT_EQ(exactRankCount(100, 1, 2), 50u);
    EXPECT_EQ(exactRankCount(100, 19, 20), 95u);
    EXPECT_EQ(exactRankCount(100, 99, 100), 99u);
    // ceil(100 * 0.999) = 100: p999 of 100 samples is the maximum.
    EXPECT_EQ(exactRankCount(100, 999, 1000), 100u);
    EXPECT_EQ(exactRankCount(10000, 999, 1000), 9990u);
    // Any nonzero quantile of one sample is that sample.
    EXPECT_EQ(exactRankCount(1, 1, 2), 1u);
    EXPECT_EQ(exactRankCount(0, 1, 2), 0u);
}

TEST(Rank, BandEdgesPartitionEveryPopulation)
{
    for (std::size_t n : {0u, 1u, 2u, 99u, 100u, 1000u, 12345u}) {
        const auto edges = percentileBandEdges(n);
        EXPECT_EQ(edges.front(), 0u) << n;
        EXPECT_EQ(edges.back(), n) << n;
        for (std::size_t b = 0; b + 1 < edges.size(); ++b)
            EXPECT_LE(edges[b], edges[b + 1]) << n << " band " << b;
    }
    const auto e = percentileBandEdges(100000);
    EXPECT_EQ(e[1], 50000u);
    EXPECT_EQ(e[2], 95000u);
    EXPECT_EQ(e[3], 99000u);
    EXPECT_EQ(e[4], 99900u);
}

TEST(Rank, BandLabelsAreStable)
{
    ASSERT_EQ(kNumPercentileBands, 5u);
    EXPECT_STREQ(percentileBandLabel(0), "p50");
    EXPECT_STREQ(percentileBandLabel(1), "p95");
    EXPECT_STREQ(percentileBandLabel(2), "p99");
    EXPECT_STREQ(percentileBandLabel(3), "p999");
    EXPECT_STREQ(percentileBandLabel(4), "p100");
}

TEST(Rank, QuantileSortedPicksExactRanks)
{
    std::vector<int> v(1000);
    for (int i = 0; i < 1000; ++i)
        v[static_cast<std::size_t>(i)] = i + 1; // 1..1000, sorted
    EXPECT_EQ(quantileSorted(v, 1, 2), 500);
    EXPECT_EQ(quantileSorted(v, 99, 100), 990);
    EXPECT_EQ(quantileSorted(v, 999, 1000), 999);
    EXPECT_EQ(quantileSorted(v, 1, 1), 1000); // p100 = max
    EXPECT_EQ(quantileSorted(v, 0, 1), 1);    // p0 clamps to min
    EXPECT_EQ(quantileSorted(std::vector<int>{}, 1, 2), 0);
    EXPECT_DOUBLE_EQ(quantileSorted(std::vector<double>{7.5}, 99, 100),
                     7.5);
}

/** quantileSortedRuns over @p runs (each sorted here) against
 *  quantileSorted of their sorted concatenation. */
template <typename T>
void
expectRunsMatchConcatenation(std::vector<std::vector<T>> runs,
                             std::uint64_t num, std::uint64_t den)
{
    std::vector<T> all;
    std::vector<SortedRun<T>> heap;
    for (std::vector<T> &r : runs) {
        std::sort(r.begin(), r.end());
        all.insert(all.end(), r.begin(), r.end());
        heap.push_back({r.data(), r.data() + r.size()});
    }
    std::sort(all.begin(), all.end());
    EXPECT_EQ(quantileSortedRuns(heap, num, den),
              quantileSorted(all, num, den))
        << all.size() << " samples in " << runs.size() << " runs, p"
        << num << "/" << den;
}

TEST(Rank, SortedRunsMatchSortedConcatenation)
{
    std::mt19937_64 rng(20221018);
    std::uniform_real_distribution<double> lat(1.0, 5000.0);
    std::uniform_int_distribution<int> small(0, 7);
    const std::uint64_t quantiles[][2] = {
        {99, 100}, {1, 2}, {19, 20}, {999, 1000}, {1, 1}, {0, 1}};
    for (int trial = 0; trial < 100; ++trial) {
        const std::size_t nruns = 1 + rng() % 60;
        std::vector<std::vector<double>> runs(nruns);
        std::vector<std::vector<int>> int_runs(nruns);
        for (std::size_t r = 0; r < nruns; ++r) {
            // Some runs empty, the rest up to ~400 samples; the int
            // runs draw from 8 values, so ties dominate.
            const std::size_t len = rng() % 4 == 0 ? 0 : rng() % 400;
            for (std::size_t i = 0; i < len; ++i) {
                runs[r].push_back(lat(rng));
                int_runs[r].push_back(small(rng));
            }
        }
        for (const auto &q : quantiles) {
            expectRunsMatchConcatenation(runs, q[0], q[1]);
            expectRunsMatchConcatenation(int_runs, q[0], q[1]);
        }
    }
}

TEST(Rank, SortedRunsEdgeCases)
{
    using Runs = std::vector<std::vector<double>>;
    // No runs, and only empty runs: T{} like quantileSorted.
    std::vector<SortedRun<double>> none;
    EXPECT_EQ(quantileSortedRuns(none, 99, 100), 0.0);
    expectRunsMatchConcatenation(Runs{{}, {}, {}}, 99, 100);
    // A single sample, alone or among empty runs, is every quantile.
    for (const auto &q : {std::array<std::uint64_t, 2>{99, 100},
                          std::array<std::uint64_t, 2>{0, 1},
                          std::array<std::uint64_t, 2>{1, 1}}) {
        expectRunsMatchConcatenation(Runs{{7.5}}, q[0], q[1]);
        expectRunsMatchConcatenation(Runs{{}, {7.5}, {}}, q[0], q[1]);
    }
    // All-equal values across runs.
    expectRunsMatchConcatenation(Runs{{3.0, 3.0}, {3.0}, {3.0, 3.0, 3.0}},
                                 99, 100);
    // ceil(0.99 n) == n for every n < 100: p99 is the maximum.
    for (std::size_t n = 1; n < 100; ++n) {
        ASSERT_EQ(exactRankCount(n, 99, 100), n);
        Runs runs(3);
        for (std::size_t i = 0; i < n; ++i)
            runs[i % 3].push_back(static_cast<double>((i * 37) % 101));
        expectRunsMatchConcatenation(runs, 99, 100);
    }
    // p0 clamps to the minimum, wherever it sits.
    std::vector<std::vector<double>> spread = {{5.0, 9.0}, {2.0, 8.0},
                                               {4.0}};
    std::vector<SortedRun<double>> heap;
    for (const auto &r : spread)
        heap.push_back({r.data(), r.data() + r.size()});
    EXPECT_EQ(quantileSortedRuns(heap, 0, 1), 2.0);
    expectRunsMatchConcatenation(spread, 0, 1);
}

} // namespace
} // namespace apc::stats
