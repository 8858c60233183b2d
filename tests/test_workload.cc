/**
 * @file
 * Unit tests for the workload generators (workload/).
 */

#include <gtest/gtest.h>

#include "workload/cdf_table.h"
#include "workload/workload.h"

namespace apc::workload {
namespace {

using sim::kUs;

double
measuredRate(ArrivalProcess &p, sim::Rng &rng, int n = 200000)
{
    sim::Tick total = 0;
    for (int i = 0; i < n; ++i)
        total += p.nextGap(rng);
    return n / sim::toSeconds(total);
}

TEST(Arrivals, PoissonRateConverges)
{
    sim::Rng rng(1);
    PoissonArrivals p(50000.0);
    EXPECT_NEAR(measuredRate(p, rng), 50000.0, 1000.0);
    EXPECT_DOUBLE_EQ(p.ratePerSec(), 50000.0);
}

TEST(Arrivals, DeterministicIsExact)
{
    sim::Rng rng(1);
    DeterministicArrivals d(100 * kUs);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(d.nextGap(rng), 100 * kUs);
    EXPECT_NEAR(d.ratePerSec(), 10000.0, 1e-6);
}

TEST(Arrivals, MmppLongRunRateMatchesQps)
{
    sim::Rng rng(2);
    MmppArrivals m(20000.0, 3.0, 200 * kUs);
    EXPECT_NEAR(measuredRate(m, rng), 20000.0, 800.0);
}

TEST(Arrivals, MmppWithBurstinessOneIsPoisson)
{
    sim::Rng rng(3);
    MmppArrivals m(10000.0, 1.0, 200 * kUs);
    EXPECT_NEAR(measuredRate(m, rng), 10000.0, 400.0);
}

TEST(Arrivals, MmppIsBurstier)
{
    // Squared coefficient of variation of gaps must exceed Poisson's 1.
    sim::Rng rng(4);
    MmppArrivals m(10000.0, 4.0, 200 * kUs);
    double sum = 0, sum2 = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double g = sim::toSeconds(m.nextGap(rng));
        sum += g;
        sum2 += g * g;
    }
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_GT(var / (mean * mean), 1.5);
}

TEST(Arrivals, SameSeedSameGapSequence)
{
    sim::Rng a(7), b(7);
    PoissonArrivals pa(30000.0), pb(30000.0);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(pa.nextGap(a), pb.nextGap(b));
    sim::Rng c(9), d(9);
    MmppArrivals ma(30000.0, 3.0, 200 * kUs), mb(30000.0, 3.0, 200 * kUs);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(ma.nextGap(c), mb.nextGap(d));
}

TEST(CdfTable, LoadsPercentTableAndNormalizes)
{
    // TrafficGenerator-style percent table (web-search-like shape).
    const auto t = CdfTable::fromString("# size_KB cdf%\n"
                                        "1 0\n"
                                        "10 50\n"
                                        "100 90\n"
                                        "1000 100\n");
    ASSERT_TRUE(t.valid());
    EXPECT_EQ(t.size(), 4u);
    EXPECT_DOUBLE_EQ(t.points().back().cdf, 1.0);
    EXPECT_DOUBLE_EQ(t.points().back().value, 1000.0);
}

TEST(CdfTable, SamplingReproducesTableMean)
{
    const auto t = CdfTable::fromString("1 0\n"
                                        "10 50\n"
                                        "100 90\n"
                                        "1000 100\n");
    ASSERT_TRUE(t.valid());
    sim::Rng rng(11);
    double total = 0;
    const int n = 400000;
    for (int i = 0; i < n; ++i) {
        const double v = t.sample(rng);
        ASSERT_GE(v, 0.0);
        ASSERT_LE(v, 1000.0);
        total += v;
    }
    // Sample mean within 2% of the piecewise-linear mean: each segment
    // carries its probability uniformly, so 0.5*5.5 + 0.4*55 + 0.1*550.
    const double mean = 79.75;
    EXPECT_NEAR(total / n, mean, 0.02 * mean);
}

TEST(CdfTable, PointMassStep)
{
    // All mass at exactly 42.
    const CdfTable t({{42, 1}});
    sim::Rng rng(1);
    double total = 0;
    for (int i = 0; i < 1000; ++i)
        total += t.sample(rng);
    // Leading segment interpolates from 0 per TrafficGenerator; mean
    // is 21 for a single-point table.
    EXPECT_NEAR(total / 1000, 21.0, 0.05 * 21.0);
}

TEST(CdfTable, RejectsMalformedTables)
{
    EXPECT_FALSE(CdfTable::fromString("").valid());
    EXPECT_FALSE(CdfTable::fromString("10 50\n5 100\n").valid()); // desc v
    EXPECT_FALSE(CdfTable::fromString("1 60\n2 40\n").valid());   // desc cdf
    EXPECT_FALSE(CdfTable::fromString("1 0\n2 0\n").valid());     // no mass
    EXPECT_FALSE(CdfTable::fromFile("/nonexistent/cdf.txt").valid());
}

TEST(Service, FixedAndMean)
{
    sim::Rng rng(1);
    FixedService f(10 * kUs);
    EXPECT_EQ(f.sample(rng), 10 * kUs);
    EXPECT_EQ(f.mean(), 10 * kUs);
}

TEST(Service, LognormalMeanConverges)
{
    sim::Rng rng(5);
    LognormalService l(20 * kUs, 0.5);
    double total = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        total += sim::toMicros(l.sample(rng));
    EXPECT_NEAR(total / n, 20.0, 0.5);
}

TEST(Service, BimodalMeanAndModes)
{
    sim::Rng rng(6);
    BimodalService b(10 * kUs, 60 * kUs, 0.03);
    EXPECT_NEAR(sim::toMicros(b.mean()), 11.5, 0.01);
    double total = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        total += sim::toMicros(b.sample(rng));
    EXPECT_NEAR(total / n, 11.5, 0.5);
}

TEST(Workload, PresetsBuild)
{
    const auto mc = WorkloadConfig::memcachedEtc(50000);
    EXPECT_EQ(mc.name, "memcached-etc");
    EXPECT_DOUBLE_EQ(mc.qps, 50000.0);
    EXPECT_NE(mc.makeArrivals(), nullptr);
    EXPECT_NE(mc.makeService(), nullptr);

    const auto my = WorkloadConfig::mysqlOltp(800);
    EXPECT_EQ(my.serviceMean, 1 * sim::kMs);

    const auto kf = WorkloadConfig::kafka(8000);
    EXPECT_EQ(kf.serviceMean, 100 * kUs);
}

TEST(Workload, QpsForUtilizationRoundTrips)
{
    const auto my = WorkloadConfig::mysqlOltp(0);
    // 1 ms service + avg(30,10)/2=20 µs wake on 10 cores: 8% => ~784.
    const double qps = my.qpsForUtilization(0.08, 10);
    EXPECT_NEAR(qps, 0.08 * 10 / 1.02e-3, 1.0);
}

TEST(Workload, MemcachedServiceIsMicrosecondScale)
{
    const auto mc = WorkloadConfig::memcachedEtc(10000);
    EXPECT_GE(mc.meanServiceTicks(), 5 * kUs);
    EXPECT_LE(mc.meanServiceTicks(), 30 * kUs);
}

} // namespace
} // namespace apc::workload
