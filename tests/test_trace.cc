/**
 * @file
 * Tests for the tracing module (analysis/trace.h) and trace-replayed
 * arrivals (workload/trace_arrivals.h).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "analysis/trace.h"
#include "workload/trace_arrivals.h"

namespace apc {
namespace {

using sim::kMs;
using sim::kNs;
using sim::kUs;

TEST(TraceRecorder, RecordsPc1aChoreography)
{
    sim::Simulation s;
    auto cfg = soc::SkxConfig::forPolicy(soc::PackagePolicy::Cpc1a);
    soc::Soc soc(s, cfg, soc::PackagePolicy::Cpc1a);
    analysis::TraceRecorder trace(soc);

    for (std::size_t i = 0; i < soc.numCores(); ++i)
        soc.core(i).release();
    s.runUntil(10 * kUs);
    // Entry: InCC1 up, InL0s up, Allow_CKE_OFF up, InPC1A up.
    EXPECT_EQ(trace.count("wire", "InCC1=1"), 1u);
    EXPECT_EQ(trace.count("wire", "InL0s=1"), 1u);
    EXPECT_EQ(trace.count("wire", "InPC1A=1"), 1u);
    EXPECT_EQ(trace.count("wire", "mc0.Allow_CKE_OFF=1"), 1u);
    EXPECT_GE(trace.count("pkg", "PC1A"), 1u);

    // Wake via NIC: the down-edges and the PwrOk handshake appear.
    soc.nic().transfer(100 * kNs, nullptr);
    s.runUntil(12 * kUs);
    EXPECT_EQ(trace.count("wire", "InPC1A=0"), 1u);
    EXPECT_GE(trace.count("wire", "PwrOk=1"), 1u);

    // Events are time-ordered.
    for (std::size_t i = 1; i < trace.events().size(); ++i)
        EXPECT_LE(trace.events()[i - 1].when, trace.events()[i].when);

    // Package rows mark changes only: no state follows itself.
    obs::StrId last = obs::kNoStr;
    for (const analysis::TraceEvent &e : trace.events()) {
        if (trace.str(e.kind) != "pkg")
            continue;
        EXPECT_NE(e.detail, last) << trace.str(e.detail) << " repeated";
        last = e.detail;
    }
}

TEST(TraceRecorder, CsvRoundTrip)
{
    sim::Simulation s;
    auto cfg = soc::SkxConfig::forPolicy(soc::PackagePolicy::Cpc1a);
    soc::Soc soc(s, cfg, soc::PackagePolicy::Cpc1a);
    analysis::TraceRecorder trace(soc);
    for (std::size_t i = 0; i < soc.numCores(); ++i)
        soc.core(i).release();
    s.runUntil(10 * kUs);

    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *f = open_memstream(&buf, &len);
    trace.writeCsv(f);
    std::fclose(f);
    std::string out(buf, len);
    free(buf);
    EXPECT_NE(out.find("time_us,kind,detail"), std::string::npos);
    EXPECT_NE(out.find("InPC1A=1"), std::string::npos);
    // One line per event plus the header.
    const auto lines = std::count(out.begin(), out.end(), '\n');
    EXPECT_EQ(static_cast<std::size_t>(lines),
              trace.events().size() + 1);
}

TEST(TraceRecorder, BoundedCapacityDropsOldestAndCounts)
{
    sim::Simulation s;
    auto cfg = soc::SkxConfig::forPolicy(soc::PackagePolicy::Cpc1a);
    soc::Soc soc(s, cfg, soc::PackagePolicy::Cpc1a);
    analysis::TraceRecorder trace(soc, false, 8); // tiny ring
    for (std::size_t i = 0; i < soc.numCores(); ++i)
        soc.core(i).release();
    // Repeated sleep/wake cycles overflow an 8-record ring.
    for (int i = 0; i < 6; ++i) {
        s.runUntil(s.now() + 10 * kUs);
        soc.nic().transfer(100 * kNs, nullptr);
    }
    s.runUntil(s.now() + 10 * kUs);
    EXPECT_EQ(trace.size(), 8u);
    EXPECT_GT(trace.droppedEvents(), 0u);
    // The surviving window is still time-ordered.
    const auto evs = trace.events();
    for (std::size_t i = 1; i < evs.size(); ++i)
        EXPECT_LE(evs[i - 1].when, evs[i].when);
}

TEST(TraceRecorder, WriteCsvReportsIoFailure)
{
    sim::Simulation s;
    auto cfg = soc::SkxConfig::forPolicy(soc::PackagePolicy::Cpc1a);
    soc::Soc soc(s, cfg, soc::PackagePolicy::Cpc1a);
    analysis::TraceRecorder trace(soc);
    for (std::size_t i = 0; i < soc.numCores(); ++i)
        soc.core(i).release();
    s.runUntil(10 * kUs);
    EXPECT_FALSE(trace.writeCsv("/nonexistent/dir/trace.csv"));
    const std::string path = "/tmp/apc_test_trace_csv.csv";
    EXPECT_TRUE(trace.writeCsv(path));
    std::remove(path.c_str());
}

TEST(TraceRecorder, PerCoreTracingOptIn)
{
    sim::Simulation s;
    auto cfg = soc::SkxConfig::forPolicy(soc::PackagePolicy::Cpc1a);
    soc::Soc soc(s, cfg, soc::PackagePolicy::Cpc1a);
    analysis::TraceRecorder quiet(soc, false);
    analysis::TraceRecorder verbose(soc, true);
    for (std::size_t i = 0; i < soc.numCores(); ++i)
        soc.core(i).release();
    s.runUntil(10 * kUs);
    EXPECT_EQ(quiet.countKind("core"), 0u);
    EXPECT_EQ(verbose.countKind("core"), soc.numCores());
}

TEST(TraceArrivals, ReplaysGapsExactly)
{
    sim::Rng rng(1);
    workload::TraceArrivals t({10 * kUs, 25 * kUs, 100 * kUs}, false);
    EXPECT_EQ(t.nextGap(rng), 10 * kUs);
    EXPECT_EQ(t.nextGap(rng), 15 * kUs);
    EXPECT_EQ(t.nextGap(rng), 75 * kUs);
    EXPECT_EQ(t.nextGap(rng), sim::kTickNever);
    EXPECT_TRUE(t.exhausted());
}

TEST(TraceArrivals, LoopsWithPeriod)
{
    sim::Rng rng(1);
    workload::TraceArrivals t({10 * kUs, 30 * kUs}, true);
    EXPECT_EQ(t.nextGap(rng), 10 * kUs);
    EXPECT_EQ(t.nextGap(rng), 20 * kUs);
    // Wraps: replays from zero again.
    EXPECT_EQ(t.nextGap(rng), 10 * kUs);
    EXPECT_EQ(t.nextGap(rng), 20 * kUs);
    EXPECT_FALSE(t.exhausted());
}

TEST(TraceArrivals, RateFromTrace)
{
    workload::TraceArrivals t(
        {100 * kUs, 200 * kUs, 300 * kUs, 400 * kUs, 1 * kMs}, true);
    EXPECT_NEAR(t.ratePerSec(), 5 / 1e-3, 1e-6);
}

TEST(TraceArrivals, SynthesizeMatchesSourceRate)
{
    sim::Rng rng(7);
    workload::PoissonArrivals p(50000.0);
    const auto trace =
        workload::TraceArrivals::synthesize(p, rng, 1 * sim::kSec);
    EXPECT_NEAR(static_cast<double>(trace.size()), 50000.0, 1500.0);
    for (std::size_t i = 1; i < trace.size(); ++i)
        EXPECT_GE(trace[i], trace[i - 1]);
}

TEST(TraceArrivals, FileRoundTrip)
{
    const std::string path = "/tmp/apc_test_trace.txt";
    const std::vector<sim::Tick> arrivals = {1 * kUs, 500 * kUs, 2 * kMs};
    ASSERT_TRUE(workload::TraceArrivals::toFile(path, arrivals));
    auto t = workload::TraceArrivals::fromFile(path, false);
    ASSERT_EQ(t.size(), 3u);
    sim::Rng rng(1);
    EXPECT_EQ(t.nextGap(rng), 1 * kUs);
    EXPECT_EQ(t.nextGap(rng), 499 * kUs);
    EXPECT_EQ(t.nextGap(rng), 1500 * kUs);
    std::remove(path.c_str());
}

TEST(TraceArrivals, MissingFileYieldsEmptyTrace)
{
    auto t = workload::TraceArrivals::fromFile(
        "/nonexistent/apc_trace.txt");
    EXPECT_EQ(t.size(), 0u);
    sim::Rng rng(1);
    EXPECT_EQ(t.nextGap(rng), sim::kTickNever);
}

} // namespace
} // namespace apc
