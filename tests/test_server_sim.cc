/**
 * @file
 * Integration tests: the full server simulation (server/server_sim.h)
 * across the paper's three system configurations.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/paper_reference.h"
#include "obs/tracer.h"
#include "server/server_sim.h"

namespace apc::server {
namespace {

using sim::kMs;
using sim::kUs;

ServerResult
runMemcached(soc::PackagePolicy policy, double qps,
             sim::Tick duration = 300 * kMs, std::uint64_t seed = 42)
{
    ServerConfig cfg;
    cfg.policy = policy;
    cfg.workload = workload::WorkloadConfig::memcachedEtc(qps);
    cfg.duration = duration;
    cfg.seed = seed;
    ServerSim sim(std::move(cfg));
    return sim.run();
}

TEST(ServerSim, ProcessesApproximatelyQpsRequests)
{
    const auto r = runMemcached(soc::PackagePolicy::Cshallow, 20000);
    EXPECT_NEAR(r.achievedQps, 20000.0, 1500.0);
}

TEST(ServerSim, LatencyDominatedByNetwork)
{
    const auto r = runMemcached(soc::PackagePolicy::Cshallow, 20000);
    // >= network 117 µs + CC1 wake + service; well under 1 ms at 20K.
    EXPECT_GE(r.avgLatencyUs, 117.0);
    EXPECT_LE(r.avgLatencyUs, 400.0);
    EXPECT_GE(r.p99LatencyUs, r.p50LatencyUs);
}

TEST(ServerSim, ShallowIdlePowerMatchesTable1)
{
    ServerConfig cfg;
    cfg.policy = soc::PackagePolicy::Cshallow;
    cfg.workload = workload::WorkloadConfig::memcachedEtc(0); // idle
    cfg.duration = 100 * kMs;
    ServerSim sim(std::move(cfg));
    const auto r = sim.run();
    // All cores in CC1 nearly all the time: ~44 + 5.5 W (the 10 Hz-ish
    // housekeeping tick adds a whisker).
    EXPECT_NEAR(r.pkgPowerW, 44.0, 1.0);
    EXPECT_NEAR(r.dramPowerW, 5.5, 0.2);
    EXPECT_GT(r.allIdleFraction, 0.95);
}

TEST(ServerSim, Pc1aIdleSavingsAround41Percent)
{
    auto run_idle = [](soc::PackagePolicy p) {
        ServerConfig cfg;
        cfg.policy = p;
        cfg.workload = workload::WorkloadConfig::memcachedEtc(0);
        cfg.duration = 100 * kMs;
        ServerSim sim(std::move(cfg));
        return sim.run();
    };
    const auto base = run_idle(soc::PackagePolicy::Cshallow);
    const auto apc = run_idle(soc::PackagePolicy::Cpc1a);
    const double savings =
        1.0 - apc.totalPowerW() / base.totalPowerW();
    // Paper: ~41% idle power reduction (Sec. 2 / Fig. 7a).
    EXPECT_NEAR(savings, analysis::paper::kIdleSavings, 0.04);
    EXPECT_GT(apc.pc1aResidency(), 0.95);
}

TEST(ServerSim, Pc1aSavesPowerUnderLoad)
{
    const auto base = runMemcached(soc::PackagePolicy::Cshallow, 20000);
    const auto apc = runMemcached(soc::PackagePolicy::Cpc1a, 20000);
    EXPECT_LT(apc.totalPowerW(), base.totalPowerW());
    EXPECT_GT(apc.pc1aEntries, 100u);
    EXPECT_GT(apc.pc1aResidency(), 0.05);
}

TEST(ServerSim, Pc1aLatencyImpactBelowTenthPercent)
{
    const auto base = runMemcached(soc::PackagePolicy::Cshallow, 20000);
    const auto apc = runMemcached(soc::PackagePolicy::Cpc1a, 20000);
    const double impact =
        (apc.avgLatencyUs - base.avgLatencyUs) / base.avgLatencyUs;
    // Paper Fig. 7c: < 0.1% (we allow sampling noise around zero).
    EXPECT_LT(impact, 0.003);
}

TEST(ServerSim, ApmuLatenciesWithinPaperBounds)
{
    const auto apc = runMemcached(soc::PackagePolicy::Cpc1a, 20000);
    EXPECT_GT(apc.pc1aEntries, 0u);
    EXPECT_LE(apc.apmuEntryNsMax, 30.0);
    EXPECT_LE(apc.apmuExitNsMax, 170.0);
    EXPECT_LE(apc.apmuEntryNsMax + apc.apmuExitNsMax,
              analysis::paper::kPc1aTotalNs);
}

TEST(ServerSim, CdeepHurtsLatencyAtLowLoad)
{
    const auto shallow = runMemcached(soc::PackagePolicy::Cshallow, 8000,
                                      200 * kMs);
    const auto deep = runMemcached(soc::PackagePolicy::Cdeep, 8000,
                                   200 * kMs);
    // Fig. 5: Cdeep pays CC6 (and PC6) wake latency on most requests.
    EXPECT_GT(deep.avgLatencyUs, shallow.avgLatencyUs * 1.3);
    EXPECT_GT(deep.p99LatencyUs, shallow.p99LatencyUs);
}

TEST(ServerSim, CdeepSavesIdlePower)
{
    ServerConfig cfg;
    cfg.policy = soc::PackagePolicy::Cdeep;
    cfg.workload = workload::WorkloadConfig::memcachedEtc(0);
    cfg.workload.noise.enabled = false; // let it sink fully
    cfg.duration = 100 * kMs;
    ServerSim sim(std::move(cfg));
    const auto r = sim.run();
    // Table 1 PC6: 12 + 0.5 W.
    EXPECT_NEAR(r.totalPowerW(), 12.5, 1.0);
}

TEST(ServerSim, ResidencyFractionsSumToOne)
{
    const auto r = runMemcached(soc::PackagePolicy::Cpc1a, 20000);
    double total = 0.0;
    for (double f : r.pkgResidency)
        total += f;
    EXPECT_NEAR(total, 1.0, 1e-6);
    double cores = 0.0;
    for (double f : r.coreResidency)
        cores += f;
    EXPECT_NEAR(cores, 1.0, 0.02); // entry windows count as neither
}

TEST(ServerSim, OpportunityShrinksWithLoad)
{
    const auto lo = runMemcached(soc::PackagePolicy::Cshallow, 4000,
                                 200 * kMs);
    const auto hi = runMemcached(soc::PackagePolicy::Cshallow, 100000,
                                 200 * kMs);
    EXPECT_GT(lo.allIdleFraction, hi.allIdleFraction);
    EXPECT_GT(lo.socWatchIdleFraction, hi.socWatchIdleFraction);
    // SoCWatch's 10 µs floor only ever underestimates (paper Sec. 6).
    EXPECT_LE(lo.socWatchIdleFraction, lo.allIdleFraction + 1e-9);
    EXPECT_LE(hi.socWatchIdleFraction, hi.allIdleFraction + 1e-9);
}

TEST(ServerSim, DeterministicGivenSeed)
{
    const auto a = runMemcached(soc::PackagePolicy::Cpc1a, 10000,
                                100 * kMs, 7);
    const auto b = runMemcached(soc::PackagePolicy::Cpc1a, 10000,
                                100 * kMs, 7);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_DOUBLE_EQ(a.avgLatencyUs, b.avgLatencyUs);
    EXPECT_DOUBLE_EQ(a.pkgPowerW, b.pkgPowerW);
    EXPECT_EQ(a.pc1aEntries, b.pc1aEntries);
}

TEST(ServerSim, SeedChangesRun)
{
    const auto a = runMemcached(soc::PackagePolicy::Cpc1a, 10000,
                                100 * kMs, 7);
    const auto b = runMemcached(soc::PackagePolicy::Cpc1a, 10000,
                                100 * kMs, 8);
    EXPECT_NE(a.requests, b.requests);
}

TEST(ServerSim, TracedRunPowerSpansTileTheWholeRun)
{
    // run() closes the package-state span still open at the end: the
    // power track covers [0, warmup + duration] with no gap, overlap
    // or missing tail, and no caller has to flush.
    ServerConfig cfg;
    cfg.policy = soc::PackagePolicy::Cpc1a;
    cfg.workload = workload::WorkloadConfig::memcachedEtc(20000);
    cfg.warmup = 1 * kMs;
    cfg.duration = 2 * kMs;
    const sim::Tick end = cfg.warmup + cfg.duration;
    ServerSim sim(std::move(cfg));
    obs::TraceConfig tc;
    tc.enabled = true;
    obs::Tracer tracer(tc, 1);
    sim.enableTracing(tracer.writer(0));
    sim.run();

    std::vector<const obs::TraceRecord *> spans;
    for (const obs::Tracer::MergedRecord &m : tracer.merged()) {
        const obs::TraceRecord &r = *m.rec;
        if (r.kind == static_cast<std::uint8_t>(obs::TraceKind::Span) &&
            r.track == static_cast<std::uint8_t>(obs::Track::Power))
            spans.push_back(&r);
    }
    ASSERT_GT(spans.size(), 10u);
    EXPECT_EQ(spans.front()->ts, 0);
    for (std::size_t i = 1; i < spans.size(); ++i)
        ASSERT_EQ(spans[i]->ts, spans[i - 1]->ts + spans[i - 1]->dur)
            << "span " << i;
    EXPECT_EQ(spans.back()->ts + spans.back()->dur, end);
}

TEST(ServerSim, AdvancingAfterCollectLeavesTheResultAlone)
{
    // A fleet collects every server at the end of the window, then
    // keeps advancing them while in-flight work drains. collect() has
    // handed its histograms over, so the drain's completions and idle
    // periods must record nothing and change nothing in the result.
    ServerConfig cfg;
    cfg.policy = soc::PackagePolicy::Cpc1a;
    cfg.workload = workload::WorkloadConfig::memcachedEtc(20000);
    ServerSim sim(std::move(cfg));
    sim.start();
    sim.advanceTo(2 * kMs);
    sim.beginMeasurement();
    sim.advanceTo(12 * kMs);
    const ServerResult res = sim.collect();
    ASSERT_GT(res.latencyHistUs.count(), 100u);
    ASSERT_GT(res.idlePeriodsUs.count(), 50u);
    const ServerResult before = res;
    const std::uint64_t completed = sim.completed();

    sim.advanceTo(20 * kMs);
    EXPECT_GT(sim.completed(), completed); // the server kept serving
    EXPECT_EQ(res.latencyHistUs.count(), before.latencyHistUs.count());
    EXPECT_EQ(res.latencyHistUs.p99(), before.latencyHistUs.p99());
    EXPECT_EQ(res.latencyHistUs.maxSample(),
              before.latencyHistUs.maxSample());
    EXPECT_EQ(res.idlePeriodsUs.count(), before.idlePeriodsUs.count());
    EXPECT_EQ(res.idlePeriodFraction(20, 200),
              before.idlePeriodFraction(20, 200));
    EXPECT_EQ(res.requests, before.requests);
}

/** The invalid_argument message constructing @p cfg throws, or "". */
std::string
rejection(ServerConfig cfg)
{
    try {
        ServerSim sim(std::move(cfg));
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

TEST(ServerConfigCheck, NegativeWarmupRejected)
{
    ServerConfig cfg;
    cfg.warmup = -1;
    EXPECT_NE(rejection(std::move(cfg)).find("warmup must be >= 0"),
              std::string::npos);
    ServerConfig ok;
    ok.warmup = 0;
    EXPECT_EQ(rejection(std::move(ok)), "");
}

TEST(ServerConfigCheck, NegativeNetworkLatencyRejected)
{
    ServerConfig cfg;
    cfg.networkLatency = -1 * kUs;
    EXPECT_NE(rejection(std::move(cfg)).find("networkLatency must be >= 0"),
              std::string::npos);
    ServerConfig ok;
    ok.networkLatency = 0; // a fleet with a fabric models the network
    EXPECT_EQ(rejection(std::move(ok)), "");
}

TEST(ServerConfigCheck, NonPositiveDurationRejected)
{
    for (const sim::Tick d : {sim::Tick(0), -1 * kMs}) {
        ServerConfig cfg;
        cfg.duration = d;
        EXPECT_NE(rejection(std::move(cfg)).find("duration must be > 0"),
                  std::string::npos)
            << d;
    }
}

TEST(ServerConfigCheck, NonPositiveDvfsIntervalRejectedWithDvfsOn)
{
    ServerConfig cfg;
    cfg.dvfs.enabled = true;
    cfg.dvfsInterval = 0;
    EXPECT_NE(rejection(std::move(cfg))
                  .find("dvfsInterval must be > 0 with DVFS on"),
              std::string::npos);
    ServerConfig off; // never read without DVFS
    off.dvfsInterval = 0;
    EXPECT_EQ(rejection(std::move(off)), "");
}

TEST(ServerConfigCheck, RemoteFractionOutsideUnitIntervalRejected)
{
    for (const double f : {-0.1, 1.5, std::nan("")}) {
        ServerConfig cfg;
        cfg.numa.enabled = true;
        cfg.numa.remoteFraction = f;
        EXPECT_NE(rejection(std::move(cfg))
                      .find("numa.remoteFraction must be in [0, 1]"),
                  std::string::npos)
            << f;
    }
    for (const double f : {0.0, 1.0}) {
        ServerConfig ok;
        ok.numa.enabled = true;
        ok.numa.remoteFraction = f;
        EXPECT_EQ(rejection(std::move(ok)), "") << f;
    }
}

} // namespace
} // namespace apc::server
