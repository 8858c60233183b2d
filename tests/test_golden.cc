/**
 * @file
 * Observer golden pin: a small fleet with every observer on, whose
 * report row, blame JSON, alert-log JSON and metrics CSV are pinned by
 * FNV-1a hash. Any change to the simulator or to an observer that
 * moves one byte of these outputs fails here.
 *
 * Re-pinning is allowed only for a change that means to move an
 * output, and it needs a line in CHANGES.md that names the output and
 * says why it moved. A speed-up or a refactor never re-pins.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "fleet/fleet_sim.h"

namespace apc {
namespace {

using sim::kMs;
using sim::kUs;

/** 16 servers, fabric + NIC, bursty arrivals at 30% load, a scripted
 *  crash plus a stochastic crash hazard under client failover, with
 *  attribution, health and metrics on. The SLO windows are short and
 *  the latency threshold tight, so the 10 ms window rolls the p99
 *  buckets and logs alerts. */
fleet::FleetConfig
goldenFleet(unsigned threads)
{
    fleet::FleetConfig fc;
    fc.numServers = 16;
    fc.policy = soc::PackagePolicy::Cpc1a;
    fc.workload = workload::WorkloadConfig::memcachedEtc(0);
    fc.dispatch = fleet::DispatchKind::LeastOutstanding;
    fc.traffic.arrivalKind = workload::ArrivalKind::Mmpp;
    fc.traffic.burstiness = fc.workload.burstiness;
    fc.traffic.burstMean = fc.workload.burstMean;
    fc.traffic.qps = fc.workload.qpsForUtilization(
        0.30, static_cast<int>(fc.numServers) * 10);
    fc.traffic.fanout = {0.05, 3};
    fc.sloUs = 10000.0;
    fc.warmup = 2 * kMs;
    fc.duration = 10 * kMs;
    fc.seed = 1234;
    fc.threads = threads;
    fc.fabric.enabled = true;
    fc.nic.enabled = true;
    fc.faults.enabled = true;
    fc.faults.scripted = {
        {4 * kMs, 3 * kMs, fault::FaultKind::ServerCrash, 5}};
    fc.faults.crash.ratePerSec = 20.0;
    fc.faults.crash.mttr = 2 * kMs;
    fc.recovery.enabled = true;
    fc.attribution.enabled = true;
    fc.trace.ringCapacity = 1u << 18;
    fc.health.enabled = true;
    fc.health.slo.latencyThresholdUs = 220.0;
    fc.health.slo.fast = {2 * kMs, 400 * kUs, 14.4, "page"};
    fc.health.slo.slow = {6 * kMs, 1 * kMs, 6.0, "ticket"};
    fc.metrics.enabled = true;
    return fc;
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Everything @p write puts into a memory stream. */
template <typename F>
std::string
captured(F &&write)
{
    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *f = open_memstream(&buf, &len);
    EXPECT_TRUE(write(f));
    std::fclose(f);
    std::string out(buf, len);
    std::free(buf);
    return out;
}

// Recorded at the commit that introduced this pin; see the file
// comment before changing any of them.
constexpr std::uint64_t kCsvRowHash = 0x516964a46ee16e44ULL;
constexpr std::uint64_t kBlameJsonHash = 0x94a42579e3e1236aULL;
constexpr std::uint64_t kAlertJsonHash = 0xf7c27e55c1b2264bULL;
constexpr std::uint64_t kMetricsCsvHash = 0x06bfdc5835e00eaaULL;

/** Hash of @p out checked against @p pin; prints the actual hash. */
void
expectPinned(const char *what, const std::string &out, std::uint64_t pin)
{
    const std::uint64_t h = fnv1a(out);
    EXPECT_EQ(h, pin) << what << " hash is 0x" << std::hex << h;
}

class ObserverGolden : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ObserverGolden, OutputsMatchThePin)
{
    fleet::FleetSim fleet(goldenFleet(GetParam()));
    const fleet::FleetReport rep = fleet.run();

    // The scenario exercises what the pin is for.
    ASSERT_GT(rep.dispatched, 1000u);
    EXPECT_GT(rep.failovers, 0u);
    EXPECT_EQ(rep.traceDrops, 0u);
    ASSERT_TRUE(rep.attribution.enabled);
    EXPECT_GT(rep.attribution.requests, 1000u);
    EXPECT_EQ(rep.attribution.violations, 0u);
    ASSERT_TRUE(rep.health.enabled);
    EXPECT_GT(rep.health.alerts.size(), 0u);
    EXPECT_GT(rep.health.worstWindowP99Us, 0.0);
    EXPECT_EQ(rep.health.auditViolations, 0u);
    ASSERT_NE(fleet.metrics(), nullptr);

    const std::string blame = captured(
        [&](std::FILE *f) { return rep.attribution.writeJson(f); });
    const std::string alerts = captured(
        [&](std::FILE *f) { return rep.health.writeAlertsJson(f); });
    const std::string metrics = captured(
        [&](std::FILE *f) { return fleet.metrics()->writeCsv(f); });

    expectPinned("csvRow()", rep.csvRow(), kCsvRowHash);
    expectPinned("blame JSON", blame, kBlameJsonHash);
    expectPinned("alert-log JSON", alerts, kAlertJsonHash);
    expectPinned("metrics CSV", metrics, kMetricsCsvHash);
}

INSTANTIATE_TEST_SUITE_P(Threads, ObserverGolden,
                         ::testing::Values(1u, 2u));

} // namespace
} // namespace apc
