/**
 * @file
 * Golden pins. The observer pin runs a small fleet with every observer
 * on and pins its report row, blame JSON, alert-log JSON and metrics
 * CSV by FNV-1a hash. The replica-outcome pins run one small fleet per
 * way a routed replica can end (answered, lost in the fabric, dropped
 * by a full NIC ring, destroyed by a crash, never routed because every
 * server is down) and pin the report row and the trace digest. Any
 * change to the simulator or to an observer that moves one byte of
 * these outputs fails here. On the same scenarios, at 1, 2 and 8
 * threads, the online attribution must equal the reference chains
 * reassembled from the run's complete trace.
 *
 * A counted gate holds the attribution store to one cache line per
 * record on the observer pin's fleet.
 *
 * Re-pinning is allowed only for a change that means to move an
 * output, and it needs a line in CHANGES.md that names the output and
 * says why it moved. A speed-up or a refactor never re-pins.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "attribution_reference.h"
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

/**
 * The record store's footprint on the observer pin's fleet, counted
 * rather than timed: every attributed request takes one 64-byte slot
 * (plus at most one chunk's slack), and only the records a slot cannot
 * hold — fanout and failed-over requests here — are kept whole in the
 * side table. The report carries every record as a sample, and the
 * store is rebuilt from them, so the gate sees the run's exact mix.
 */
TEST(AttributionStoreGate, ObserverFleetRecordsTakeOneCacheLine)
{
    fleet::FleetConfig fc = goldenFleet(1);
    fc.attribution.sampleLimit = SIZE_MAX;
    fleet::FleetSim fleet(fc);
    const fleet::FleetReport rep = fleet.run();
    const std::vector<obs::RequestRecord> &recs = rep.attribution.samples;
    ASSERT_EQ(recs.size(), rep.attribution.requests);
    ASSERT_GT(recs.size(), 1000u);

    constexpr std::uint64_t k32 = std::uint64_t{1} << 32;
    obs::AttributionResult store;
    std::size_t wide = 0;
    for (const obs::RequestRecord &r : recs) {
        store.push(r);
        sim::Tick sum = 0;
        bool big = r.id >= k32;
        for (const sim::Tick s : r.seg) {
            sum += s;
            big = big || static_cast<std::uint64_t>(s) >= k32;
        }
        if (r.replicas != 1 || r.e2e != sum || big ||
            r.srv == obs::AttributionResult::kSide)
            ++wide;
    }
    EXPECT_GT(wide, 0u);
    EXPECT_EQ(store.sideRecords(), wide);
    EXPECT_LE(store.slotBytes(),
              64 * (store.size() + obs::AttributionResult::kChunk));
}

/** Shared base of the replica-outcome scenarios: MMPP arrivals, a
 *  short window, tracing with attribution, so the trace digest covers
 *  request spans, losses and every send/failover segment, and health
 *  with a fail-fast conservation audit (so forcing the audit on from
 *  the environment changes nothing). */
fleet::FleetConfig
outcomeFleet(std::size_t servers, double util, std::uint64_t seed)
{
    fleet::FleetConfig fc;
    fc.numServers = servers;
    fc.policy = soc::PackagePolicy::Cpc1a;
    fc.workload = workload::WorkloadConfig::memcachedEtc(0);
    fc.dispatch = fleet::DispatchKind::LeastOutstanding;
    fc.traffic.arrivalKind = workload::ArrivalKind::Mmpp;
    fc.traffic.burstiness = 6.0;
    fc.traffic.burstMean = fc.workload.burstMean;
    fc.traffic.qps = fc.workload.qpsForUtilization(
        util, static_cast<int>(servers) * 10);
    fc.sloUs = 10000.0;
    fc.warmup = 2 * kMs;
    fc.duration = 10 * kMs;
    fc.seed = seed;
    fc.attribution.enabled = true;
    fc.trace.enabled = true;
    fc.trace.ringCapacity = 1u << 20;
    fc.health.enabled = true;
    fc.health.audit.failFast = true;
    return fc;
}

/** Teleport network with fanout: every replica answers. */
fleet::FleetConfig
teleportFanout()
{
    fleet::FleetConfig fc = outcomeFleet(8, 0.30, 101);
    fc.traffic.fanout = {0.2, 3};
    return fc;
}

/** Starved fabric buffers, a two-descriptor NIC ring, one resend per
 *  packet and fanout under edge-link flaps, a crash hazard and a
 *  scripted crash: replicas and responses die in transit, replicas in
 *  the ring and on crashed servers. */
fleet::FleetConfig
lossyChurn()
{
    fleet::FleetConfig fc = outcomeFleet(16, 0.40, 202);
    fc.traffic.fanout = {0.2, 3};
    fc.fabric.enabled = true;
    fc.fabric.edge.queuePackets = 3;
    fc.fabric.core.queuePackets = 24;
    fc.fabric.rto = 300 * kUs;
    fc.fabric.maxTries = 2;
    fc.nic.enabled = true;
    fc.nic.rxRingSize = 2;
    fc.faults.enabled = true;
    fc.faults.scripted = {
        {5 * kMs, 2 * kMs, fault::FaultKind::ServerCrash, 3}};
    fc.faults.crash.ratePerSec = 40.0;
    fc.faults.crash.mttr = 2 * kMs;
    fc.faults.flap.ratePerSec = 40.0;
    fc.faults.flap.mttr = 1 * kMs;
    return fc;
}

/** lossyChurn with client recovery. The timeout is shorter than a NIC
 *  resend, so lost responses and slow resent replicas both time out,
 *  and a late answer can beat its own failover. */
fleet::FleetConfig
lossyChurnRecovery()
{
    fleet::FleetConfig fc = lossyChurn();
    fc.recovery.enabled = true;
    fc.recovery.requestTimeout = 300 * kUs;
    return fc;
}

/** Every server of a four-server fleet crashes at once, so dispatch
 *  finds no server for first sends, fanout replicas and failovers.
 *  The 1.5 ms outage outlasts the failover backoff of early arrivals
 *  but not of late ones. */
fleet::FleetConfig
massOutage()
{
    fleet::FleetConfig fc = outcomeFleet(4, 0.30, 303);
    fc.traffic.fanout = {0.2, 2};
    fc.faults.enabled = true;
    for (std::uint32_t s = 0; s < 4; ++s)
        fc.faults.scripted.push_back(
            {5 * kMs, 1 * kMs, fault::FaultKind::ServerCrash, s});
    fc.faults.restartCost = 500 * kUs;
    fc.recovery.enabled = true;
    return fc;
}

/** massOutage without recovery: outage dispatch failures are lost at
 *  once. */
fleet::FleetConfig
massOutageNoRecovery()
{
    fleet::FleetConfig fc = massOutage();
    fc.recovery.enabled = false;
    return fc;
}

struct OutcomeScenario
{
    const char *name;
    fleet::FleetConfig (*make)();
    std::uint64_t csvRowHash;
    std::uint64_t traceDigest;
    /** Asserts the counters proving the scenario takes its branches. */
    void (*exercised)(const fleet::FleetReport &);
};

// Recorded on the parent of the commit that introduced them, except
// MassOutage's trace digest: that commit also fixed the failover
// segments of a retry that finds no server (the parent dropped its
// backoff window and made the blame chain non-additive), which moves
// only that digest. See the file comment before changing any of them.
const OutcomeScenario kOutcomeScenarios[] = {
    {"TeleportFanout", teleportFanout, 0x46e677bba2573dd2ULL,
     0x283869f0108a4473ULL,
     [](const fleet::FleetReport &r) {
         EXPECT_GT(r.replicaLatencyUs.count(), r.completed);
         EXPECT_EQ(r.completed, r.dispatched);
     }},
    {"LossyChurn", lossyChurn, 0x48ef47306f554173ULL,
     0xbb2076605c9412eaULL,
     [](const fleet::FleetReport &r) {
         EXPECT_GT(r.nicRxDrops, 0u);
         EXPECT_GT(r.lostRequests, 0u);
         EXPECT_GT(r.lostToCrash, 0u);
         EXPECT_EQ(r.failovers, 0u);
     }},
    {"LossyChurnRecovery", lossyChurnRecovery, 0x0859b991a1eb4aadULL,
     0x20b7d32455cb4933ULL,
     [](const fleet::FleetReport &r) {
         EXPECT_GT(r.nicRxDrops, 0u);
         EXPECT_GT(r.lostRequests, 0u);
         EXPECT_GT(r.lostToCrash, 0u);
         EXPECT_GT(r.failovers, 0u);
         EXPECT_GT(r.timeouts, 0u);
     }},
    {"MassOutage", massOutage, 0x6cb5768a93fe25e9ULL,
     0x985c4307c7cbd0cbULL,
     [](const fleet::FleetReport &r) {
         EXPECT_GT(r.lostToCrash, 0u);
         EXPECT_GT(r.failovers, 0u);
     }},
    {"MassOutageNoRecovery", massOutageNoRecovery,
     0xb6bdc7e6ba813fbfULL, 0x151ce0a318161be6ULL,
     [](const fleet::FleetReport &r) {
         EXPECT_GT(r.lostToCrash, 0u);
         EXPECT_EQ(r.failovers, 0u);
     }},
};

class ReplicaOutcomeGolden
    : public ::testing::TestWithParam<OutcomeScenario>
{
};

TEST_P(ReplicaOutcomeGolden, OutputsMatchThePin)
{
    const OutcomeScenario &sc = GetParam();
    fleet::FleetSim fleet(sc.make());
    const fleet::FleetReport rep = fleet.run();

    ASSERT_GT(rep.dispatched, 300u);
    // Every measured request is counted exactly once.
    EXPECT_EQ(rep.inFlightAtEnd, 0u);
    EXPECT_EQ(rep.dispatched,
              rep.completed + rep.lostRequests + rep.lostToCrash);
    EXPECT_EQ(rep.traceDrops, 0u);
    EXPECT_EQ(rep.attribution.violations, 0u);
    EXPECT_EQ(rep.health.auditViolations, 0u);
    sc.exercised(rep);

    expectPinned("csvRow()", rep.csvRow(), sc.csvRowHash);
    const std::uint64_t digest = fleet.tracer()->digest();
    EXPECT_EQ(digest, sc.traceDigest)
        << "trace digest is 0x" << std::hex << digest;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ReplicaOutcomeGolden, ::testing::ValuesIn(kOutcomeScenarios),
    [](const ::testing::TestParamInfo<OutcomeScenario> &p) {
        return std::string(p.param.name);
    });

/** lossyChurnRecovery cut off one epoch after the window: flights
 *  that a late answer resolved while their failover attempt is still
 *  inside a server stay open at the end. */
fleet::FleetConfig
drainCut()
{
    fleet::FleetConfig fc = lossyChurnRecovery();
    fc.drainLimit = fc.epoch;
    return fc;
}

/** Every golden scenario, for the attribution differential. */
struct AttributedScenario
{
    const char *name;
    fleet::FleetConfig (*make)();
};

const AttributedScenario kAttributedScenarios[] = {
    {"Observer", [] { return goldenFleet(1); }},
    {"TeleportFanout", teleportFanout},
    {"LossyChurn", lossyChurn},
    {"LossyChurnRecovery", lossyChurnRecovery},
    {"MassOutage", massOutage},
    {"MassOutageNoRecovery", massOutageNoRecovery},
    {"DrainCut", drainCut},
};

class AttributionMatchesTrace
    : public ::testing::TestWithParam<
          std::tuple<AttributedScenario, unsigned>>
{
};

TEST_P(AttributionMatchesTrace, RecordForRecord)
{
    fleet::FleetConfig fc = std::get<0>(GetParam()).make();
    fc.threads = std::get<1>(GetParam());
    fc.trace.enabled = true;
    fc.trace.ringCapacity = 1u << 20; // the reference needs every span
    fc.attribution.sampleLimit = SIZE_MAX;
    fleet::FleetSim fleet(fc);
    const fleet::FleetReport rep = fleet.run();
    ASSERT_NE(fleet.tracer(), nullptr);
    ASSERT_EQ(rep.traceDrops, 0u);
    ASSERT_GT(rep.attribution.requests, 300u);
    testref::expectMatchesReference(rep.attribution, *fleet.tracer());
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, AttributionMatchesTrace,
    ::testing::Combine(::testing::ValuesIn(kAttributedScenarios),
                       ::testing::Values(1u, 2u, 8u)),
    [](const ::testing::TestParamInfo<
        std::tuple<AttributedScenario, unsigned>> &p) {
        return std::string(std::get<0>(p.param).name) + "_" +
            std::to_string(std::get<1>(p.param)) + "T";
    });

} // namespace
} // namespace apc
