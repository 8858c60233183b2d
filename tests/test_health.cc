/**
 * @file
 * Fleet health tests: SLO burn-rate alert lifecycle (multi-window
 * gating, fire/resolve edges, power SLI from cap-counter deltas), the
 * invariant auditor (clean pass, every conservation break flagged,
 * monotonicity tracking, failFast abort, retention bounds), and the
 * fleet-in-the-loop contracts — zero behavioral footprint (reports
 * byte-identical with health on or off at any thread count and shard
 * layout), a thread-count-invariant alert log, a clean audit over a
 * fabric+NIC+budget run, and a breaker trip that fires a burn-rate
 * alert.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "fleet/fleet_sim.h"
#include "obs/audit.h"
#include "obs/health.h"
#include "obs/slo.h"

namespace apc {
namespace {

using sim::kMs;
using sim::kUs;

// ------------------------------------------------- SLO monitor (unit)

/** Scripted single-policy config: latency budget 0.1, fast pair
 *  8 ms / 2 ms @ burn 5, slow pair inert. */
obs::SloConfig
scriptedSlo()
{
    obs::SloConfig c;
    c.latencyThresholdUs = 100.0;
    c.latencyObjective = 0.9;
    c.fast = {8 * kMs, 2 * kMs, 5.0, "page"};
    c.slow = {8 * kMs, 2 * kMs, 1e9, "ticket"};
    return c;
}

/** One 1 ms epoch ending at @p k ms: @p good fast samples (50 µs) and
 *  @p bad slow ones (500 µs). */
void
feedEpoch(obs::SloMonitor &m, int k, int good, int bad)
{
    for (int i = 0; i < good; ++i)
        m.recordLatency(50.0);
    for (int i = 0; i < bad; ++i)
        m.recordLatency(500.0);
    m.onEpoch((k - 1) * kMs, k * kMs);
}

TEST(SloMonitor, ThresholdInheritsFleetSloOnlyWhenUnset)
{
    obs::SloConfig explicit_cfg;
    explicit_cfg.latencyThresholdUs = 250.0;
    EXPECT_DOUBLE_EQ(
        obs::SloMonitor(explicit_cfg, 777.0, kMs).config().latencyThresholdUs,
        250.0);
    EXPECT_DOUBLE_EQ(
        obs::SloMonitor(obs::SloConfig{}, 777.0, kMs)
            .config()
            .latencyThresholdUs,
        777.0);
}

TEST(SloMonitor, FiresOnlyWhenBothWindowsBurnAndResolvesOnEither)
{
    obs::SloMonitor m(scriptedSlo(), 0.0, kMs);

    // 4 healthy epochs, then the SLI goes fully bad.
    for (int k = 1; k <= 4; ++k)
        feedEpoch(m, k, 10, 0);
    feedEpoch(m, 5, 0, 10);

    // Epoch 5: the 2 ms window already burns at 5 (10 bad / 20), but
    // the 8 ms window sits at 2 (10 bad / 50) — multi-window gating
    // keeps a short spike from paging.
    EXPECT_EQ(m.alertsFired(), 0u);
    EXPECT_FALSE(m.anyActive());

    // Sustained badness: the long window crosses 5 at epoch 8
    // (40 bad / 80 over the full 8 ms).
    for (int k = 6; k <= 8; ++k)
        feedEpoch(m, k, 0, 10);
    ASSERT_EQ(m.alertsFired(), 1u);
    EXPECT_TRUE(m.anyActive());
    ASSERT_EQ(m.alerts().size(), 1u);
    const obs::AlertEvent &fire = m.alerts()[0];
    EXPECT_EQ(fire.at, 8 * kMs);
    EXPECT_TRUE(fire.fire);
    EXPECT_EQ(fire.sli, obs::Sli::Latency);
    EXPECT_EQ(fire.policy, 0);
    EXPECT_NEAR(fire.burnLong, 5.0, 1e-9);
    EXPECT_NEAR(fire.burnShort, 10.0, 1e-9);

    // One healthy epoch: the short window (epochs 8+9) still burns at
    // 5 and the long window at 5 — the alert holds.
    feedEpoch(m, 9, 10, 0);
    EXPECT_TRUE(m.anyActive());
    EXPECT_EQ(m.alertsResolved(), 0u);

    // Second healthy epoch: the short window goes clean, and either
    // window dropping below threshold resolves (the conjunction that
    // fired no longer holds).
    feedEpoch(m, 10, 10, 0);
    EXPECT_FALSE(m.anyActive());
    ASSERT_EQ(m.alertsResolved(), 1u);
    ASSERT_EQ(m.alerts().size(), 2u);
    EXPECT_FALSE(m.alerts()[1].fire);
    EXPECT_EQ(m.alerts()[1].at, 10 * kMs);

    // Violation time covers the two epochs the alert was active for.
    EXPECT_EQ(m.timeInViolation(), 2 * kMs);
    // Worst sustained burn = max over evaluations of min(long, short).
    EXPECT_NEAR(m.worstBurn(), 5.0, 1e-9);
    EXPECT_EQ(m.worstBurnSli(), obs::Sli::Latency);
    // Rolling exact-rank p99 saw the 500 µs regime.
    EXPECT_DOUBLE_EQ(m.worstWindowP99Us(), 500.0);
}

TEST(SloMonitor, PowerSliFollowsCapCounterDeltas)
{
    obs::SloConfig c;
    c.latencyThresholdUs = 100.0;
    c.powerObjective = 0.9;
    c.fast = {4 * kMs, 1 * kMs, 5.0, "page"};
    c.slow = {4 * kMs, 1 * kMs, 1e9, "ticket"};
    obs::SloMonitor m(c, 0.0, kMs);

    // Counters are cumulative; the monitor consumes epoch deltas.
    m.setCapCounters(100, 0);
    m.onEpoch(0, 1 * kMs);
    EXPECT_EQ(m.alertsFired(), 0u);

    m.setCapCounters(200, 100); // 100 new samples, all violations
    m.onEpoch(1 * kMs, 2 * kMs);
    ASSERT_EQ(m.alertsFired(), 1u);
    EXPECT_EQ(m.alerts()[0].sli, obs::Sli::Power);
    EXPECT_EQ(m.worstBurnSli(), obs::Sli::Power);

    // finish() closes still-active alerts as resolves at run end.
    m.finish(3 * kMs);
    EXPECT_EQ(m.alertsResolved(), 1u);
    EXPECT_FALSE(m.anyActive());
    ASSERT_EQ(m.alerts().size(), 2u);
    EXPECT_FALSE(m.alerts()[1].fire);
    EXPECT_EQ(m.alerts()[1].at, 3 * kMs);
}

TEST(SloMonitor, LatencyPercentileBufferIsBoundedAndCounted)
{
    obs::SloConfig c = scriptedSlo();
    c.maxSamplesPerEpoch = 4;
    obs::SloMonitor m(c, 0.0, kMs);
    for (int i = 0; i < 10; ++i)
        m.recordLatency(50.0);
    m.onEpoch(0, 1 * kMs);
    EXPECT_EQ(m.latencySamplesDropped(), 6u);
    // Dropped samples still counted good/bad: nothing burned.
    EXPECT_DOUBLE_EQ(m.worstBurn(), 0.0);
}

TEST(SloMonitor, IdleFleetIsFullyAvailableNotNaN)
{
    obs::SloMonitor m(scriptedSlo(), 0.0, kMs);

    // Zero-traffic epochs: zero requests means zero requests failed,
    // so an empty window burns nothing (never 0/0).
    for (int k = 1; k <= 4; ++k)
        m.onEpoch((k - 1) * kMs, k * kMs);
    EXPECT_FALSE(std::isnan(m.worstBurn()));
    EXPECT_DOUBLE_EQ(m.worstBurn(), 0.0);
    EXPECT_EQ(m.alertsFired(), 0u);

    // The guard never masks real damage: one lost request in an
    // otherwise-idle window burns it.
    m.recordLost();
    m.onEpoch(4 * kMs, 5 * kMs);
    EXPECT_GT(m.worstBurn(), 0.0);
}

TEST(SloMonitor, EpochSizingIsOnlyACapacityHint)
{
    // One feed through monitors sized for its 1 ms epochs, for 1 µs
    // epochs, and for 20 ms epochs (a ring and sample buffers that must
    // grow). The feed ends in quarter-millisecond epochs, which outgrow
    // even the exact sizing. Every result must match.
    obs::SloConfig c = scriptedSlo();
    c.slow = {12 * kMs, 3 * kMs, 2.0, "ticket"};
    std::vector<obs::SloMonitor> ms;
    ms.reserve(3);
    for (const sim::Tick epoch : {kMs, kUs, 20 * kMs})
        ms.emplace_back(c, 0.0, epoch);
    sim::Tick t = 0;
    for (int k = 0; k < 60; ++k) {
        const sim::Tick len = k < 40 ? kMs : kMs / 4;
        for (obs::SloMonitor &m : ms) {
            // A burst of slow requests every 16 epochs fires alerts.
            for (int i = 0; i < 5 + k % 7; ++i)
                m.recordLatency(k % 16 < 4 ? 90.0 + 40.0 * i
                                           : 10.0 + 3.0 * ((k + i) % 11));
            if (k % 9 == 0)
                m.recordLost();
            m.onEpoch(t, t + len);
        }
        t += len;
    }
    EXPECT_GT(ms[0].alertsFired(), 2u);
    for (std::size_t j = 1; j < ms.size(); ++j) {
        EXPECT_EQ(ms[j].worstWindowP99Us(), ms[0].worstWindowP99Us());
        EXPECT_EQ(ms[j].worstBurn(), ms[0].worstBurn());
        EXPECT_EQ(ms[j].timeInViolation(), ms[0].timeInViolation());
        ASSERT_EQ(ms[j].alerts().size(), ms[0].alerts().size());
        for (std::size_t i = 0; i < ms[0].alerts().size(); ++i) {
            const obs::AlertEvent &a = ms[j].alerts()[i];
            const obs::AlertEvent &b = ms[0].alerts()[i];
            EXPECT_EQ(a.at, b.at);
            EXPECT_EQ(a.fire, b.fire);
            EXPECT_EQ(a.burnLong, b.burnLong);
            EXPECT_EQ(a.windowP99Us, b.windowP99Us);
        }
    }
}

// ----------------------------------------------------- auditor (unit)

/** A snapshot every check passes on. */
obs::AuditSnapshot
cleanSnapshot()
{
    obs::AuditSnapshot s;
    s.now = 10 * kMs;
    s.flightsCreated = 100;
    s.flightsFinished = 90;
    s.flightsInFlight = 10;
    s.dispatched = 80;
    s.completed = 70;
    s.lost = 5;
    s.measuredInFlight = 5;
    s.servers = {{200, 180}, {150, 150}};
    s.links = {{50, 45, 5}, {30, 30, 0}};
    // 12.5 J at a 1/16 J unit: counter 200 brackets exactly.
    s.energy = {{0, 0, 12.5, 12.5, 200, 0.0625}};
    s.budgetEnabled = true;
    s.floorW = 20.0;
    s.deadbandW = 1.0;
    s.numServers = 2;
    s.anyEmergencyEver = false;
    s.newEpochs = {{5 * kMs, 100.0, 90.0, false}};
    s.lastBudgetW = 100.0;
    s.serverLimitW = {50.0, 40.0};
    return s;
}

TEST(Auditor, CleanSnapshotPasses)
{
    obs::Auditor a(obs::AuditConfig{});
    a.audit(cleanSnapshot());
    EXPECT_EQ(a.audits(), 1u);
    EXPECT_EQ(a.violationCount(), 0u);
    // flights + requests + 2 servers + 2 links + 1 plane + 1 budget
    // epoch + limit check.
    EXPECT_EQ(a.checksRun(), 9u);
}

TEST(Auditor, EveryConservationBreakIsFlagged)
{
    struct Case
    {
        const char *what;
        void (*corrupt)(obs::AuditSnapshot &);
        obs::AuditCheck expect;
    };
    const std::vector<Case> cases = {
        {"flight leak",
         [](obs::AuditSnapshot &s) { s.flightsInFlight = 9; },
         obs::AuditCheck::FleetFlights},
        {"request leak",
         [](obs::AuditSnapshot &s) { s.completed = 69; },
         obs::AuditCheck::FleetRequests},
        {"completed > accepted",
         [](obs::AuditSnapshot &s) { s.servers[1].completed = 151; },
         obs::AuditCheck::ServerCounters},
        {"link leak",
         [](obs::AuditSnapshot &s) { s.links[0].delivered = 44; },
         obs::AuditCheck::LinkConservation},
        {"counter outside bracket",
         [](obs::AuditSnapshot &s) { s.energy[0].counter = 210; },
         obs::AuditCheck::Energy},
        {"plane != load sum",
         [](obs::AuditSnapshot &s) { s.energy[0].loadSumJ = 12.0; },
         obs::AuditCheck::Energy},
        {"grant over budget",
         [](obs::AuditSnapshot &s) {
             s.newEpochs[0].allocatedW = 101.0;
         },
         obs::AuditCheck::Budget},
        {"limits over budget+deadband",
         [](obs::AuditSnapshot &s) { s.serverLimitW[0] = 90.0; },
         obs::AuditCheck::Budget},
        {"limit below floor",
         [](obs::AuditSnapshot &s) { s.serverLimitW[1] = 10.0; },
         obs::AuditCheck::Budget},
    };
    for (const Case &c : cases) {
        obs::Auditor a(obs::AuditConfig{});
        obs::AuditSnapshot s = cleanSnapshot();
        c.corrupt(s);
        a.audit(s);
        EXPECT_EQ(a.violationCount(), 1u) << c.what;
        EXPECT_EQ(a.violations(c.expect), 1u) << c.what;
        ASSERT_EQ(a.log().size(), 1u) << c.what;
        EXPECT_EQ(a.log()[0].check, c.expect) << c.what;
        EXPECT_FALSE(a.log()[0].detail.empty()) << c.what;
    }
}

TEST(Auditor, FloorBindsOnlyGrantsIssuedToActiveServers)
{
    // Server 1's enforced limit is the zero grant of an epoch that
    // counted it inactive: it owes nothing to the floor, even when the
    // server itself is back up and waiting for its next grant.
    obs::AuditSnapshot s = cleanSnapshot();
    s.serverLimitW[1] = 0.0;
    s.grantActive = {1, 0};
    obs::Auditor quiet(obs::AuditConfig{});
    quiet.audit(s);
    EXPECT_EQ(quiet.violationCount(), 0u);

    // The same under-floor limit granted while the server was active
    // is a real violation.
    s.serverLimitW[1] = 10.0;
    s.grantActive = {1, 1};
    obs::Auditor trips(obs::AuditConfig{});
    trips.audit(s);
    EXPECT_EQ(trips.violationCount(), 1u);
    EXPECT_EQ(trips.violations(obs::AuditCheck::Budget), 1u);
    ASSERT_EQ(trips.log().size(), 1u);
    EXPECT_EQ(trips.log()[0].entity, 1);
}

TEST(Auditor, MonotonicityTrackedAcrossAudits)
{
    obs::Auditor a(obs::AuditConfig{});
    a.audit(cleanSnapshot());
    ASSERT_EQ(a.violationCount(), 0u);

    // Second snapshot keeps every identity internally consistent but
    // rolls counters backwards — only cross-audit tracking catches it.
    obs::AuditSnapshot s = cleanSnapshot();
    s.flightsFinished = 80;
    s.flightsInFlight = 20;
    s.servers[0] = {190, 170};
    s.energy[0] = {0, 0, 10.0, 10.0, 160, 0.0625};
    a.audit(s);
    EXPECT_EQ(a.violations(obs::AuditCheck::FleetFlights), 1u);
    EXPECT_EQ(a.violations(obs::AuditCheck::ServerCounters), 1u);
    EXPECT_EQ(a.violations(obs::AuditCheck::Energy), 1u);
    EXPECT_EQ(a.violationCount(), 3u);
}

TEST(Auditor, CadenceRespectsInterval)
{
    obs::AuditConfig cfg;
    cfg.interval = 5 * kMs;
    obs::Auditor a(cfg);
    EXPECT_TRUE(a.due(0)); // never audited yet
    a.audit(cleanSnapshot()); // snapshot.now = 10 ms
    EXPECT_FALSE(a.due(14 * kMs));
    EXPECT_TRUE(a.due(15 * kMs));
    // interval 0 audits at every boundary.
    obs::Auditor every{obs::AuditConfig{}};
    every.audit(cleanSnapshot());
    EXPECT_TRUE(every.due(10 * kMs));
}

TEST(Auditor, ViolationLogIsBoundedButCountsAreNot)
{
    obs::Auditor a(obs::AuditConfig{});
    obs::AuditSnapshot s = cleanSnapshot();
    s.links.assign(100, {10, 5, 4}); // every link leaks one packet
    a.audit(s);
    EXPECT_EQ(a.violationCount(), 100u);
    EXPECT_EQ(a.violations(obs::AuditCheck::LinkConservation), 100u);
    EXPECT_EQ(a.log().size(), obs::Auditor::kMaxKept);
}

TEST(AuditorDeathTest, FailFastAbortsWithDiagnosticDump)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    obs::AuditConfig cfg;
    cfg.failFast = true;
    obs::AuditSnapshot s = cleanSnapshot();
    s.flightsInFlight = 9;
    EXPECT_DEATH(
        {
            obs::Auditor a(cfg);
            a.audit(s);
        },
        "failFast diagnostic dump");
}

// ------------------------------------------- fleet-in-the-loop health

std::string
alertsJson(const obs::HealthReport &r)
{
    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *f = open_memstream(&buf, &len);
    EXPECT_TRUE(r.writeAlertsJson(f));
    std::fclose(f);
    std::string out(buf, len);
    free(buf);
    return out;
}

/** Fabric + NIC + rack budget fleet — every audit family has state to
 *  check — with health optionally on. */
fleet::FleetConfig
healthFleet(unsigned threads, std::size_t shard_size, bool health_on)
{
    fleet::FleetConfig fc;
    fc.numServers = 8;
    fc.policy = soc::PackagePolicy::Cpc1a;
    fc.workload = workload::WorkloadConfig::memcachedEtc(0);
    fc.traffic.arrivalKind = workload::ArrivalKind::Poisson;
    fc.traffic.qps = fc.workload.qpsForUtilization(
        0.20, static_cast<int>(fc.numServers) * 10);
    fc.sloUs = 10000.0;
    fc.warmup = 10 * kMs;
    fc.duration = 60 * kMs;
    fc.seed = 21;
    fc.fabric.enabled = true;
    // Tight edge buffers: drops, retransmits and losses feed the
    // availability SLI and the link-conservation audit.
    fc.fabric.edge.queuePackets = 3;
    fc.fabric.core.queuePackets = 24;
    fc.fabric.rto = 300 * kUs;
    fc.fabric.maxTries = 2;
    fc.nic.enabled = true;
    fc.nic.rxUsecs = 20 * kUs;
    fc.budget.enabled = true;
    fc.budget.oversubscription = 1.3;
    fc.cap.actuator = cap::CapActuator::Hybrid;
    fc.threads = threads;
    fc.shardSize = shard_size;
    fc.health.enabled = health_on;
    return fc;
}

TEST(HealthFleet, RestartedServerAwaitingItsGrantIsNoBudgetViolation)
{
    // Server 3 crashes at 8 ms and is ready again at 12 ms: the 10 ms
    // budget epoch grants it zero while it is down, and it runs on that
    // grant until the 20 ms epoch. Every audit in between sees it up
    // with a 0 W limit — issued by an epoch that counted it inactive.
    auto fc = healthFleet(1, 0, true);
    fc.warmup = 2 * kMs;
    fc.duration = 30 * kMs;
    fc.faults.enabled = true;
    fc.faults.scripted = {{8 * kMs, 2 * kMs, fault::FaultKind::ServerCrash, 3}};
    fc.health.audit.interval = 0; // audit every epoch
    fleet::FleetSim fleet(fc);
    const fleet::FleetReport rep = fleet.run();

    // The scenario takes the path: an epoch ran without server 3, the
    // next with it, and the auditor ran in between.
    bool without = false, back = false;
    for (const auto &ep : rep.budgetLog) {
        without |= ep.active == fc.numServers - 1;
        back |= without && ep.active == fc.numServers;
    }
    EXPECT_TRUE(without);
    EXPECT_TRUE(back);
    EXPECT_GT(rep.health.audits, 20u);
    EXPECT_EQ(rep.health.auditViolations, 0u);
    EXPECT_EQ(rep.health.auditByCheck[static_cast<std::size_t>(
                  obs::AuditCheck::Budget)],
              0u);
}

TEST(HealthFleet, ZeroFootprintAndThreadInvariantAlertLog)
{
    // Health-off baseline: every monitored run must match its bytes.
    const std::string reference =
        fleet::FleetSim(healthFleet(1, 0, false)).run().csvRow();

    struct Point
    {
        unsigned threads;
        std::size_t shardSize;
    };
    std::string ref_json;
    bool first = true;
    for (const Point &p :
         std::vector<Point>{{1, 0}, {2, 7}, {8, 64}}) {
        fleet::FleetSim fleet(healthFleet(p.threads, p.shardSize, true));
        const fleet::FleetReport rep = fleet.run();
        ASSERT_GT(rep.dispatched, 1000u);
        EXPECT_EQ(rep.csvRow(), reference)
            << "threads=" << p.threads << " shardSize=" << p.shardSize;

        ASSERT_TRUE(rep.health.enabled);
        // The auditor ran at every epoch boundary and found the
        // engine's books in order.
        EXPECT_GT(rep.health.audits, 100u);
        EXPECT_GT(rep.health.auditChecks, rep.health.audits);
        EXPECT_EQ(rep.health.auditViolations, 0u);

        // The alert log (and its export) is invariant across thread
        // counts and shard layouts.
        const std::string json = alertsJson(rep.health);
        if (first) {
            ref_json = json;
            first = false;
        } else {
            EXPECT_EQ(json, ref_json) << "threads=" << p.threads;
        }
    }
}

/** Rack-budget fleet with a mid-run breaker trip derating the budget
 *  far below demand: SLIs burn through their windows during the trip. */
fleet::FleetConfig
trippedFleet(unsigned threads, bool trip)
{
    fleet::FleetConfig fc;
    fc.numServers = 4;
    fc.policy = soc::PackagePolicy::Cpc1a;
    fc.workload = workload::WorkloadConfig::memcachedEtc(0);
    fc.workload.arrivalKind = workload::ArrivalKind::Poisson;
    fc.traffic.arrivalKind = workload::ArrivalKind::Poisson;
    fc.traffic.qps = fc.workload.qpsForUtilization(
        0.20, static_cast<int>(fc.numServers) *
            soc::SkxConfig::forPolicy(fc.policy).numCores);
    fc.sloUs = 10000.0;
    fc.warmup = 40 * kMs;
    fc.duration = 220 * kMs;
    fc.seed = 5;
    fc.budget.enabled = true;
    fc.budget.oversubscription = 1.0;
    fc.cap.actuator = cap::CapActuator::IdleInject;
    // Short grace: violations count soon after the emergency retarget.
    fc.cap.settleTime = 2 * kMs;
    fc.budget.breaker.enabled = trip;
    fc.budget.breaker.at = 120 * kMs;
    fc.budget.breaker.duration = 80 * kMs;
    fc.budget.breaker.factor = 0.35;
    fc.threads = threads;
    fc.health.enabled = true;
    // Tail regressions under emergency throttling, not outright SLO
    // misses, are what the on-call should see first.
    fc.health.slo.latencyThresholdUs = 2000.0;
    return fc;
}

TEST(HealthFleet, BreakerTripFiresBurnRateAlert)
{
    // Without the trip the fleet is healthy: no alert fires.
    const fleet::FleetReport calm =
        fleet::FleetSim(trippedFleet(1, false)).run();
    ASSERT_TRUE(calm.health.enabled);
    EXPECT_EQ(calm.health.alertsFired, 0u);
    EXPECT_EQ(calm.health.timeInViolation, 0);

    fleet::FleetSim fleet(trippedFleet(1, true));
    const fleet::FleetReport rep = fleet.run();
    ASSERT_TRUE(rep.health.enabled);
    ASSERT_GE(rep.health.alertsFired, 1u);
    // finish() guarantees a resolve edge for every fire.
    EXPECT_EQ(rep.health.alertsResolved, rep.health.alertsFired);
    EXPECT_GT(rep.health.timeInViolation, 0);
    // A fired policy means both its windows sustained at least the
    // slow-burn threshold.
    EXPECT_GE(rep.health.worstBurn, rep.health.slo.slow.threshold);
    // The first fire lands inside the trip, not before it.
    bool saw_fire = false;
    for (const obs::AlertEvent &ev : rep.health.alerts) {
        if (!ev.fire)
            continue;
        saw_fire = true;
        EXPECT_GE(ev.at, 120 * kMs);
        break;
    }
    EXPECT_TRUE(saw_fire);
    EXPECT_EQ(rep.health.auditViolations, 0u);

    // The alert log is thread-count invariant even through the trip.
    const fleet::FleetReport rep4 =
        fleet::FleetSim(trippedFleet(4, true)).run();
    EXPECT_EQ(alertsJson(rep4.health), alertsJson(rep.health));

    // Export shape: schema_versioned JSON.
    const std::string json = alertsJson(rep.health);
    EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"policies\": ["), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"fire\""), std::string::npos);
    EXPECT_NE(json.find("\"audit\": {"), std::string::npos);

    // File exports through the fleet facade.
    const std::string path = "/tmp/apc_test_health_alerts.json";
    ASSERT_TRUE(fleet.writeAlertsJson(path));
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string out;
    char chunk[4096];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        out.append(chunk, n);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_EQ(out, json);
}

} // namespace
} // namespace apc
