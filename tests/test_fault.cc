/**
 * @file
 * Fault injection and graceful degradation (fault/ + the fleet's
 * recovery path): counter-based substream determinism, FaultPlan
 * schedule invariance across epoch slicings, server crash/drain/
 * restart lifecycle semantics, and the full churn scenario — crash +
 * drain + flap under client failover — byte-identical across thread
 * counts and shard layouts with the conservation auditor watching.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "fleet/fleet_sim.h"
#include "obs/audit.h"
#include "server/server_sim.h"

namespace apc {
namespace {

using sim::kMs;
using sim::kUs;

// ------------------------------------------- counter-based substreams

TEST(Substream, DrawsArePureFunctionsOfTheKey)
{
    const std::uint64_t a = fault::substream(42, 3, 1, 7);
    EXPECT_EQ(a, fault::substream(42, 3, 1, 7));
    // Any key component moves the stream.
    EXPECT_NE(a, fault::substream(43, 3, 1, 7));
    EXPECT_NE(a, fault::substream(42, 4, 1, 7));
    EXPECT_NE(a, fault::substream(42, 3, 2, 7));
    EXPECT_NE(a, fault::substream(42, 3, 1, 8));
}

TEST(Substream, U01AndExpStayInRange)
{
    for (std::uint64_t c = 0; c < 1000; ++c) {
        const double u = fault::substreamU01(7, 1, 2, c);
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        EXPECT_GE(fault::substreamExp(7, 1, 2, c, 1e6), 1);
    }
    // Degenerate mean still never returns a zero-length gap.
    EXPECT_GE(fault::substreamExp(7, 1, 2, 0, 0.0), 1);
}

TEST(Backoff, DelayIsDeterministicCappedAndJittered)
{
    fault::RecoveryConfig rc;
    rc.backoffBase = 200 * kUs;
    rc.backoffFactor = 2.0;
    rc.backoffCap = 2 * kMs;
    rc.jitterFrac = 0.25;

    for (int attempt = 0; attempt < 8; ++attempt) {
        const sim::Tick d = fault::backoffDelay(rc, 99, 1234, attempt);
        // Re-evaluating the same (seed, id, attempt) is free of state.
        EXPECT_EQ(d, fault::backoffDelay(rc, 99, 1234, attempt));
        double nominal = static_cast<double>(rc.backoffBase);
        for (int k = 0; k < attempt; ++k)
            nominal *= rc.backoffFactor;
        if (nominal > static_cast<double>(rc.backoffCap))
            nominal = static_cast<double>(rc.backoffCap);
        EXPECT_GE(d, static_cast<sim::Tick>(nominal * 0.74));
        EXPECT_LE(d, static_cast<sim::Tick>(nominal * 1.26));
        EXPECT_GE(d, 1);
    }
    // Distinct requests jitter independently.
    bool any_diff = false;
    for (std::uint64_t id = 0; id < 16 && !any_diff; ++id)
        any_diff = fault::backoffDelay(rc, 99, id, 1) !=
                   fault::backoffDelay(rc, 99, id + 16, 1);
    EXPECT_TRUE(any_diff);
}

// ------------------------------------------------------ fault plans

fault::FaultPlanConfig
hazardPlan()
{
    fault::FaultPlanConfig fc;
    fc.enabled = true;
    fc.crash.ratePerSec = 40.0;
    fc.crash.mttr = 5 * kMs;
    fc.flap.ratePerSec = 25.0;
    fc.flap.mttr = 2 * kMs;
    fc.scripted = {
        {30 * kMs, 10 * kMs, fault::FaultKind::ServerDrain, 1},
        {5 * kMs, 3 * kMs, fault::FaultKind::ServerCrash, 0},
        {700 * kMs, 1 * kMs, fault::FaultKind::LinkFlap,
         fault::kCoreLinkEntity},
    };
    return fc;
}

std::vector<fault::FaultEvent>
enumeratePlan(fault::FaultPlan &plan, sim::Tick horizon, sim::Tick step)
{
    std::vector<fault::FaultEvent> all, e;
    for (sim::Tick t = 0; t < horizon; t += step) {
        const sim::Tick to = std::min(t + step, horizon);
        plan.epoch(t, to, e);
        for (const fault::FaultEvent &ev : e) {
            // Epoch contract: only events inside [t, to), in order.
            EXPECT_GE(ev.at, t);
            EXPECT_LT(ev.at, to);
        }
        for (std::size_t i = 1; i < e.size(); ++i)
            EXPECT_TRUE(!fault::faultBefore(e[i], e[i - 1]));
        all.insert(all.end(), e.begin(), e.end());
    }
    return all;
}

bool
sameEvents(const std::vector<fault::FaultEvent> &a,
           const std::vector<fault::FaultEvent> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].at != b[i].at || a[i].duration != b[i].duration ||
            a[i].kind != b[i].kind || a[i].entity != b[i].entity)
            return false;
    return true;
}

TEST(FaultPlan, EpochSlicingDoesNotChangeTheSchedule)
{
    const sim::Tick horizon = 1000 * kMs;
    fault::FaultPlan whole(hazardPlan(), 11, 4);
    fault::FaultPlan fine(hazardPlan(), 11, 4);
    fault::FaultPlan odd(hazardPlan(), 11, 4);

    const auto a = enumeratePlan(whole, horizon, horizon);
    const auto b = enumeratePlan(fine, horizon, 1 * kMs);
    const auto c = enumeratePlan(odd, horizon, 7 * kMs + 13);

    ASSERT_GT(a.size(), 100u); // the hazards actually produced events
    EXPECT_TRUE(sameEvents(a, b));
    EXPECT_TRUE(sameEvents(a, c));
}

TEST(FaultPlan, SeedSelectsTheSchedule)
{
    const sim::Tick horizon = 500 * kMs;
    fault::FaultPlan p1(hazardPlan(), 11, 4);
    fault::FaultPlan p2(hazardPlan(), 12, 4);
    const auto a = enumeratePlan(p1, horizon, horizon);
    const auto b = enumeratePlan(p2, horizon, horizon);
    ASSERT_GT(a.size(), 50u);
    EXPECT_FALSE(sameEvents(a, b));
}

TEST(FaultPlan, ScriptedEventsFireExactlyOnce)
{
    fault::FaultPlan plan(hazardPlan(), 3, 4);
    const auto all = enumeratePlan(plan, 1000 * kMs, 3 * kMs);
    int drains = 0, core_flaps = 0;
    for (const fault::FaultEvent &ev : all) {
        drains += ev.kind == fault::FaultKind::ServerDrain ? 1 : 0;
        core_flaps +=
            ev.entity == fault::kCoreLinkEntity ? 1 : 0;
    }
    // Drain has no hazard configured, so the one scripted drain (and
    // the one scripted core blackout) appear exactly once.
    EXPECT_EQ(drains, 1);
    EXPECT_EQ(core_flaps, 1);
}

TEST(FaultPlan, RenewalProcessNeverOverlapsOutages)
{
    fault::FaultPlanConfig fc;
    fc.enabled = true;
    fc.crash.ratePerSec = 200.0; // dense stream to stress the spacing
    fc.crash.mttr = 4 * kMs;
    fault::FaultPlan plan(fc, 5, 3);
    const auto all = enumeratePlan(plan, 2000 * kMs, 2000 * kMs);
    ASSERT_GT(all.size(), 200u);
    std::vector<sim::Tick> last(3, -1);
    for (const fault::FaultEvent &ev : all) {
        ASSERT_LT(ev.entity, 3u);
        if (last[ev.entity] >= 0) {
            // The next failure draws *after* the previous outage
            // window closed: an entity cannot fail while Down.
            EXPECT_GE(ev.at, last[ev.entity] + fc.crash.mttr);
        }
        last[ev.entity] = ev.at;
    }
}

// -------------------------------------------- server fault lifecycle

server::ServerSim
drivenServer()
{
    server::ServerConfig sc;
    sc.policy = soc::PackagePolicy::Cpc1a;
    sc.workload = workload::WorkloadConfig::memcachedEtc(0);
    sc.externalArrivals = true;
    sc.seed = 3;
    return server::ServerSim(std::move(sc));
}

TEST(ServerLifecycle, CrashDestroysInFlightWorkLoudly)
{
    server::ServerSim srv = drivenServer();
    std::vector<std::uint64_t> aborted;
    std::uint64_t completions = 0;
    srv.onEnd([&](server::End how, std::uint64_t id, sim::Tick,
                  const obs::SegmentSums *) {
        if (how == server::End::Completion)
            ++completions;
        else if (how == server::End::Abort)
            aborted.push_back(id);
    });
    srv.start();

    srv.advanceTo(1 * kMs);
    for (std::uint64_t id = 1; id <= 6; ++id)
        srv.inject(id, 2 * kMs);
    EXPECT_EQ(srv.lifecycle(), server::Lifecycle::Up);
    EXPECT_EQ(srv.outstanding(), 6u);

    srv.scheduleCrash(1 * kMs + 500 * kUs);
    srv.scheduleRestart(3 * kMs, 4 * kMs);
    srv.advanceTo(2 * kMs);

    // Every in-flight request died with the crash — reported through
    // the abort hook, counted in aborted(), none completed.
    EXPECT_EQ(srv.lifecycle(), server::Lifecycle::Down);
    EXPECT_EQ(srv.aborted(), 6u);
    EXPECT_EQ(aborted.size(), 6u);
    EXPECT_EQ(srv.outstanding(), 0u);
    EXPECT_EQ(completions, 0u);

    // A Down server refuses admission: the abort hook fires on
    // arrival and the request is never accepted.
    srv.inject(7, 1 * kMs);
    EXPECT_EQ(aborted.size(), 7u);
    EXPECT_EQ(srv.accepted(), 6u);

    srv.advanceTo(3 * kMs + 500 * kUs);
    EXPECT_EQ(srv.lifecycle(), server::Lifecycle::Restarting);
    srv.inject(8, 1 * kMs); // still refusing until ready_at
    EXPECT_EQ(aborted.size(), 8u);

    srv.advanceTo(5 * kMs);
    EXPECT_EQ(srv.lifecycle(), server::Lifecycle::Up);
    srv.inject(9, 200 * kUs);
    srv.advanceTo(10 * kMs);
    EXPECT_EQ(completions, 1u);
    EXPECT_EQ(srv.completed(), 1u);

    // Conservation: accepted = completed + aborted + outstanding.
    EXPECT_EQ(srv.accepted(),
              srv.completed() + srv.aborted() + srv.outstanding());
}

TEST(ServerLifecycle, DrainStopsAdmissionButFinishesWork)
{
    server::ServerSim srv = drivenServer();
    std::vector<std::uint64_t> aborted;
    std::uint64_t completions = 0;
    srv.onEnd([&](server::End how, std::uint64_t id, sim::Tick,
                  const obs::SegmentSums *) {
        if (how == server::End::Completion)
            ++completions;
        else if (how == server::End::Abort)
            aborted.push_back(id);
    });
    srv.start();

    srv.advanceTo(1 * kMs);
    srv.inject(1, 1 * kMs);
    srv.scheduleDrain(1 * kMs + 100 * kUs);
    srv.advanceTo(1 * kMs + 200 * kUs);
    EXPECT_EQ(srv.lifecycle(), server::Lifecycle::Draining);

    // New arrivals bounce (the fleet fails them over)...
    srv.inject(2, 1 * kMs);
    ASSERT_EQ(aborted.size(), 1u);
    EXPECT_EQ(aborted[0], 2u);

    // ...but the outstanding request runs to completion: a drain
    // destroys nothing.
    srv.advanceTo(8 * kMs);
    EXPECT_EQ(completions, 1u);
    EXPECT_EQ(srv.aborted(), 0u);
    EXPECT_EQ(srv.outstanding(), 0u);
}

TEST(ServerLifecycle, CrashReportsOnlyRequestsTheRingAccepted)
{
    server::ServerConfig sc;
    sc.policy = soc::PackagePolicy::Cpc1a;
    sc.workload = workload::WorkloadConfig::memcachedEtc(0);
    sc.externalArrivals = true;
    sc.seed = 3;
    sc.nic.enabled = true;
    sc.nic.rxRingSize = 2;
    sc.nic.rxUsecs = 1 * kMs; // no interrupt before the crash
    server::ServerSim srv(std::move(sc));
    std::vector<std::uint64_t> dropped, aborted;
    srv.onEnd([&](server::End how, std::uint64_t id, sim::Tick,
                  const obs::SegmentSums *) {
        if (how == server::End::Drop)
            dropped.push_back(id);
        else if (how == server::End::Abort)
            aborted.push_back(id);
    });
    srv.start();

    srv.advanceTo(1 * kMs);
    for (std::uint64_t id = 1; id <= 5; ++id)
        srv.inject(id, 200 * kUs);
    EXPECT_EQ(dropped, (std::vector<std::uint64_t>{3, 4, 5}));

    srv.scheduleCrash(1 * kMs + 100 * kUs);
    srv.advanceTo(2 * kMs);
    // Each request ends exactly once: the tail-dropped ones never
    // entered the server, so the crash reports only the ring's two.
    EXPECT_EQ(aborted, (std::vector<std::uint64_t>{1, 2}));
}

// ------------------------------------------------- fleet churn grid

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

/** Fabric + NIC + health fleet with a scripted churn scenario — one
 *  crash, one drain, one edge flap, one core blackout — plus a mild
 *  stochastic crash hazard, under client timeout/backoff/failover. */
fleet::FleetConfig
churnFleet(unsigned threads, std::size_t shard_size, bool recovery = true)
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
    fc.duration = 80 * kMs;
    fc.seed = 33;
    fc.fabric.enabled = true;
    fc.nic.enabled = true;
    fc.health.enabled = true;
    fc.faults.enabled = true;
    fc.faults.scripted = {
        {25 * kMs, 12 * kMs, fault::FaultKind::ServerCrash, 2},
        {35 * kMs, 10 * kMs, fault::FaultKind::ServerDrain, 5},
        {50 * kMs, 6 * kMs, fault::FaultKind::LinkFlap, 1},
        {70 * kMs, 1 * kMs, fault::FaultKind::LinkFlap,
         fault::kCoreLinkEntity},
    };
    fc.faults.crash.ratePerSec = 4.0;
    fc.faults.crash.mttr = 8 * kMs;
    fc.recovery.enabled = recovery;
    fc.threads = threads;
    fc.shardSize = shard_size;
    return fc;
}

TEST(FleetChurn, FailoverMasksFaultsAndTheAuditorStaysGreen)
{
    const fleet::FleetReport rep =
        fleet::FleetSim(churnFleet(1, 0)).run();

    ASSERT_GT(rep.dispatched, 1000u);
    // The crash and the flap forced re-dispatches: clients timed out
    // or saw aborts, backed off, and failed over.
    EXPECT_GT(rep.failovers, 0u);
    EXPECT_GT(rep.timeouts, 0u);
    // Failover masks most of the damage.
    EXPECT_GT(rep.completed, rep.dispatched * 9 / 10);

    // The extended conservation law held at every epoch boundary:
    // injected = completed + lostToDrop + lostToCrash + inFlight.
    ASSERT_TRUE(rep.health.enabled);
    EXPECT_GT(rep.health.audits, 50u);
    EXPECT_EQ(rep.health.auditViolations, 0u);
}

TEST(FleetChurn, WithoutRecoveryCrashLossIsCountedNotVanished)
{
    const fleet::FleetReport rep =
        fleet::FleetSim(churnFleet(1, 0, false)).run();

    ASSERT_GT(rep.dispatched, 1000u);
    // No failover: work destroyed by the crash (and refused while the
    // server was Down) lands in lostToCrash — a separate ledger from
    // congestion drops, and never an accounting hole.
    EXPECT_GT(rep.lostToCrash, 0u);
    EXPECT_EQ(rep.failovers, 0u);
    ASSERT_TRUE(rep.health.enabled);
    EXPECT_EQ(rep.health.auditViolations, 0u);
}

TEST(FleetChurn, ReportAndAlertLogBytesAreLayoutInvariant)
{
    struct Point
    {
        unsigned threads;
        std::size_t shardSize;
    };
    std::string ref_row, ref_alerts;
    bool first = true;
    for (const Point &p :
         std::vector<Point>{{1, 0}, {2, 7}, {8, 64}}) {
        fleet::FleetSim fleet(churnFleet(p.threads, p.shardSize));
        const fleet::FleetReport rep = fleet.run();
        ASSERT_GT(rep.dispatched, 1000u);
        ASSERT_TRUE(rep.health.enabled);
        EXPECT_EQ(rep.health.auditViolations, 0u);
        const std::string row = rep.csvRow();
        const std::string alerts = alertsJson(rep.health);
        if (first) {
            ref_row = row;
            ref_alerts = alerts;
            first = false;
        } else {
            EXPECT_EQ(row, ref_row)
                << "threads=" << p.threads
                << " shardSize=" << p.shardSize;
            EXPECT_EQ(alerts, ref_alerts)
                << "threads=" << p.threads
                << " shardSize=" << p.shardSize;
        }
    }
}

TEST(FleetChurn, ShortTimeoutsFailOverIdenticallyAtAnyThreadCount)
{
    // A timeout below the loaded tail fires on live attempts too: the
    // queue holds thousands of armed deadlines, many tied, late
    // responses race their own failovers and stale entries outlive
    // their flights. Debug builds check the queue's push order.
    std::string ref_row;
    for (const unsigned threads : {1u, 2u, 8u}) {
        fleet::FleetConfig fc = churnFleet(threads, 0);
        fc.recovery.requestTimeout = 300 * kUs;
        const fleet::FleetReport rep = fleet::FleetSim(fc).run();
        ASSERT_GT(rep.dispatched, 1000u);
        EXPECT_GT(rep.timeouts, 100u);
        EXPECT_GT(rep.failovers, 100u);
        EXPECT_EQ(rep.inFlightAtEnd, 0u);
        ASSERT_TRUE(rep.health.enabled);
        EXPECT_GT(rep.health.audits, 50u);
        EXPECT_EQ(rep.health.auditViolations, 0u);
        if (ref_row.empty())
            ref_row = rep.csvRow();
        else
            EXPECT_EQ(rep.csvRow(), ref_row) << "threads=" << threads;
    }
}

// ------------------------------------------- extended audit law

obs::AuditSnapshot
crashySnapshot()
{
    obs::AuditSnapshot s;
    s.now = 10 * kMs;
    s.flightsCreated = 100;
    s.flightsFinished = 99;
    s.flightsInFlight = 1;
    s.dispatched = 90;
    s.completed = 80;
    s.lost = 4;
    s.lostToCrash = 5;
    s.measuredInFlight = 1;
    return s;
}

TEST(FaultAudit, CrashLossBalancesTheRequestLaw)
{
    obs::Auditor a(obs::AuditConfig{});
    a.audit(crashySnapshot());
    EXPECT_EQ(a.violationCount(), 0u);

    // Silently vanish the crashed work: the law breaks immediately.
    obs::AuditSnapshot bad = crashySnapshot();
    bad.lostToCrash = 0;
    a.audit(bad);
    EXPECT_EQ(a.violations(obs::AuditCheck::FleetRequests), 1u);
}

TEST(FaultAuditDeathTest, VanishedCrashLossAbortsUnderFailFast)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    obs::AuditConfig ac;
    ac.failFast = true;
    obs::Auditor a(ac);
    obs::AuditSnapshot bad = crashySnapshot();
    bad.lostToCrash = 2; // three crash losses swept under the rug
    EXPECT_DEATH(a.audit(bad), "fleet_requests");
}

} // namespace
} // namespace apc
