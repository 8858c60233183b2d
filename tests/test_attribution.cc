/**
 * @file
 * Tail-latency attribution tests: causal chain reassembly from synthetic
 * traces, the exact-additivity invariant on a fabric+NIC+cap fleet grid
 * (every critical path sums to its request's measured end-to-end latency
 * in integer ticks), the zero-footprint contract (reports byte-identical
 * with attribution on or off, across thread counts and shard layouts),
 * blame-report export shape, drop flagging, Perfetto flow events, and
 * a differential check of buildAttribution against a reference that
 * walks the merged record stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fleet/fleet_sim.h"
#include "obs/attribution.h"
#include "obs/critpath.h"

namespace apc {
namespace {

using sim::kMs;
using sim::kUs;

sim::Tick
segOf(const obs::ReplicaPath &rp, obs::Segment s)
{
    return rp.seg[static_cast<std::size_t>(s)];
}

// -------------------------------------------------- synthetic assembly

TEST(Attribution, ReassemblesSyntheticFanoutChain)
{
    obs::TraceConfig tc;
    tc.enabled = true;
    obs::Tracer tr(tc, 3); // writer 0 = fleet, 1 = server 0, 2 = server 1

    // Request 7: fanout to servers 0 and 1; server 1 is the slow leg.
    tr.writer(0)->span(100 * kUs, 50 * kUs, obs::Name::Request,
                       obs::Track::Requests, 7);
    // Replica on server 0 (fast): 10 xmit + 5 wake + 20 serve + 10 resp.
    tr.writer(0)->span(100 * kUs, 10 * kUs, obs::Name::SegXmitReq,
                       obs::Track::Segments, 7, 0.0);
    tr.writer(1)->span(110 * kUs, 5 * kUs, obs::Name::SegWake,
                       obs::Track::Segments, 7);
    tr.writer(1)->span(115 * kUs, 20 * kUs, obs::Name::SegServe,
                       obs::Track::Segments, 7);
    tr.writer(0)->span(135 * kUs, 10 * kUs, obs::Name::SegXmitResp,
                       obs::Track::Segments, 7, 0.0);
    // Replica on server 1 (critical): sums to the full 50 us.
    tr.writer(0)->span(100 * kUs, 10 * kUs, obs::Name::SegXmitReq,
                       obs::Track::Segments, 7, 1.0);
    tr.writer(2)->span(110 * kUs, 8 * kUs, obs::Name::SegQueue,
                       obs::Track::Segments, 7);
    tr.writer(2)->span(118 * kUs, 4 * kUs, obs::Name::SegStallGate,
                       obs::Track::Segments, 7);
    tr.writer(2)->span(122 * kUs, 18 * kUs, obs::Name::SegServe,
                       obs::Track::Segments, 7);
    tr.writer(2)->span(140 * kUs, 2 * kUs, obs::Name::SegStallDvfs,
                       obs::Track::Segments, 7);
    tr.writer(0)->span(142 * kUs, 8 * kUs, obs::Name::SegXmitResp,
                       obs::Track::Segments, 7, 1.0);

    const obs::AttributionResult res = obs::buildAttribution(tr);
    EXPECT_EQ(res.violations, 0u);
    EXPECT_EQ(res.incomplete, 0u);
    EXPECT_EQ(res.ringDropped, 0u);
    ASSERT_EQ(res.requests.size(), 1u);

    const obs::RequestPath &rp = res.requests[0];
    EXPECT_EQ(rp.id, 7u);
    EXPECT_EQ(rp.arrival, 100 * kUs);
    EXPECT_EQ(rp.e2e, 50 * kUs);
    EXPECT_TRUE(rp.additive);
    ASSERT_EQ(rp.replicas.size(), 2u);

    const obs::ReplicaPath &cp = rp.criticalPath();
    EXPECT_EQ(cp.srv, 1u); // the slow leg won
    EXPECT_EQ(cp.total(), 50 * kUs);
    EXPECT_EQ(segOf(cp, obs::Segment::XmitReq), 10 * kUs);
    EXPECT_EQ(segOf(cp, obs::Segment::Queue), 8 * kUs);
    EXPECT_EQ(segOf(cp, obs::Segment::StallGate), 4 * kUs);
    EXPECT_EQ(segOf(cp, obs::Segment::Serve), 18 * kUs);
    EXPECT_EQ(segOf(cp, obs::Segment::StallDvfs), 2 * kUs);
    EXPECT_EQ(segOf(cp, obs::Segment::XmitResp), 8 * kUs);
    EXPECT_EQ(cp.dominant(), obs::Segment::Serve);

    // The fast leg assembled independently and sums to its own latency.
    const obs::ReplicaPath &fast = rp.replicas[1 - rp.critical];
    EXPECT_EQ(fast.srv, 0u);
    EXPECT_EQ(fast.total(), 45 * kUs);
}

TEST(Attribution, LostRequestsAreExcluded)
{
    obs::TraceConfig tc;
    tc.enabled = true;
    obs::Tracer tr(tc, 2);
    tr.writer(0)->instant(10 * kUs, obs::Name::Lost, obs::Track::Requests,
                          3);
    tr.writer(0)->span(10 * kUs, 5 * kUs, obs::Name::SegXmitReq,
                       obs::Track::Segments, 3, 0.0);

    const obs::AttributionResult res = obs::buildAttribution(tr);
    EXPECT_EQ(res.requests.size(), 0u);
    EXPECT_EQ(res.lostExcluded, 1u);
    EXPECT_EQ(res.violations, 0u);
}

TEST(Attribution, PlainTracesWithoutSegmentsProduceNothing)
{
    // A trace recorded without attribution has Request spans but no
    // segment spans: nothing to attribute, nothing to flag.
    obs::TraceConfig tc;
    tc.enabled = true;
    obs::Tracer tr(tc, 2);
    tr.writer(0)->span(0, 100 * kUs, obs::Name::Request,
                       obs::Track::Requests, 1);
    tr.writer(0)->span(0, 200 * kUs, obs::Name::Request,
                       obs::Track::Requests, 2);

    const obs::AttributionResult res = obs::buildAttribution(tr);
    EXPECT_EQ(res.requests.size(), 0u);
    EXPECT_EQ(res.violations, 0u);
    EXPECT_EQ(res.incomplete, 0u);
}

TEST(Attribution, RingDropsFlagMismatchedChainsAsIncomplete)
{
    obs::TraceConfig tc;
    tc.enabled = true;
    tc.ringCapacity = 2; // forces wrap on the fleet writer
    obs::Tracer tr(tc, 2);
    // Three records through a 2-slot ring: the oldest (the request's
    // xmit span) is evicted, so the surviving chain cannot sum to e2e.
    tr.writer(0)->span(0, 30 * kUs, obs::Name::SegXmitReq,
                       obs::Track::Segments, 9, 0.0);
    tr.writer(1)->span(30 * kUs, 70 * kUs, obs::Name::SegServe,
                       obs::Track::Segments, 9);
    tr.writer(0)->span(0, 100 * kUs, obs::Name::Request,
                       obs::Track::Requests, 9);
    tr.writer(0)->span(0, 1 * kUs, obs::Name::SegRto,
                       obs::Track::Segments, 9, 0.0);

    const obs::AttributionResult res = obs::buildAttribution(tr);
    EXPECT_GT(res.ringDropped, 0u);
    EXPECT_EQ(res.requests.size(), 0u);
    EXPECT_EQ(res.incomplete, 1u);
    EXPECT_EQ(res.violations, 0u); // drops explain the gap, not a bug
}

// ------------------------------------------------ differential check

/**
 * Reference reassembly: walks Tracer::merged() in (ts, writer, seq)
 * order and keys requests in a hash map — the straightforward
 * formulation buildAttribution must agree with, result for result.
 */
obs::AttributionResult
referenceAttribution(const obs::Tracer &tracer)
{
    obs::AttributionResult res;
    res.ringDropped = tracer.totalDropped();

    struct Pending
    {
        sim::Tick arrival = 0;
        sim::Tick e2e = 0;
        bool finished = false;
        std::vector<obs::ReplicaPath> replicas;
    };
    std::unordered_map<std::uint64_t, Pending> byId;
    std::unordered_set<std::uint64_t> lost;
    std::uint64_t segmentSpans = 0;

    for (const obs::Tracer::MergedRecord &m : tracer.merged()) {
        const obs::TraceRecord &r = *m.rec;
        const auto kind = static_cast<obs::TraceKind>(r.kind);
        const auto name = static_cast<obs::Name>(r.name);
        if (kind == obs::TraceKind::Span && name == obs::Name::Request &&
            m.writer == 0) {
            Pending &p = byId[r.id];
            p.arrival = r.ts;
            p.e2e = r.dur;
            p.finished = true;
            continue;
        }
        if (kind == obs::TraceKind::Instant && name == obs::Name::Lost &&
            m.writer == 0) {
            lost.insert(r.id);
            continue;
        }
        if (kind != obs::TraceKind::Span)
            continue;
        const obs::Segment seg = obs::segmentFromTraceName(name);
        if (seg == obs::Segment::kCount)
            continue;
        ++segmentSpans;
        const auto srv = m.writer == 0
            ? static_cast<std::uint32_t>(r.value)
            : m.writer - 1;
        auto &replicas = byId[r.id].replicas;
        auto it = std::find_if(
            replicas.begin(), replicas.end(),
            [srv](const obs::ReplicaPath &rp) { return rp.srv == srv; });
        if (it == replicas.end()) {
            replicas.push_back({});
            it = replicas.end() - 1;
            it->srv = srv;
        }
        it->seg[static_cast<std::size_t>(seg)] += r.dur;
    }
    if (segmentSpans == 0)
        return res;

    for (auto &[id, p] : byId) {
        if (lost.count(id)) {
            ++res.lostExcluded;
            continue;
        }
        if (!p.finished)
            continue;
        obs::RequestPath rp;
        rp.id = id;
        rp.arrival = p.arrival;
        rp.e2e = p.e2e;
        rp.replicas = std::move(p.replicas);
        sim::Tick worst = -1;
        bool exact = false;
        for (std::size_t i = 0; i < rp.replicas.size(); ++i) {
            const sim::Tick t = rp.replicas[i].total();
            if (!exact && t == rp.e2e) {
                exact = true;
                rp.critical = i;
            } else if (!exact && t > worst) {
                rp.critical = i;
            }
            worst = std::max(worst, t);
        }
        rp.additive = exact;
        if (rp.additive)
            res.requests.push_back(std::move(rp));
        else if (res.ringDropped > 0)
            ++res.incomplete;
        else
            ++res.violations;
    }
    std::sort(res.requests.begin(), res.requests.end(),
              [](const obs::RequestPath &a, const obs::RequestPath &b) {
                  return a.arrival != b.arrival ? a.arrival < b.arrival
                                                : a.id < b.id;
              });
    return res;
}

void
expectSameResult(const obs::AttributionResult &got,
                 const obs::AttributionResult &want)
{
    EXPECT_EQ(got.lostExcluded, want.lostExcluded);
    EXPECT_EQ(got.incomplete, want.incomplete);
    EXPECT_EQ(got.violations, want.violations);
    EXPECT_EQ(got.ringDropped, want.ringDropped);
    ASSERT_EQ(got.requests.size(), want.requests.size());
    for (std::size_t i = 0; i < got.requests.size(); ++i) {
        const obs::RequestPath &g = got.requests[i];
        const obs::RequestPath &w = want.requests[i];
        ASSERT_EQ(g.id, w.id) << "request " << i;
        EXPECT_EQ(g.arrival, w.arrival) << "id " << g.id;
        EXPECT_EQ(g.e2e, w.e2e) << "id " << g.id;
        EXPECT_EQ(g.critical, w.critical) << "id " << g.id;
        EXPECT_EQ(g.additive, w.additive) << "id " << g.id;
        ASSERT_EQ(g.replicas.size(), w.replicas.size()) << "id " << g.id;
        for (std::size_t k = 0; k < g.replicas.size(); ++k) {
            EXPECT_EQ(g.replicas[k].srv, w.replicas[k].srv)
                << "id " << g.id << " replica " << k;
            for (std::size_t s = 0; s < obs::kNumSegments; ++s)
                EXPECT_EQ(g.replicas[k].seg[s], w.replicas[k].seg[s])
                    << "id " << g.id << " replica " << k << " segment "
                    << obs::segmentName(static_cast<obs::Segment>(s));
        }
    }
}

std::string
blameJson(const obs::AttributionResult &res)
{
    const obs::LatencyAttribution rep =
        obs::LatencyAttribution::build(res, 64);
    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *f = open_memstream(&buf, &len);
    EXPECT_TRUE(rep.writeJson(f));
    std::fclose(f);
    std::string out(buf, len);
    free(buf);
    return out;
}

/**
 * Seeded synthetic multi-writer trace (writer 0 = fleet, writer i =
 * server i-1). Arrivals sit on a coarse grid and are recorded out of
 * time order, so spans of different writers tie on `ts` and each
 * ring's recording order differs from merge order. The mix covers:
 * plain and fanout requests, failover pairs whose first spans tie
 * across server writers (both replicas exact, so merge order alone
 * picks the critical one), duplicate Request spans, Lost instants
 * with and without spans, ids still in flight, id gaps (@p id_stride
 * spreads them further), and records attribution must ignore.
 */
void
synthTrace(obs::Tracer &tr, std::uint64_t seed, std::size_t requests,
           std::uint64_t id_stride)
{
    std::mt19937_64 rng(seed);
    const auto servers = static_cast<std::uint32_t>(tr.numWriters() - 1);
    const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
    const auto dur = [&](sim::Tick unit) {
        return static_cast<sim::Tick>(1 + pick(20)) * unit;
    };
    const auto fleetSeg = [&tr](sim::Tick ts, sim::Tick d, obs::Name n,
                                std::uint64_t id, std::uint32_t srv) {
        tr.writer(0)->span(ts, d, n, obs::Track::Segments, id,
                           static_cast<double>(srv));
    };
    const auto srvSeg = [&tr](std::uint32_t srv, sim::Tick ts,
                              sim::Tick d, obs::Name n, std::uint64_t id) {
        tr.writer(srv + 1)->span(ts, d, n, obs::Track::Segments, id);
    };
    // One replica's chain from @p ts; @return its total. A chain that
    // opens on the server writer lets two replicas tie on first-span ts.
    const auto chain = [&](std::uint32_t srv, sim::Tick ts,
                           std::uint64_t id, bool server_first) {
        sim::Tick t = ts;
        if (!server_first) {
            const sim::Tick d = dur(kUs);
            fleetSeg(t, d, obs::Name::SegXmitReq, id, srv);
            t += d;
        }
        for (const obs::Name n : {obs::Name::SegWake, obs::Name::SegQueue,
                                  obs::Name::SegServe}) {
            if (n != obs::Name::SegServe && pick(2) == 0)
                continue;
            const sim::Tick d = dur(kUs / 4);
            srvSeg(srv, t, d, n, id);
            t += d;
        }
        const sim::Tick d = dur(kUs);
        fleetSeg(t, d, obs::Name::SegXmitResp, id, srv);
        return t + d - ts;
    };
    const auto request = [&tr](sim::Tick ts, sim::Tick e2e,
                               std::uint64_t id) {
        tr.writer(0)->span(ts, e2e, obs::Name::Request,
                           obs::Track::Requests, id);
    };

    std::uint64_t id = 1000 + pick(1000);
    for (std::size_t n = 0; n < requests; ++n) {
        id += id_stride * (pick(4) == 0 ? 1 + pick(5) : 1); // id gaps
        const sim::Tick arrival =
            static_cast<sim::Tick>(pick(requests / 2 + 1)) * 5 * kUs;
        const std::uint32_t a = static_cast<std::uint32_t>(pick(servers));
        const std::uint32_t b = (a + 1 + static_cast<std::uint32_t>(
                                          pick(servers - 1))) % servers;
        switch (pick(10)) {
        case 0: // still in flight: spans, no Request span
            (void)chain(a, arrival, id, false);
            break;
        case 1: // lost after some spans
            (void)chain(a, arrival, id, pick(2) == 0);
            tr.writer(0)->instant(arrival + 50 * kUs, obs::Name::Lost,
                                  obs::Track::Requests, id);
            break;
        case 2: // lost with no spans at all (and a stray Request span)
            tr.writer(0)->instant(arrival, obs::Name::Lost,
                                  obs::Track::Requests, id);
            if (pick(2) == 0)
                request(arrival, 40 * kUs, id);
            break;
        case 3: { // failover: both attempts open on server writers at
                  // the same ts, so the writer index orders them
            const sim::Tick ta = chain(a, arrival, id, true);
            const sim::Tick wait = dur(kUs);
            const sim::Tick gap = dur(kUs / 2);
            fleetSeg(arrival + 1, wait, obs::Name::SegTimeoutWait, id, b);
            fleetSeg(arrival + 1 + wait, gap, obs::Name::SegFailover, id,
                     b);
            const sim::Tick resp = dur(kUs / 2);
            const sim::Tick serve = ta - wait - gap - resp;
            if (serve > 0 && pick(2) == 0) {
                // Replica b sums to the stale attempt's total too: both
                // chains are exact and merge order picks the critical.
                srvSeg(b, arrival, serve, obs::Name::SegServe, id);
                fleetSeg(arrival + serve, resp, obs::Name::SegXmitResp, id,
                         b);
                request(arrival, ta, id);
            } else {
                request(arrival, chain(b, arrival, id, true) + wait + gap,
                        id);
            }
            break;
        }
        case 4: { // duplicate Request span: the later one in merge order
                  // wins, even when it was recorded first
            const sim::Tick t = chain(a, arrival, id, false);
            if (pick(2) == 0) {
                request(arrival + 1, t, id);
                request(arrival, t + 3 * kUs, id);
            } else {
                request(arrival, t + 3 * kUs, id);
                request(arrival, t, id);
            }
            break;
        }
        default: { // plain or fanout; the slowest replica is critical
            const std::size_t fan = pick(4) == 0 ? 2 + pick(2) : 1;
            sim::Tick e2e = 0;
            for (std::size_t k = 0; k < fan && k < servers; ++k)
                e2e = std::max(
                    e2e, chain((a + static_cast<std::uint32_t>(k)) %
                                   servers,
                               arrival, id, pick(3) == 0));
            request(arrival, e2e, id);
            break;
        }
        }
        // Records attribution ignores: package states, counters, a
        // server-side Request span and Lost instant, a segment-named
        // instant.
        tr.writer(a + 1)->span(arrival, 3 * kUs, obs::Name::PkgPc1a,
                               obs::Track::Power);
        tr.writer(0)->counter(arrival, obs::Name::CapPowerW,
                              obs::Track::Cap, 100.0);
        if (pick(8) == 0) {
            tr.writer(b + 1)->span(arrival, 9 * kUs, obs::Name::Request,
                                   obs::Track::Requests, id);
            tr.writer(b + 1)->instant(arrival, obs::Name::Lost,
                                      obs::Track::Requests, id);
            tr.writer(0)->instant(arrival, obs::Name::SegServe,
                                  obs::Track::Segments, id);
        }
    }
}

struct DiffCase
{
    std::uint64_t seed;
    std::uint32_t servers;
    std::size_t requests;
    std::size_t ringCapacity;
    std::uint64_t idStride;
};

TEST(AttributionDiff, MatchesMergedOrderReference)
{
    const std::vector<DiffCase> cases = {
        {1, 2, 400, 1u << 16, 1},  // two servers: dense ties
        {2, 5, 1500, 1u << 16, 1}, // wider fleet
        {3, 4, 800, 1u << 16, 7},  // id gaps beyond the fleet's counter
        {4, 3, 600, 1u << 16, std::uint64_t{1} << 40}, // sparse ids
        {5, 4, 1200, 600, 1},      // wrapped rings
        {6, 2, 2000, 97, 3},       // heavily wrapped, gapped
    };
    std::uint64_t incomplete = 0;
    std::ptrdiff_t critical_by_order = 0;
    for (const DiffCase &c : cases) {
        SCOPED_TRACE("seed " + std::to_string(c.seed));
        obs::TraceConfig tc;
        tc.enabled = true;
        tc.ringCapacity = c.ringCapacity;
        obs::Tracer tr(tc, c.servers + 1);
        synthTrace(tr, c.seed, c.requests, c.idStride);

        const obs::AttributionResult want = referenceAttribution(tr);
        const obs::AttributionResult got = obs::buildAttribution(tr);
        expectSameResult(got, want);
        EXPECT_EQ(blameJson(got), blameJson(want));

        // The mix reached every path it is meant to.
        EXPECT_GT(want.requests.size(), 0u);
        EXPECT_GT(want.lostExcluded, 0u);
        const bool wrapped = tr.totalDropped() > 0;
        EXPECT_EQ(wrapped, c.ringCapacity < c.requests);
        if (!wrapped) {
            EXPECT_EQ(want.violations, 0u);
        }
        incomplete += want.incomplete;
        critical_by_order += std::count_if(
            want.requests.begin(), want.requests.end(),
            [](const obs::RequestPath &rp) { return rp.critical > 0; });
    }
    EXPECT_GT(incomplete, 0u);
    EXPECT_GT(critical_by_order, 0);
}

TEST(AttributionDiff, EmptyAndSegmentFreeTracesMatch)
{
    obs::TraceConfig tc;
    tc.enabled = true;
    obs::Tracer empty(tc, 3);
    expectSameResult(obs::buildAttribution(empty),
                     referenceAttribution(empty));

    obs::Tracer plain(tc, 3);
    plain.writer(0)->span(0, 10 * kUs, obs::Name::Request,
                          obs::Track::Requests, 5);
    plain.writer(0)->instant(0, obs::Name::Lost, obs::Track::Requests, 6);
    const obs::AttributionResult res = obs::buildAttribution(plain);
    expectSameResult(res, referenceAttribution(plain));
    EXPECT_EQ(res.lostExcluded, 0u);
}

// ---------------------------------------------- fleet-level invariants

fleet::FleetConfig
gridFleet(std::size_t servers, unsigned threads, std::size_t shard_size,
          bool attribution)
{
    fleet::FleetConfig fc;
    fc.numServers = servers;
    fc.policy = soc::PackagePolicy::Cpc1a;
    fc.workload = workload::WorkloadConfig::memcachedEtc(0);
    fc.dispatch = fleet::DispatchKind::LeastOutstanding;
    fc.traffic.arrivalKind = workload::ArrivalKind::Poisson;
    fc.traffic.qps = fc.workload.qpsForUtilization(
        0.05, static_cast<int>(fc.numServers) * 10);
    fc.traffic.fanout = {0.05, 4};
    fc.sloUs = 10000.0;
    fc.warmup = 4 * kMs;
    fc.duration = 12 * kMs;
    fc.seed = 99;
    fc.threads = threads;
    fc.shardSize = shard_size;
    // The full stack: lossy fabric + NIC coalescing + oversubscribed
    // budget capping (both actuators), so every segment class can
    // appear on a critical path.
    fc.fabric.enabled = true;
    fc.nic.enabled = true;
    fc.nic.rxUsecs = 20 * kUs;
    fc.budget.enabled = true;
    fc.budget.oversubscription = 1.5;
    fc.cap.actuator = cap::CapActuator::Hybrid;
    fc.attribution.enabled = attribution;
    fc.trace.ringCapacity = 1u << 18; // fleet spine carries all transits
    return fc;
}

TEST(AttributionFleet, ThousandServerGridIsExactlyAdditive)
{
    auto fc = gridFleet(1000, 8, 0, true);
    // The fleet spine records every request's transits: at this scale
    // that is several records per request, so give writer 0 room — the
    // additivity check below requires zero ring drops.
    fc.trace.ringCapacity = 1u << 20;
    fleet::FleetSim fleet(fc);
    const fleet::FleetReport rep = fleet.run();
    ASSERT_GT(rep.dispatched, 1000u);

    // No ring wrap: every chain must be present and exact.
    EXPECT_EQ(rep.traceDrops, 0u);
    ASSERT_TRUE(rep.attribution.enabled);
    EXPECT_EQ(rep.attribution.violations, 0u);
    EXPECT_EQ(rep.attribution.incomplete, 0u);
    EXPECT_GT(rep.attribution.requests, 1000u);
    EXPECT_GT(rep.attribution.fanoutRequests, 0u);

    // Exact integer additivity on every carried sample: the critical
    // path's segments sum to the measured end-to-end latency.
    ASSERT_GT(rep.attribution.samples.size(), 100u);
    for (const obs::RequestSample &s : rep.attribution.samples) {
        sim::Tick sum = 0;
        for (std::size_t k = 0; k < obs::kNumSegments; ++k)
            sum += s.segTicks[k];
        ASSERT_EQ(sum, s.e2eTicks) << "request " << s.id;
    }

    // Bands partition the attributed population, and each band's
    // per-segment means sum (in FP) to its end-to-end mean.
    std::uint64_t banded = 0;
    for (std::size_t b = 0; b < obs::LatencyAttribution::kNumBands; ++b) {
        const obs::BlameBand &band = rep.attribution.bands[b];
        banded += band.count;
        if (band.count == 0)
            continue;
        double sum = 0.0;
        for (double v : band.segMeanUs)
            sum += v;
        EXPECT_NEAR(sum, band.e2eMeanUs, 1e-6 * band.e2eMeanUs + 1e-9)
            << "band " << obs::LatencyAttribution::bandLabel(b);
    }
    EXPECT_EQ(banded, rep.attribution.requests);

    // Critical-segment counts cover every attributed request.
    std::uint64_t critical = 0;
    for (std::uint64_t c : rep.attribution.criticalBySegment)
        critical += c;
    EXPECT_EQ(critical, rep.attribution.requests);

    // The grid ran hot enough that serve time isn't the whole story.
    EXPECT_GT(rep.attribution.tailMeanUs(obs::Segment::Serve), 0.0);
}

TEST(AttributionFleet, ZeroFootprintAcrossThreadsAndShardLayouts)
{
    // Reports must be byte-identical with attribution on or off, at any
    // thread count and shard size — and the attribution itself must be
    // identical across layouts.
    const fleet::FleetReport plain =
        fleet::FleetSim(gridFleet(192, 1, 0, false)).run();
    const std::string reference = plain.csvRow();

    struct Point
    {
        unsigned threads;
        std::size_t shardSize;
    };
    std::string ref_blame;
    for (const Point &p : std::vector<Point>{{1, 0}, {2, 7}, {8, 64}}) {
        fleet::FleetSim fleet(
            gridFleet(192, p.threads, p.shardSize, true));
        const fleet::FleetReport rep = fleet.run();
        EXPECT_EQ(rep.csvRow(), reference)
            << "threads=" << p.threads << " shardSize=" << p.shardSize;
        EXPECT_EQ(rep.attribution.violations, 0u);

        char *buf = nullptr;
        std::size_t len = 0;
        std::FILE *f = open_memstream(&buf, &len);
        ASSERT_TRUE(rep.attribution.writeJson(f));
        std::fclose(f);
        std::string blame(buf, len);
        free(buf);
        if (ref_blame.empty())
            ref_blame = blame;
        else
            EXPECT_EQ(blame, ref_blame)
                << "blame report differs at threads=" << p.threads;
    }
}

TEST(AttributionFleet, BlameReportExportShape)
{
    fleet::FleetSim fleet(gridFleet(32, 2, 0, true));
    const fleet::FleetReport rep = fleet.run();
    ASSERT_TRUE(rep.attribution.enabled);

    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *f = open_memstream(&buf, &len);
    ASSERT_TRUE(rep.attribution.writeCsv(f));
    std::fclose(f);
    std::string csv(buf, len);
    free(buf);
    EXPECT_NE(csv.find("band,count,e2e_mean_us"), std::string::npos);
    EXPECT_NE(csv.find("stall_gate_us"), std::string::npos);
    for (const char *band : {"p50", "p95", "p99", "p999", "p100"})
        EXPECT_NE(csv.find(std::string("\n") + band + ","),
                  std::string::npos)
            << band;

    f = open_memstream(&buf, &len);
    ASSERT_TRUE(rep.attribution.writeJson(f));
    std::fclose(f);
    std::string json(buf, len);
    free(buf);
    EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"segments\": [\"xmit_req\", \"rto\""),
              std::string::npos);
    EXPECT_NE(json.find("\"bands\": ["), std::string::npos);
    EXPECT_NE(json.find("\"blame_us\""), std::string::npos);
    EXPECT_NE(json.find("\"critical_segment_counts\""), std::string::npos);
    EXPECT_NE(json.find("\"samples\": ["), std::string::npos);
    EXPECT_NE(json.find("\"seg_ticks\""), std::string::npos);
    EXPECT_NE(json.find("\"violations\": 0"), std::string::npos);
    EXPECT_FALSE(rep.attribution.writeJson("/nonexistent/dir/blame.json"));
}

TEST(AttributionFleet, TraceExportCarriesFlowEvents)
{
    fleet::FleetSim fleet(gridFleet(32, 2, 0, true));
    (void)fleet.run();
    const std::string path = "/tmp/apc_test_attr_trace.json";
    ASSERT_TRUE(fleet.writeTrace(path));
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string out;
    char chunk[4096];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        out.append(chunk, n);
    std::fclose(f);
    std::remove(path.c_str());

    // Segment spans and the s/t/f flow triplets made it into the export.
    EXPECT_NE(out.find("\"name\":\"seg_serve\""), std::string::npos);
    EXPECT_NE(out.find("\"args\":{\"name\":\"segments\"}"),
              std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"t\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"f\",\"bp\":\"e\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"req_flow\""), std::string::npos);
}

TEST(AttributionFleet, TinyRingsAreFlaggedNotAsserted)
{
    auto fc = gridFleet(32, 2, 0, true);
    fc.trace.ringCapacity = 512; // far too small: rings must wrap
    fleet::FleetSim fleet(fc);
    const fleet::FleetReport rep = fleet.run();
    EXPECT_GT(rep.traceDrops, 0u);
    EXPECT_GT(rep.traceRecords, rep.traceDrops);
    // Broken chains are flagged incomplete — never reported as additive
    // garbage, and never counted as invariant violations.
    EXPECT_EQ(rep.attribution.violations, 0u);
    EXPECT_EQ(rep.attribution.ringDropped, rep.traceDrops);
}

} // namespace
} // namespace apc
