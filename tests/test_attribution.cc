/**
 * @file
 * Tail-latency attribution tests: the online chain accumulator on
 * hand-built requests (critical-replica choice, trace-order tie breaks,
 * lost requests, the chunked record store), a differential check of
 * the in-place rank build against a plain sort and the LSD build it
 * replaced, a differential check of the accumulator against the
 * merged-order trace reference
 * (attribution_reference.h) on seeded synthetic traces and on real
 * fleet runs, the exact-additivity invariant on a fabric+NIC+cap fleet
 * grid (every critical path sums to its request's measured end-to-end
 * latency in integer ticks), the zero-footprint contract (reports
 * byte-identical with attribution on or off, across thread counts and
 * shard layouts), blame-report export shape, independence from trace
 * ring size, and Perfetto flow events.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "attribution_reference.h"
#include "fleet/fleet_sim.h"
#include "obs/attribution.h"
#include "obs/critpath.h"
#include "obs/fmt.h"
#include "stats/rank.h"

namespace apc {
namespace {

using sim::kMs;
using sim::kUs;
using testref::blameJson;
using testref::recordsByArrival;
using testref::referenceAttribution;

sim::Tick
segOf(const obs::RequestRecord &r, obs::Segment s)
{
    return r.seg[static_cast<std::size_t>(s)];
}

/** A server's sums for back-to-back segments from @p first, recorded
 *  as trace writer srv + 1. */
void
serverSegs(obs::ReplicaSums &r,
           std::initializer_list<std::pair<obs::Segment, sim::Tick>> segs,
           sim::Tick first)
{
    sim::Tick at = first;
    for (const auto &[s, d] : segs) {
        r.sums.add(s, at, d, r.srv + 1);
        at += d;
    }
}

/** The critical server of a request answered after @p e2e. */
std::uint32_t
criticalSrv(const std::vector<obs::ReplicaSums> &reps, sim::Tick e2e)
{
    obs::AttributionResult res;
    res.answered(1, 0, e2e, reps.data(), reps.size());
    EXPECT_EQ(res.size(), 1u);
    return res.size() ? res[0].srv : UINT32_MAX;
}

// ---------------------------------------------------- online chains

TEST(AttributionChains, FanoutFoldsTheExactSlowLeg)
{
    // Request 7: fanout to servers 0 and 1; server 1 is the slow leg.
    std::vector<obs::ReplicaSums> reps = {{0, {}}, {1, {}}};
    std::uint64_t seq = 0;
    // Replica on server 0 (fast): 10 xmit + 5 wake + 20 serve + 10 resp.
    reps[0].sums.add(obs::Segment::XmitReq, 100 * kUs, 10 * kUs, 0, seq++);
    // Replica on server 1 (critical): sums to the full 50 us.
    reps[1].sums.add(obs::Segment::XmitReq, 100 * kUs, 10 * kUs, 0, seq++);
    serverSegs(reps[0],
               {{obs::Segment::Wake, 5 * kUs}, {obs::Segment::Serve, 20 * kUs}},
               110 * kUs);
    serverSegs(reps[1],
               {{obs::Segment::Queue, 8 * kUs},
                {obs::Segment::StallGate, 4 * kUs},
                {obs::Segment::Serve, 18 * kUs},
                {obs::Segment::StallDvfs, 2 * kUs}},
               110 * kUs);
    reps[0].sums.add(obs::Segment::XmitResp, 135 * kUs, 10 * kUs, 0, seq++);
    reps[1].sums.add(obs::Segment::XmitResp, 142 * kUs, 8 * kUs, 0, seq++);

    obs::AttributionResult res;
    res.answered(7, 100 * kUs, 50 * kUs, reps.data(), reps.size());
    EXPECT_EQ(res.violations, 0u);
    ASSERT_EQ(res.size(), 1u);

    const obs::RequestRecord &r = res[0];
    EXPECT_EQ(r.id, 7u);
    EXPECT_EQ(r.arrival, 100 * kUs);
    EXPECT_EQ(r.e2e, 50 * kUs);
    EXPECT_EQ(r.srv, 1u); // the slow leg won
    EXPECT_EQ(r.replicas, 2u);
    EXPECT_EQ(segOf(r, obs::Segment::XmitReq), 10 * kUs);
    EXPECT_EQ(segOf(r, obs::Segment::Queue), 8 * kUs);
    EXPECT_EQ(segOf(r, obs::Segment::StallGate), 4 * kUs);
    EXPECT_EQ(segOf(r, obs::Segment::Serve), 18 * kUs);
    EXPECT_EQ(segOf(r, obs::Segment::StallDvfs), 2 * kUs);
    EXPECT_EQ(segOf(r, obs::Segment::XmitResp), 8 * kUs);
    const obs::LatencyAttribution la = obs::LatencyAttribution::build(res, 0);
    EXPECT_EQ(la.criticalBySegment[static_cast<std::size_t>(
                  obs::Segment::Serve)],
              1u);

    // The fast leg's chain sums to its own 45 us, not to the latency.
    EXPECT_EQ(reps[0].sums.total(), 45 * kUs);
    EXPECT_EQ(reps[0].sums.first.ts, 100 * kUs);
    EXPECT_EQ(reps[0].sums.first.writer, 0u);
}

TEST(AttributionChains, TiesBreakInMergedTraceOrder)
{
    const auto sole = [](std::uint32_t srv, sim::Tick at,
                         std::uint32_t writer, std::uint64_t seq) {
        obs::ReplicaSums r{srv, {}};
        r.sums.add(obs::Segment::Serve, at, 30, writer, seq);
        return r;
    };
    // Both exact: the earlier first segment wins, whatever the order
    // the replicas are listed in.
    EXPECT_EQ(criticalSrv({sole(4, 20, 0, 0), sole(2, 10, 0, 1)}, 30), 2u);
    // Same first tick: spine segments precede server segments.
    EXPECT_EQ(criticalSrv({sole(1, 10, 2, 0), sole(3, 10, 0, 5)}, 30), 3u);
    // Same first tick on two servers: the lower writer wins.
    EXPECT_EQ(criticalSrv({sole(6, 10, 7, 0), sole(5, 10, 6, 0)}, 30), 5u);
    // Same first tick on the spine: emission order wins.
    EXPECT_EQ(criticalSrv({sole(0, 10, 0, 7), sole(1, 10, 0, 8)}, 30), 0u);
    // A non-exact replica never wins, however early.
    obs::ReplicaSums early = sole(9, 0, 0, 0);
    early.sums.add(obs::Segment::Wake, 0, 1, 0, 1);
    EXPECT_EQ(criticalSrv({early, sole(1, 10, 0, 8)}, 30), 1u);
}

TEST(AttributionChains, ChainsMergePerServerAndSkipEmptySums)
{
    obs::RequestChains ch;
    ch.add({3, {}}); // a server that measured nothing adds no replica
    EXPECT_EQ(ch.size(), 0u);
    obs::ReplicaSums a{3, {}};
    a.sums.add(obs::Segment::XmitReq, 20, 5, 0, 1);
    obs::ReplicaSums b{3, {}};
    b.sums.add(obs::Segment::Serve, 25, 7, 4);
    b.sums.add(obs::Segment::Rto, 10, 2, 0, 9);
    ch.add(a);
    ch.add(b); // same server: one replica, sums and earliest key merged
    ch.add({5, a.sums});
    ASSERT_EQ(ch.size(), 2u);
    const obs::ReplicaSums &m = ch.data()[0];
    EXPECT_EQ(m.srv, 3u);
    EXPECT_EQ(m.sums.total(), 14);
    EXPECT_EQ(m.sums.first.ts, 10);
    EXPECT_EQ(m.sums.first.seq, 9u);
    EXPECT_EQ(ch.data()[1].srv, 5u);
}

TEST(AttributionChains, LostRequestsCountOnlyWithSegments)
{
    obs::AttributionResult res;
    res.lost(0); // never measured a segment
    EXPECT_EQ(res.lostExcluded, 0u);
    res.lost(2);
    EXPECT_EQ(res.lostExcluded, 1u);
    EXPECT_EQ(res.size(), 0u);
    EXPECT_EQ(res.violations, 0u);
}

TEST(AttributionChains, ChunkedStoreKeepsRecordsInPlace)
{
    // Several chunks' worth of records, folded out of arrival order
    // with arrival ties: the store keeps every record's slot where it
    // was put, and firstByArrival orders them by (arrival, id).
    obs::AttributionResult res;
    constexpr std::size_t kN = 10000;
    const obs::AttributionResult::Slot *first = nullptr;
    for (std::size_t i = 0; i < kN; ++i) {
        obs::RequestRecord r;
        r.id = (i * 7919) % kN;
        r.arrival = static_cast<sim::Tick>(r.id / 3);
        r.e2e = static_cast<sim::Tick>(i);
        r.seg[static_cast<std::size_t>(obs::Segment::Serve)] = r.e2e;
        r.replicas = 1; // packs into its slot
        res.push(r);
        if (i == 0)
            first = &res.slot(0);
    }
    ASSERT_EQ(res.size(), kN);
    EXPECT_EQ(&res.slot(0), first); // no reallocation moved it
    EXPECT_EQ(res.sideRecords(), 0u);
    for (std::size_t i = 0; i < kN; ++i)
        ASSERT_EQ(res[i].e2e, static_cast<sim::Tick>(i));
    const std::vector<std::uint32_t> order = res.firstByArrival(kN);
    ASSERT_EQ(order.size(), kN);
    for (std::size_t k = 0; k < kN; ++k)
        ASSERT_EQ(res[order[k]].id, k);
    EXPECT_EQ(res.firstByArrival(5).size(), 5u);
    EXPECT_EQ(res[res.firstByArrival(5)[4]].id, 4u);
}

TEST(AttributionChains, BandsFollowExactRankOrder)
{
    // Latencies above 2^32 ticks that differ only in low bits, exact
    // ties, and records folded out of arrival order: the blame bands
    // must sum each band's records in exact (e2e, arrival, id) order.
    std::mt19937_64 rng(11);
    obs::AttributionResult res;
    std::vector<obs::RequestRecord> recs;
    for (std::uint64_t i = 0; i < 5000; ++i) {
        obs::RequestRecord r;
        r.id = (i * 4099) % 5000;
        r.arrival = static_cast<sim::Tick>(rng() % 1000);
        r.seg[static_cast<std::size_t>(obs::Segment::Serve)] =
            (sim::Tick{1} << 36) + static_cast<sim::Tick>(rng() % 64);
        r.seg[static_cast<std::size_t>(obs::Segment::Queue)] =
            static_cast<sim::Tick>(rng() % 3) * 1000003;
        r.e2e = r.seg[static_cast<std::size_t>(obs::Segment::Serve)] +
            r.seg[static_cast<std::size_t>(obs::Segment::Queue)];
        r.replicas = 1;
        res.push(r);
        recs.push_back(r);
    }
    std::sort(recs.begin(), recs.end(),
              [](const obs::RequestRecord &a, const obs::RequestRecord &b) {
                  return a.e2e != b.e2e ? a.e2e < b.e2e
                                        : obs::arrivedBefore(a, b);
              });
    const auto edges = stats::percentileBandEdges(recs.size());
    const obs::LatencyAttribution la = obs::LatencyAttribution::build(res, 0);
    for (std::size_t b = 0; b < obs::LatencyAttribution::kNumBands; ++b) {
        double e2e = 0.0, serve = 0.0, queue = 0.0;
        for (std::size_t r = edges[b]; r < edges[b + 1]; ++r) {
            e2e += sim::toMicros(recs[r].e2e);
            serve += sim::toMicros(segOf(recs[r], obs::Segment::Serve));
            queue += sim::toMicros(segOf(recs[r], obs::Segment::Queue));
        }
        const obs::BlameBand &band = la.bands[b];
        ASSERT_EQ(band.count, edges[b + 1] - edges[b]);
        const double inv = 1.0 / static_cast<double>(band.count);
        EXPECT_EQ(band.e2eMeanUs, e2e * inv) << "band " << b;
        EXPECT_EQ(band.segMeanUs[static_cast<std::size_t>(
                      obs::Segment::Serve)],
                  serve * inv);
        EXPECT_EQ(band.segMeanUs[static_cast<std::size_t>(
                      obs::Segment::Queue)],
                  queue * inv);
    }
}

TEST(AttributionChains, PackedStoreRoundTripsEveryWideClass)
{
    // Narrow records mixed with every class a slot cannot hold —
    // replicas 0, 2 and 3, e2e != the segment sum, a segment or the id
    // at 2^32, srv at or above the side sentinel, more than 8 non-zero
    // segments — plus the largest values that still pack, over several
    // chunks and out of arrival order: operator[] returns every field
    // as pushed, exactly the wide ones take the side table, and the
    // bands sum over both kinds in exact (e2e, arrival, id) order.
    using Store = obs::AttributionResult;
    constexpr sim::Tick k32 = sim::Tick{1} << 32;
    constexpr std::size_t kN = 3 * Store::kChunk + 123;
    const auto at = [](obs::Segment s) {
        return static_cast<std::size_t>(s);
    };
    std::mt19937_64 rng(29);
    Store res;
    std::vector<obs::RequestRecord> recs;
    std::size_t wide = 0;
    for (std::size_t i = 0; i < kN; ++i) {
        obs::RequestRecord r;
        r.id = (i * 7919) % kN;
        r.arrival = static_cast<sim::Tick>(rng() % 2000);
        r.srv = static_cast<std::uint32_t>(rng() % 64);
        r.replicas = 1;
        for (sim::Tick &s : r.seg)
            s = rng() % 4 == 0 ? static_cast<sim::Tick>(rng() % 100000) : 0;
        r.seg[at(obs::Segment::Serve)] +=
            1 + static_cast<sim::Tick>(rng() % 5000);
        // The class this case must land in; default cases may be either.
        int packs = -1;
        switch (i % 20) {
        case 1:
            r.replicas = 0;
            packs = 0;
            break;
        case 3:
            r.replicas = 2;
            packs = 0;
            break;
        case 5:
            r.replicas = 3;
            packs = 0;
            break;
        case 7:
            r.seg[at(obs::Segment::Queue)] = k32;
            packs = 0;
            break;
        case 9:
            r.id += static_cast<std::uint64_t>(k32);
            packs = 0;
            break;
        case 11:
            r.srv = Store::kSide;
            packs = 0;
            break;
        case 13: // e2e is set off the segment sum below
            packs = 0;
            break;
        case 15: // the largest segment, id, server and segment count
                 // that still pack
            for (std::size_t s = 0; s < obs::kNumSegments; ++s)
                r.seg[s] = s < Store::kSlotSegments
                    ? 1 + static_cast<sim::Tick>(rng() % 1000)
                    : 0;
            r.seg[at(obs::Segment::Wake)] = k32 - 1;
            if (i == 15)
                r.id = static_cast<std::uint64_t>(k32 - 1);
            r.srv = Store::kSide - 1;
            packs = 1;
            break;
        case 17:
            r.srv = UINT32_MAX;
            packs = 0;
            break;
        case 19: // nine non-zero segments
            for (std::size_t s = 0; s < 9; ++s)
                r.seg[s] += 1;
            packs = 0;
            break;
        default:
            break;
        }
        for (const sim::Tick s : r.seg)
            r.e2e += s;
        if (i % 20 == 13)
            r.e2e += 1 + static_cast<sim::Tick>(rng() % 3);
        if (packs >= 0) {
            ASSERT_EQ(testref::fitsSlot(r), packs == 1) << "record " << i;
        }
        wide += testref::fitsSlot(r) ? 0 : 1;
        res.push(r);
        recs.push_back(r);
    }
    ASSERT_EQ(res.size(), kN);
    EXPECT_EQ(res.sideRecords(), wide);
    EXPECT_LE(res.slotBytes(), 48 * kN + 48 * Store::kChunk);
    std::vector<obs::RequestRecord> got;
    for (std::size_t i = 0; i < kN; ++i)
        got.push_back(res[i]);
    testref::expectSameRecords(got, recs);

    std::sort(recs.begin(), recs.end(),
              [](const obs::RequestRecord &a, const obs::RequestRecord &b) {
                  return a.e2e != b.e2e ? a.e2e < b.e2e
                                        : obs::arrivedBefore(a, b);
              });
    const auto edges = stats::percentileBandEdges(recs.size());
    const obs::LatencyAttribution la =
        obs::LatencyAttribution::build(res, SIZE_MAX);
    for (std::size_t b = 0; b < obs::LatencyAttribution::kNumBands; ++b) {
        double e2e = 0.0;
        double seg[obs::kNumSegments] = {};
        for (std::size_t r = edges[b]; r < edges[b + 1]; ++r) {
            e2e += sim::toMicros(recs[r].e2e);
            for (std::size_t s = 0; s < obs::kNumSegments; ++s)
                seg[s] += sim::toMicros(recs[r].seg[s]);
        }
        const obs::BlameBand &band = la.bands[b];
        ASSERT_EQ(band.count, edges[b + 1] - edges[b]);
        const double inv = 1.0 / static_cast<double>(band.count);
        EXPECT_EQ(band.e2eMeanUs, e2e * inv) << "band " << b;
        for (std::size_t s = 0; s < obs::kNumSegments; ++s)
            EXPECT_EQ(band.segMeanUs[s], seg[s] * inv)
                << "band " << b << " segment " << s;
    }
    std::uint64_t fanout = 0;
    for (const obs::RequestRecord &r : recs)
        fanout += r.replicas > 1 ? 1 : 0;
    EXPECT_EQ(la.fanoutRequests, fanout);
    std::sort(recs.begin(), recs.end(), obs::arrivedBefore);
    testref::expectSameRecords(la.samples, recs);
}

/**
 * A seeded store of @p n records, folded out of arrival order: mostly
 * 6-7 non-zero segments as a fleet's chains have, exact latency and
 * arrival ties, and every side-table class. With @p big_latency, some
 * packed chains sum past 2^32 and some segments reach 2^36, so the
 * rank keys drop low latency bits and whole runs tie on their prefix.
 */
void
seededStore(std::uint64_t seed, std::size_t n, bool big_latency,
            obs::AttributionResult &res, std::vector<obs::RequestRecord> &recs)
{
    using Store = obs::AttributionResult;
    constexpr sim::Tick k32 = sim::Tick{1} << 32;
    std::mt19937_64 rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        obs::RequestRecord r;
        r.id = (i * 7919 + seed) % n;
        r.arrival = static_cast<sim::Tick>(rng() % (n / 4));
        r.srv = static_cast<std::uint32_t>(rng() % 128);
        r.replicas = 1;
        if (!recs.empty() && rng() % 8 == 0) {
            // An exact latency tie with an earlier record.
            const obs::RequestRecord &twin = recs[rng() % recs.size()];
            std::copy(std::begin(twin.seg), std::end(twin.seg), r.seg);
        } else {
            const std::size_t nonzero = 6 + rng() % 2;
            for (std::size_t k = 0; k < nonzero; ++k)
                r.seg[rng() % obs::kNumSegments] +=
                    1 + static_cast<sim::Tick>(rng() % 20000);
        }
        switch (rng() % 32) {
        case 0:
            r.replicas = 0;
            break;
        case 1:
            r.replicas = 2;
            break;
        case 2:
            r.replicas = 3;
            break;
        case 3:
            r.id += static_cast<std::uint64_t>(k32);
            break;
        case 4:
            r.srv = Store::kSide;
            break;
        case 5:
            r.srv = UINT32_MAX;
            break;
        case 6:
            r.srv = Store::kSide - 1;
            break;
        case 7: // more than 8 non-zero segments
            for (sim::Tick &s : r.seg)
                s += 1 + static_cast<sim::Tick>(rng() % 7);
            break;
        case 8: // no segment at all
            std::fill(std::begin(r.seg), std::end(r.seg), 0);
            break;
        case 9:
            if (big_latency)
                r.seg[static_cast<std::size_t>(obs::Segment::Serve)] =
                    (sim::Tick{1} << 36) + static_cast<sim::Tick>(rng() % 64);
            break;
        case 10:
        case 11:
            if (big_latency) {
                // Packs, but sums past 2^32 with low-bit ties.
                r.seg[static_cast<std::size_t>(obs::Segment::Serve)] =
                    k32 - 1 - static_cast<sim::Tick>(rng() % 64);
                r.seg[static_cast<std::size_t>(obs::Segment::Queue)] =
                    (k32 >> 1) + static_cast<sim::Tick>(rng() % 64);
            }
            break;
        default:
            break;
        }
        for (const sim::Tick s : r.seg)
            r.e2e += s;
        if (rng() % 40 == 0)
            r.e2e += 1 + static_cast<sim::Tick>(rng() % 3);
        res.push(r);
        recs.push_back(r);
    }
}

TEST(AttributionChains, RankBuildMatchesPlainSortAndLsdBuild)
{
    // The in-place rank build against two references on seeded stores
    // of three or more chunks: a plain std::sort of the records by
    // (e2e, arrival, id), and the LSD radix build it replaced. Band
    // means must agree bit for bit, so the bands summed in the same
    // order.
    struct Case
    {
        std::uint64_t seed;
        std::size_t n;
        bool bigLatency;
        std::size_t samples;
    };
    constexpr std::size_t kChunk = obs::AttributionResult::kChunk;
    for (const Case &c : std::vector<Case>{{3, 3 * kChunk + 123, false, 300},
                                           {5, 3 * kChunk + 7, true, SIZE_MAX},
                                           {8, 15 * kChunk + 1, true, 256},
                                           {13, 15 * kChunk, false, 0}}) {
        SCOPED_TRACE(c.seed);
        obs::AttributionResult res;
        std::vector<obs::RequestRecord> recs;
        seededStore(c.seed, c.n, c.bigLatency, res, recs);
        std::size_t wide = 0;
        for (const obs::RequestRecord &r : recs)
            wide += testref::fitsSlot(r) ? 0 : 1;
        EXPECT_EQ(res.sideRecords(), wide);
        EXPECT_GT(wide, c.n / 8);
        std::vector<obs::RequestRecord> got;
        for (std::size_t i = 0; i < res.size(); ++i)
            got.push_back(res[i]);
        testref::expectSameRecords(got, recs);

        const obs::LatencyAttribution la =
            obs::LatencyAttribution::build(res, c.samples);
        testref::expectSameBlame(la, testref::referenceBlame(recs, c.samples));
        testref::expectSameBlame(
            la, testref::blameInOrder(testref::lsdRanked(res), c.samples));
    }
}

// ------------------------------------------- synthetic differential

/**
 * Records a synthetic request both as FleetSim lays it out in a trace
 * (writer 0 = fleet, server segments on writer srv + 1) and into the
 * online accumulator, as the fleet would: every replica's sums (spine
 * segments keyed by the spine's emission count, server segments by
 * the server's writer) kept per server until the request closes.
 */
class Synth
{
  public:
    Synth(obs::Tracer &tr, obs::AttributionResult &res)
        : tr_(tr), res_(res)
    {
    }

    void
    begin(std::uint64_t id)
    {
        id_ = id;
        sums_.clear();
    }

    void
    spine(std::uint32_t srv, obs::Segment s, sim::Tick at, sim::Tick dur)
    {
        tr_.writer(0)->span(at, dur, obs::segmentTraceName(s),
                            obs::Track::Segments, id_,
                            static_cast<double>(srv));
        sums_[srv].add(s, at, dur, 0, seq_++);
    }

    void
    server(std::uint32_t srv, obs::Segment s, sim::Tick at, sim::Tick dur)
    {
        tr_.writer(srv + 1)->span(at, dur, obs::segmentTraceName(s),
                                  obs::Track::Segments, id_);
        sums_[srv].add(s, at, dur, srv + 1);
    }

    void
    answer(sim::Tick arrival, sim::Tick e2e)
    {
        const obs::RequestChains ch = chains();
        tr_.writer(0)->span(arrival, e2e, obs::Name::Request,
                            obs::Track::Requests, id_);
        res_.answered(id_, arrival, e2e, ch.data(), ch.size());
    }

    void
    lose(sim::Tick at)
    {
        tr_.writer(0)->instant(at, obs::Name::Lost, obs::Track::Requests,
                               id_);
        res_.lost(chains().size());
    }

  private:
    /** The replicas, listed from the highest server down: the fold
     *  must not depend on the listing order. */
    obs::RequestChains
    chains() const
    {
        obs::RequestChains ch;
        for (auto it = sums_.rbegin(); it != sums_.rend(); ++it)
            ch.add({it->first, it->second});
        return ch;
    }

    obs::Tracer &tr_;
    obs::AttributionResult &res_;
    std::uint64_t id_ = 0;
    std::uint64_t seq_ = 0;
    std::map<std::uint32_t, obs::SegmentSums> sums_;
};

/**
 * Seeded synthetic requests on a coarse arrival grid, recorded out of
 * time order, so segments of different writers tie on their start
 * tick. The mix covers plain and fanout requests (fanout legs can tie
 * exactly), failover pairs whose first segments tie across server
 * writers (both chains exact, so trace order alone picks the
 * critical), gap segments attributed after later ones, lost requests
 * with and without segments, requests still in flight, id gaps, and
 * records attribution must ignore. @return requests with two exact
 * chains.
 */
std::size_t
synthRun(obs::Tracer &tr, obs::AttributionResult &res, std::uint64_t seed,
         std::size_t requests)
{
    std::mt19937_64 rng(seed);
    Synth syn(tr, res);
    const auto servers = static_cast<std::uint32_t>(tr.numWriters() - 1);
    const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
    const auto dur = [&](sim::Tick unit) {
        return static_cast<sim::Tick>(1 + pick(4)) * unit;
    };
    // One replica's chain from @p ts; @return its total. A chain that
    // opens on the server writer lets two replicas tie on first tick.
    const auto chain = [&](std::uint32_t srv, sim::Tick ts,
                           bool server_first) {
        sim::Tick t = ts;
        if (!server_first) {
            const sim::Tick d = dur(kUs);
            syn.spine(srv, obs::Segment::XmitReq, t, d);
            t += d;
        }
        for (const obs::Segment s : {obs::Segment::Wake, obs::Segment::Queue,
                                     obs::Segment::Serve}) {
            if (s != obs::Segment::Serve && pick(2) == 0)
                continue;
            const sim::Tick d = dur(kUs / 4);
            syn.server(srv, s, t, d);
            t += d;
        }
        const sim::Tick d = dur(kUs);
        syn.spine(srv, obs::Segment::XmitResp, t, d);
        return t + d - ts;
    };

    std::size_t ties = 0;
    std::uint64_t id = 1000 + pick(1000);
    for (std::size_t n = 0; n < requests; ++n) {
        id += pick(4) == 0 ? 1 + pick(5) : 1; // id gaps
        syn.begin(id);
        const sim::Tick arrival =
            static_cast<sim::Tick>(pick(requests / 2 + 1)) * 5 * kUs;
        const std::uint32_t a = static_cast<std::uint32_t>(pick(servers));
        const std::uint32_t b = (a + 1 + static_cast<std::uint32_t>(
                                          pick(servers - 1))) % servers;
        switch (pick(8)) {
        case 0: // still in flight: segments, never answered
            (void)chain(a, arrival, false);
            break;
        case 1: // lost after some segments
            (void)chain(a, arrival, pick(2) == 0);
            syn.lose(arrival + 50 * kUs);
            break;
        case 2: // lost before any segment
            syn.lose(arrival);
            break;
        case 3: { // failover: both attempts open on server writers at
                  // the same tick, so the writer index orders them
            const sim::Tick ta = chain(a, arrival, true);
            const sim::Tick wait = dur(kUs);
            const sim::Tick gap = dur(kUs / 2);
            const sim::Tick resp = dur(kUs / 2);
            const sim::Tick serve = ta - wait - gap - resp;
            sim::Tick tb;
            if (serve > 0 && pick(2) == 0) {
                // Replica b sums to the stale attempt's total too.
                syn.server(b, obs::Segment::Serve, arrival, serve);
                syn.spine(b, obs::Segment::XmitResp, arrival + serve,
                          resp);
                tb = serve + resp;
                ++ties;
            } else {
                tb = chain(b, arrival, true);
            }
            // The gap history is attributed to b at re-dispatch, after
            // segments that start later.
            syn.spine(b, obs::Segment::TimeoutWait, arrival + 1, wait);
            syn.spine(b, obs::Segment::Failover, arrival + 1 + wait, gap);
            syn.answer(arrival, tb + wait + gap);
            break;
        }
        default: { // plain or fanout; the slowest replica is critical
            const std::size_t fan = pick(3) == 0 ? 2 + pick(2) : 1;
            std::vector<sim::Tick> totals;
            for (std::size_t k = 0; k < fan && k < servers; ++k)
                totals.push_back(
                    chain((a + static_cast<std::uint32_t>(k)) % servers,
                          arrival, pick(3) == 0));
            const sim::Tick e2e =
                *std::max_element(totals.begin(), totals.end());
            if (std::count(totals.begin(), totals.end(), e2e) > 1)
                ++ties;
            syn.answer(arrival, e2e);
            break;
        }
        }
        // Records attribution must ignore: package states, counters, a
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
    return ties;
}

TEST(AttributionDiff, OnlineMatchesMergedOrderReference)
{
    struct Case
    {
        std::uint64_t seed;
        std::uint32_t servers;
        std::size_t requests;
    };
    std::size_t ties = 0;
    for (const Case &c : std::vector<Case>{{1, 2, 400},    // dense ties
                                           {2, 5, 1500},   // wider
                                           {3, 3, 6000}}) { // many chunks
        SCOPED_TRACE("seed " + std::to_string(c.seed));
        obs::TraceConfig tc;
        tc.enabled = true;
        tc.ringCapacity = 1u << 18;
        obs::Tracer tr(tc, c.servers + 1);
        obs::AttributionResult got;
        ties += synthRun(tr, got, c.seed, c.requests);

        const obs::AttributionResult want = referenceAttribution(tr);
        EXPECT_EQ(got.lostExcluded, want.lostExcluded);
        EXPECT_EQ(got.violations, 0u);
        EXPECT_EQ(want.violations, 0u);
        testref::expectSameRecords(recordsByArrival(got),
                                   recordsByArrival(want));
        EXPECT_EQ(blameJson(obs::LatencyAttribution::build(got, 64)),
                  blameJson(obs::LatencyAttribution::build(want, 64)));
        // The mix reached the paths it is meant to.
        EXPECT_GT(want.size(), 0u);
        EXPECT_GT(want.lostExcluded, 0u);
    }
    EXPECT_GT(ties, 0u);
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
    return fc;
}

TEST(AttributionFleet, ThousandServerGridIsExactlyAdditive)
{
    fleet::FleetSim fleet(gridFleet(1000, 8, 0, true));
    const fleet::FleetReport rep = fleet.run();
    ASSERT_GT(rep.dispatched, 1000u);

    // No tracing: attribution stands on its own and loses nothing.
    EXPECT_EQ(fleet.tracer(), nullptr);
    EXPECT_EQ(rep.traceRecords, 0u);
    ASSERT_TRUE(rep.attribution.enabled);
    EXPECT_EQ(rep.attribution.violations, 0u);
    EXPECT_EQ(rep.attribution.incomplete, 0u);
    EXPECT_EQ(rep.attribution.ringDropped, 0u);
    EXPECT_GT(rep.attribution.requests, 1000u);
    EXPECT_GT(rep.attribution.fanoutRequests, 0u);
    // Every answered request is attributed (nothing is lost here).
    EXPECT_EQ(rep.attribution.lostExcluded, 0u);
    EXPECT_EQ(rep.inFlightAtEnd, 0u);

    // Exact integer additivity on every carried sample: the critical
    // path's segments sum to the measured end-to-end latency.
    ASSERT_GT(rep.attribution.samples.size(), 100u);
    for (const obs::RequestRecord &s : rep.attribution.samples) {
        sim::Tick sum = 0;
        for (std::size_t k = 0; k < obs::kNumSegments; ++k)
            sum += s.seg[k];
        ASSERT_EQ(sum, s.e2e) << "request " << s.id;
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

class AttributionMatchesTrace : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(AttributionMatchesTrace, ThousandServerGrid)
{
    auto fc = gridFleet(1000, GetParam(), 0, true);
    fc.trace.enabled = true;
    fc.trace.ringCapacity = 1u << 20; // the reference needs every span
    fc.attribution.sampleLimit = SIZE_MAX;
    fleet::FleetSim fleet(fc);
    const fleet::FleetReport rep = fleet.run();
    ASSERT_NE(fleet.tracer(), nullptr);
    ASSERT_EQ(rep.traceDrops, 0u);
    ASSERT_GT(rep.attribution.requests, 1000u);
    testref::expectMatchesReference(rep.attribution, *fleet.tracer());
}

INSTANTIATE_TEST_SUITE_P(Threads, AttributionMatchesTrace,
                         ::testing::Values(1u, 2u, 8u));

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

        const std::string blame = blameJson(rep.attribution);
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

    const std::string json = blameJson(rep.attribution);
    EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"segments\": [\"xmit_req\", \"rto\""),
              std::string::npos);
    EXPECT_NE(json.find("\"bands\": ["), std::string::npos);
    EXPECT_NE(json.find("\"blame_us\""), std::string::npos);
    EXPECT_NE(json.find("\"critical_segment_counts\""), std::string::npos);
    EXPECT_NE(json.find("\"samples\": ["), std::string::npos);
    EXPECT_NE(json.find("\"seg_ticks\""), std::string::npos);
    EXPECT_NE(json.find("\"violations\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"incomplete\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"trace_drops\": 0"), std::string::npos);
    for (const char *band : {"p50", "p95", "p99", "p999", "p100"})
        EXPECT_NE(json.find(std::string("{\"band\": \"") + band + "\""),
                  std::string::npos)
            << band;
    EXPECT_NE(json.find("\"stall_gate\": "), std::string::npos);
    EXPECT_FALSE(obs::writeFile("/nonexistent/dir/blame.json",
                                [&](std::FILE *f) {
                                    return rep.attribution.writeJson(f);
                                }));
}

TEST(AttributionFleet, TraceExportCarriesFlowEvents)
{
    auto fc = gridFleet(32, 2, 0, true);
    fc.trace.enabled = true;
    fc.trace.ringCapacity = 1u << 18;
    fleet::FleetSim fleet(fc);
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

TEST(AttributionFleet, TinyTraceRingsLeaveAttributionWhole)
{
    // Rings far too small for the run wrap and drop the oldest spans;
    // the blame report, which never reads them, is byte-identical to
    // the untraced run's.
    const fleet::FleetReport untraced =
        fleet::FleetSim(gridFleet(32, 2, 0, true)).run();
    auto fc = gridFleet(32, 2, 0, true);
    fc.trace.enabled = true;
    fc.trace.ringCapacity = 512;
    fleet::FleetSim fleet(fc);
    const fleet::FleetReport rep = fleet.run();
    EXPECT_GT(rep.traceDrops, 0u);
    EXPECT_GT(rep.traceRecords, rep.traceDrops);
    EXPECT_GT(rep.attribution.requests, 0u);
    EXPECT_EQ(rep.attribution.incomplete, 0u);
    EXPECT_EQ(rep.attribution.violations, 0u);
    EXPECT_EQ(blameJson(rep.attribution), blameJson(untraced.attribution));
    EXPECT_EQ(rep.csvRow(), untraced.csvRow());
}

} // namespace
} // namespace apc
