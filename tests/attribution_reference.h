/**
 * @file
 * The differential oracle for online attribution: a reference that
 * reassembles every request's replica chains from a complete trace by
 * walking Tracer::merged() in (ts, writer, seq) order — the
 * straightforward formulation the online accumulation must agree
 * with, record for record — plus the comparison the tests share, and
 * two references for the blame build's rank order: a plain std::sort
 * of the records, and the LSD radix build it replaced.
 *
 * Writer convention (FleetSim's layout): writer 0 is the fleet spine,
 * whose segment spans carry the target server in `value`; writer
 * i >= 1 is server i-1.
 */

#ifndef APC_TESTS_ATTRIBUTION_REFERENCE_H
#define APC_TESTS_ATTRIBUTION_REFERENCE_H

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/attribution.h"
#include "obs/critpath.h"
#include "obs/tracer.h"
#include "stats/rank.h"

namespace apc::testref {

/**
 * Per-request chains from @p tracer's records in merged order: a
 * request's replicas in the order their first spans appear, the
 * critical one the first whose chain sums exactly to the request's
 * Request span. Needs a trace without ring drops.
 */
inline obs::AttributionResult
referenceAttribution(const obs::Tracer &tracer)
{
    EXPECT_EQ(tracer.totalDropped(), 0u)
        << "the reference needs every trace record";
    struct Replica
    {
        std::uint32_t srv = 0;
        sim::Tick seg[obs::kNumSegments] = {};
    };
    struct Pending
    {
        sim::Tick arrival = 0;
        sim::Tick e2e = 0;
        bool finished = false;
        std::vector<Replica> replicas;
    };
    std::map<std::uint64_t, Pending> byId;
    std::set<std::uint64_t> lost;

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
        const auto srv = m.writer == 0
            ? static_cast<std::uint32_t>(r.value)
            : m.writer - 1;
        auto &replicas = byId[r.id].replicas;
        auto it = std::find_if(
            replicas.begin(), replicas.end(),
            [srv](const Replica &rp) { return rp.srv == srv; });
        if (it == replicas.end()) {
            replicas.push_back({});
            it = replicas.end() - 1;
            it->srv = srv;
        }
        it->seg[static_cast<std::size_t>(seg)] += r.dur;
    }

    obs::AttributionResult res;
    std::vector<obs::RequestRecord> records;
    for (const auto &[id, p] : byId) {
        if (lost.count(id)) {
            ++res.lostExcluded;
            continue;
        }
        if (!p.finished)
            continue;
        const sim::Tick e2e = p.e2e;
        const auto exact = std::find_if(
            p.replicas.begin(), p.replicas.end(), [e2e](const Replica &r) {
                sim::Tick t = 0;
                for (const sim::Tick s : r.seg)
                    t += s;
                return t == e2e;
            });
        if (exact == p.replicas.end()) {
            ++res.violations;
            continue;
        }
        obs::RequestRecord rec;
        rec.id = id;
        rec.arrival = p.arrival;
        rec.e2e = p.e2e;
        rec.srv = exact->srv;
        rec.replicas = static_cast<std::uint32_t>(p.replicas.size());
        std::copy(std::begin(exact->seg), std::end(exact->seg), rec.seg);
        records.push_back(rec);
    }
    std::sort(records.begin(), records.end(), obs::arrivedBefore);
    for (const obs::RequestRecord &rec : records)
        res.push(rec);
    return res;
}

/** @p res's records in (arrival, id) order. */
inline std::vector<obs::RequestRecord>
recordsByArrival(const obs::AttributionResult &res)
{
    std::vector<obs::RequestRecord> out;
    for (const std::uint32_t i : res.firstByArrival(res.size()))
        out.push_back(res[i]);
    return out;
}

/** Field-by-field equality of two record lists. */
inline void
expectSameRecords(const std::vector<obs::RequestRecord> &got,
                  const std::vector<obs::RequestRecord> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        const obs::RequestRecord &g = got[i];
        const obs::RequestRecord &w = want[i];
        ASSERT_EQ(g.id, w.id) << "record " << i;
        EXPECT_EQ(g.arrival, w.arrival) << "id " << g.id;
        EXPECT_EQ(g.e2e, w.e2e) << "id " << g.id;
        EXPECT_EQ(g.srv, w.srv) << "id " << g.id;
        EXPECT_EQ(g.replicas, w.replicas) << "id " << g.id;
        for (std::size_t s = 0; s < obs::kNumSegments; ++s)
            EXPECT_EQ(g.seg[s], w.seg[s])
                << "id " << g.id << " segment "
                << obs::segmentName(static_cast<obs::Segment>(s));
    }
}

/** The blame report of @p rep as JSON text. */
inline std::string
blameJson(const obs::LatencyAttribution &rep)
{
    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *f = open_memstream(&buf, &len);
    EXPECT_TRUE(rep.writeJson(f));
    std::fclose(f);
    std::string out(buf, len);
    std::free(buf);
    return out;
}

/**
 * @p online — a fleet's blame report built with every record kept as
 * a sample — equals the report the reference assembles from the same
 * run's complete trace, record for record and byte for byte.
 */
inline void
expectMatchesReference(const obs::LatencyAttribution &online,
                       const obs::Tracer &tracer)
{
    const obs::AttributionResult want = referenceAttribution(tracer);
    EXPECT_EQ(online.lostExcluded, want.lostExcluded);
    EXPECT_EQ(online.violations, 0u);
    EXPECT_EQ(want.violations, 0u);
    EXPECT_EQ(online.incomplete, 0u);
    EXPECT_EQ(online.requests, want.size());
    expectSameRecords(online.samples, recordsByArrival(want));
    EXPECT_EQ(blameJson(online),
              blameJson(obs::LatencyAttribution::build(want, SIZE_MAX)));
}

/** A record fits an AttributionResult slot: one replica, a chain
 *  summing exactly to e2e, the id and every segment below 2^32, at
 *  most 8 non-zero segments, and a server below the side sentinel
 *  2^20 - 1. Anything else takes the side table. */
inline bool
fitsSlot(const obs::RequestRecord &r)
{
    constexpr std::uint64_t k32 = std::uint64_t{1} << 32;
    sim::Tick sum = 0;
    std::size_t nonzero = 0;
    bool big = r.id >= k32;
    for (const sim::Tick s : r.seg) {
        sum += s;
        nonzero += s != 0 ? 1 : 0;
        big = big || static_cast<std::uint64_t>(s) >= k32;
    }
    return r.replicas == 1 && r.e2e == sum && !big && nonzero <= 8 &&
        r.srv < (std::uint32_t{1} << 20) - 1;
}

/** Strict (e2e, arrival, id) rank order. */
inline bool
rankedBefore(const obs::RequestRecord &a, const obs::RequestRecord &b)
{
    return a.e2e != b.e2e ? a.e2e < b.e2e : obs::arrivedBefore(a, b);
}

/** The blame report over @p ranked — records already in rank order —
 *  with its bands summed in that order and the first @p sample_limit
 *  records by arrival as samples. */
inline obs::LatencyAttribution
blameInOrder(const std::vector<obs::RequestRecord> &ranked,
             std::size_t sample_limit)
{
    obs::LatencyAttribution out;
    out.enabled = true;
    out.requests = ranked.size();
    for (const obs::RequestRecord &r : ranked) {
        out.fanoutRequests += r.replicas > 1 ? 1 : 0;
        // The critical segment: the first holding the largest share.
        std::size_t dominant = 0;
        for (std::size_t s = 1; s < obs::kNumSegments; ++s)
            if (r.seg[s] > r.seg[dominant])
                dominant = s;
        ++out.criticalBySegment[dominant];
    }
    const auto edges = stats::percentileBandEdges(ranked.size());
    for (std::size_t b = 0; b < obs::LatencyAttribution::kNumBands; ++b) {
        obs::BlameBand &band = out.bands[b];
        for (std::size_t i = edges[b]; i < edges[b + 1]; ++i) {
            ++band.count;
            band.e2eMeanUs += sim::toMicros(ranked[i].e2e);
            for (std::size_t s = 0; s < obs::kNumSegments; ++s)
                band.segMeanUs[s] += sim::toMicros(ranked[i].seg[s]);
        }
        if (band.count > 0) {
            const double inv = 1.0 / static_cast<double>(band.count);
            band.e2eMeanUs *= inv;
            for (double &v : band.segMeanUs)
                v *= inv;
        }
    }
    out.samples = ranked;
    std::sort(out.samples.begin(), out.samples.end(), obs::arrivedBefore);
    out.samples.resize(std::min(sample_limit, out.samples.size()));
    return out;
}

/** The plain reference build: copy the records, std::sort them by
 *  (e2e, arrival, id) and sum each band in that order. */
inline obs::LatencyAttribution
referenceBlame(std::vector<obs::RequestRecord> recs, std::size_t sample_limit)
{
    std::sort(recs.begin(), recs.end(), rankedBefore);
    return blameInOrder(recs, sample_limit);
}

/**
 * The rank order LatencyAttribution::build computed before it sorted in
 * place: an LSD radix sort, 11 bits a pass through a second key array,
 * over keys holding the latency's 32 leading significant bits above
 * the record index, then the runs sharing those bits sorted from the
 * records.
 */
inline std::vector<obs::RequestRecord>
lsdRanked(const obs::AttributionResult &res)
{
    const auto width = [](std::uint64_t v) {
        unsigned w = 0;
        for (; v; v >>= 1)
            ++w;
        return w;
    };
    const std::size_t n = res.size();
    if (n == 0)
        return {};
    std::vector<std::uint64_t> order(n);
    std::uint64_t max_e2e = 0;
    for (std::size_t i = 0; i < n; ++i) {
        order[i] = static_cast<std::uint64_t>(res[i].e2e);
        max_e2e = std::max(max_e2e, order[i]);
    }
    const unsigned shift = width(max_e2e) > 32 ? width(max_e2e) - 32 : 0;
    const unsigned idx_bits = std::max(1u, width(n - 1));
    const std::uint64_t idx_mask = (std::uint64_t{1} << idx_bits) - 1;
    for (std::size_t i = 0; i < n; ++i)
        order[i] = (order[i] >> shift) << idx_bits | i;
    constexpr unsigned kDigit = 11;
    constexpr std::size_t kBuckets = std::size_t{1} << kDigit;
    std::vector<std::uint64_t> tmp(n);
    std::vector<std::size_t> start(kBuckets);
    for (unsigned at = 0; at < idx_bits + 32; at += kDigit) {
        std::fill(start.begin(), start.end(), 0);
        for (const std::uint64_t k : order)
            ++start[(k >> at) & (kBuckets - 1)];
        std::size_t sum = 0;
        for (std::size_t &c : start) {
            const std::size_t here = c;
            c = sum;
            sum += here;
        }
        for (const std::uint64_t k : order)
            tmp[start[(k >> at) & (kBuckets - 1)]++] = k;
        order.swap(tmp);
    }
    std::vector<obs::RequestRecord> ranked;
    ranked.reserve(n);
    for (const std::uint64_t k : order)
        ranked.push_back(res[k & idx_mask]);
    for (auto run = ranked.begin(); run != ranked.end();) {
        auto end = run + 1;
        while (end != ranked.end() &&
               (static_cast<std::uint64_t>(end->e2e) >> shift) ==
                   (static_cast<std::uint64_t>(run->e2e) >> shift))
            ++end;
        std::sort(run, end, rankedBefore);
        run = end;
    }
    return ranked;
}

/** Two reports agree exactly: counts, and every band mean bit for bit,
 *  and the samples field by field. */
inline void
expectSameBlame(const obs::LatencyAttribution &got,
                const obs::LatencyAttribution &want)
{
    const auto bits = [](double v) {
        std::uint64_t u;
        std::memcpy(&u, &v, sizeof(u));
        return u;
    };
    EXPECT_EQ(got.requests, want.requests);
    EXPECT_EQ(got.fanoutRequests, want.fanoutRequests);
    for (std::size_t s = 0; s < obs::kNumSegments; ++s)
        EXPECT_EQ(got.criticalBySegment[s], want.criticalBySegment[s])
            << "segment " << s;
    for (std::size_t b = 0; b < obs::LatencyAttribution::kNumBands; ++b) {
        const obs::BlameBand &g = got.bands[b];
        const obs::BlameBand &w = want.bands[b];
        EXPECT_EQ(g.count, w.count) << "band " << b;
        EXPECT_EQ(bits(g.e2eMeanUs), bits(w.e2eMeanUs)) << "band " << b;
        for (std::size_t s = 0; s < obs::kNumSegments; ++s)
            EXPECT_EQ(bits(g.segMeanUs[s]), bits(w.segMeanUs[s]))
                << "band " << b << " segment " << s;
    }
    expectSameRecords(got.samples, want.samples);
}

} // namespace apc::testref

#endif // APC_TESTS_ATTRIBUTION_REFERENCE_H
