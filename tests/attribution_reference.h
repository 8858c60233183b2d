/**
 * @file
 * The differential oracle for online attribution: a reference that
 * reassembles every request's replica chains from a complete trace by
 * walking Tracer::merged() in (ts, writer, seq) order — the
 * straightforward formulation the online accumulation must agree
 * with, record for record — plus the comparison the tests share.
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
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/attribution.h"
#include "obs/critpath.h"
#include "obs/tracer.h"

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

} // namespace apc::testref

#endif // APC_TESTS_ATTRIBUTION_REFERENCE_H
