/**
 * @file
 * Critical-path extraction and the per-segment blame report.
 *
 * Consumes the run's `AttributionResult` (obs/attribution.h: one
 * record per answered request, folded as its flight closed) and
 * answers the paper-grade question "where does the tail live":
 * requests are binned into end-to-end percentile bands (<=p50,
 * p50-p95, p95-p99, p99-p999, >p999) by exact rank, and each band
 * reports the mean microseconds every segment of the *critical*
 * replica chain contributed — so the per-band segment means still sum
 * to the band's mean end-to-end latency (additivity survives
 * aggregation). For fanout requests the critical path is the slowest
 * leg; the report also counts which segment dominated it.
 *
 * Exported as CSV (band table) and JSON (band table + exact-tick
 * per-request samples, which CI re-checks for additivity).
 */

#ifndef APC_OBS_CRITPATH_H
#define APC_OBS_CRITPATH_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/attribution.h"

namespace apc::obs {

/** Schema version stamped into the blame-report JSON. */
inline constexpr int kBlameSchemaVersion = 1;

/** One percentile band's aggregated blame. */
struct BlameBand
{
    std::uint64_t count = 0;
    double e2eMeanUs = 0.0;
    /** Mean contribution of each segment (critical chain), µs; sums to
     *  e2eMeanUs. */
    double segMeanUs[kNumSegments] = {};

    /** The segment with the largest mean share in this band. */
    Segment dominant() const;
};

/**
 * The blame report: `FleetReport::attribution`. Plain aggregation of
 * an AttributionResult; deterministic given the same records, in any
 * order they were folded.
 */
struct LatencyAttribution
{
    /** <=p50, p50-p95, p95-p99, p99-p999, >p999 — by exact rank. */
    static constexpr std::size_t kNumBands = 5;

    bool enabled = false;
    std::uint64_t requests = 0;       ///< attributed (complete) requests
    std::uint64_t fanoutRequests = 0; ///< of those, fanout (>1 replica)
    std::uint64_t lostExcluded = 0;
    std::uint64_t violations = 0;
    /** Schema-v1 fields from when chains were read back from trace
     *  rings that could wrap: requests with a damaged chain, and the
     *  records lost. Online attribution loses nothing, so both stay
     *  0; they are kept so existing consumers keep parsing. */
    std::uint64_t incomplete = 0;
    std::uint64_t ringDropped = 0;

    BlameBand bands[kNumBands];

    /** Requests whose critical chain was dominated by each segment. */
    std::uint64_t criticalBySegment[kNumSegments] = {};

    /** First N attributed requests in arrival order, exact ticks. */
    std::vector<RequestRecord> samples;

    /** Band label ("p50", "p95", "p99", "p999", "p100"). */
    static const char *bandLabel(std::size_t band);

    /** Aggregate @p res into a report, keeping @p sample_limit exact
     *  per-request samples. */
    static LatencyAttribution build(const AttributionResult &res,
                                    std::size_t sample_limit);

    /** Count-weighted mean µs of @p s across the above-p99 bands. */
    double tailMeanUs(Segment s) const;

    /** The segment carrying the largest above-p99 mean share. */
    Segment tailDominant() const;

    /** Full report (bands + samples) as JSON. @return false on IO
     *  failure. */
    bool writeJson(std::FILE *out) const;
};

} // namespace apc::obs

#endif // APC_OBS_CRITPATH_H
