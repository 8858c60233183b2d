/**
 * @file
 * Per-request tail-latency attribution over the trace layer.
 *
 * The simulator's instrumentation (fleet spine, servers, NICs) emits
 * one segment span per latency-relevant boundary a request crosses:
 * fabric transit, RTO retransmit waits, NIC RX-ring residency, the
 * coalescing/IRQ DMA hold, the package C-state exit, dispatch-queue
 * wait, cap-induced stalls (idle-injection gate overlap and DVFS-clamp
 * dilation), service, and response transit. This module reassembles
 * those spans — post-run, in one pass over each writer's ring — into
 * one causal chain per (request, server) replica with the invariant
 * that the chain's segments **sum exactly** (integer ticks) to the
 * replica's client-observed latency; for fanout requests the slowest
 * replica's chain sums to the request's end-to-end latency.
 *
 * Writer convention (FleetSim's layout): writer 0 is the fleet spine —
 * its segment spans carry the target server in `value` — and writer
 * i >= 1 is server i-1. The invariant is checked per request; a
 * mismatch with zero ring drops is a bug (asserted in debug builds),
 * a mismatch with drops is the expected flag for an incomplete chain.
 */

#ifndef APC_OBS_ATTRIBUTION_H
#define APC_OBS_ATTRIBUTION_H

#include <cstdint>
#include <vector>

#include "obs/tracer.h"
#include "sim/time.h"

namespace apc::obs {

/** Latency segment taxonomy (order matches Name::SegXmitReq..). */
enum class Segment : std::uint8_t
{
    XmitReq = 0, ///< client -> server fabric transit (minus RTO)
    Rto,         ///< retransmit penalty (fabric RTO + NIC-drop resend)
    NicRing,     ///< RX-ring descriptor wait until the moderated IRQ
    IrqHold,     ///< IRQ -> DMA completion (coalescing hold)
    Wake,        ///< DMA done -> fabric open (package C-state exit)
    Queue,       ///< dispatch-queue wait (gate overlap excluded)
    StallGate,   ///< idle-injection gate overlap of the queue wait
    Serve,       ///< service time at the governor's frequency
    StallDvfs,   ///< extra service time from the cap's P-state clamp
    XmitResp,    ///< response TX + server -> client transit (minus RTO)
    TimeoutWait, ///< dispatch -> request timeout on abandoned attempts
    Failover,    ///< backoff gap before the failover re-dispatch
    kCount
};

inline constexpr std::size_t kNumSegments =
    static_cast<std::size_t>(Segment::kCount);

/** Short machine name ("xmit_req", "stall_gate", ...). */
const char *segmentName(Segment s);

/** The trace-vocabulary name a segment's spans are recorded under. */
inline Name
segmentTraceName(Segment s)
{
    return static_cast<Name>(static_cast<std::uint32_t>(Name::SegXmitReq) +
                             static_cast<std::uint32_t>(s));
}

/** Inverse of segmentTraceName; kCount when @p n is not a segment. */
inline Segment
segmentFromTraceName(Name n)
{
    const auto i = static_cast<std::uint32_t>(n) -
        static_cast<std::uint32_t>(Name::SegXmitReq);
    return i < kNumSegments ? static_cast<Segment>(i) : Segment::kCount;
}

/** Attribution setup (FleetConfig::attribution). */
struct AttributionConfig
{
    /** Master switch: enables segment instrumentation and the post-run
     *  blame report. Implies tracing (FleetSim forces trace.enabled). */
    bool enabled = false;
    /** Per-request samples carried into the exported report (exact
     *  integer ticks; CI validates additivity on them). */
    std::size_t sampleLimit = 256;
    /** Perfetto flow arrows emitted into writeTrace() exports. */
    std::size_t flowLimit = 256;
};

/** One replica's reassembled causal chain. */
struct ReplicaPath
{
    std::uint32_t srv = 0;
    sim::Tick seg[kNumSegments] = {};

    sim::Tick
    total() const
    {
        sim::Tick t = 0;
        for (std::size_t i = 0; i < kNumSegments; ++i)
            t += seg[i];
        return t;
    }

    /** The segment holding the largest share of this chain. */
    Segment dominant() const;
};

/** One attributed request (sorted by arrival for determinism). */
struct RequestPath
{
    std::uint64_t id = 0;
    sim::Tick arrival = 0;
    sim::Tick e2e = 0; ///< measured client-observed latency (ticks)
    std::vector<ReplicaPath> replicas;
    std::size_t critical = 0; ///< index of the critical replica
    bool additive = false;    ///< critical chain sums exactly to e2e

    const ReplicaPath &criticalPath() const { return replicas[critical]; }
};

/** The reassembled attribution for one run. */
struct AttributionResult
{
    /** Complete, additive requests, sorted by (arrival, id). */
    std::vector<RequestPath> requests;
    /** Requests excluded because a replica was dropped beyond retry
     *  (they never answered the client; no end-to-end latency). */
    std::uint64_t lostExcluded = 0;
    /** Requests flagged because their chains mismatched while trace
     *  rings had dropped records (spans lost to wrap). */
    std::uint64_t incomplete = 0;
    /** Chain mismatches with zero ring drops: additivity-invariant
     *  violations. Always 0 in a correct build (debug-asserted). */
    std::uint64_t violations = 0;
    /** Trace records lost to ring wrap across all writers. */
    std::uint64_t ringDropped = 0;
};

/**
 * Reassemble per-request causal chains from @p tracer's live records
 * (FleetSim writer convention; see file header). The result is what a
 * walk of the records in `(ts, writer, seq)` order would build: a
 * request's replicas appear in the order their first spans do, and a
 * duplicate Request span resolves to the last. Requests with no
 * end-to-end `Request` span (still in flight at trace end) are
 * ignored. In debug builds, asserts that no chain mismatches its
 * measured latency unless ring drops explain the gap.
 */
AttributionResult buildAttribution(const Tracer &tracer);

/**
 * Perfetto flow arrows for the first @p limit attributed requests:
 * start at the client arrival (fleet, requests track), step at the
 * critical replica's serve start (server, segments track), finish at
 * the client delivery (fleet, requests track).
 */
std::vector<FlowEvent> buildFlows(const AttributionResult &res,
                                  std::size_t limit);

} // namespace apc::obs

#endif // APC_OBS_ATTRIBUTION_H
