/**
 * @file
 * Per-request tail-latency attribution, accumulated as the run goes.
 *
 * The simulator's instrumentation (fleet spine, servers) measures one
 * segment per latency-relevant boundary a request crosses: fabric
 * transit, RTO retransmit waits, NIC RX-ring residency, the
 * coalescing/IRQ DMA hold, the package C-state exit, dispatch-queue
 * wait, cap-induced stalls (idle-injection gate overlap and DVFS-clamp
 * dilation), service, response transit, and the timeout and backoff
 * gaps of failover. Each segment's ticks add into a fixed per-replica
 * record, SegmentSums, the moment the segment is measured, and the
 * record travels with the replica:
 *
 *  - the spine adds the request leg (gap history, RTO wait, wire
 *    time) and hands the sums to the target server with the request;
 *  - the server adds its own segments while it holds the request and
 *    hands the sums back with the completion, abort or ring drop;
 *  - the spine adds the response leg. When the flight closes, its
 *    replicas fold into one RequestRecord — the critical replica's
 *    chain — appended to the run's AttributionResult, which packs it
 *    into one 64-byte slot; a flight keeps replicas that ended before
 *    it closed (fanout legs, failed attempts) in a RequestChains.
 *
 * The invariant: the critical chain's segments **sum exactly**
 * (integer ticks) to the client-observed latency; for fanout requests
 * the slowest replica's chain sums to the request's end-to-end
 * latency. An answered request with no such chain is a bug in the
 * segment accounting, counted as a violation (asserted in debug
 * builds). Nothing is read back from the trace rings, so attribution
 * needs no tracing and is complete at any fleet size. With tracing on
 * as well, every segment is also written as a span
 * (Name::SegXmitReq..) for the Perfetto view; the records are exactly
 * what a walk of those spans in the trace's `(ts, writer, seq)` merge
 * order would assemble, which the tests check against a reference.
 */

#ifndef APC_OBS_ATTRIBUTION_H
#define APC_OBS_ATTRIBUTION_H

#include <algorithm>
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
    /** Master switch: per-request segment accounting on every layer a
     *  request crosses, and the blame report built from it. Works with
     *  tracing off; with tracing on, segments are also traced. */
    bool enabled = false;
    /** Per-request samples carried into the exported report (exact
     *  integer ticks; CI validates additivity on them). */
    std::size_t sampleLimit = 256;
};

/** Perfetto flow arrows emitted into trace exports. */
inline constexpr std::size_t kFlowLimit = 256;

/** A segment's place in the trace's merged `(ts, writer, seq)` order:
 *  writer 0 is the fleet spine, writer i + 1 server i; seq orders one
 *  writer's segments that start on the same tick. */
struct OrderKey
{
    sim::Tick ts = sim::kTickNever;
    std::uint32_t writer = 0;
    std::uint64_t seq = 0;

    bool
    operator<(const OrderKey &o) const
    {
        if (ts != o.ts)
            return ts < o.ts;
        if (writer != o.writer)
            return writer < o.writer;
        return seq < o.seq;
    }
};

/**
 * The segment ticks of one replica of a request. They travel with the
 * replica: the spine's request-leg segments ride with it to its
 * server, which adds its own and hands the sums back with the
 * completion, abort or ring drop.
 */
struct SegmentSums
{
    OrderKey first; ///< earliest segment, in trace merge order
    sim::Tick seg[kNumSegments] = {};

    void
    add(Segment s, sim::Tick at, sim::Tick dur, std::uint32_t writer,
        std::uint64_t seq = 0)
    {
        first = std::min(first, OrderKey{at, writer, seq});
        seg[static_cast<std::size_t>(s)] += dur;
    }

    void add(const SegmentSums &o);

    /** No segment measured yet. */
    bool empty() const { return first.ts == sim::kTickNever; }

    sim::Tick total() const;
};

/** One replica's sums, with the server it went to. Two whole cache
 *  lines: it crosses from a worker to the spine once per request. */
struct alignas(64) ReplicaSums
{
    std::uint32_t srv = 0;
    SegmentSums sums;
};
static_assert(sizeof(ReplicaSums) == 128, "two cache lines");

/** One attributed request: its critical replica's chain. The value
 *  form; AttributionResult stores it packed. */
struct RequestRecord
{
    std::uint64_t id = 0;
    sim::Tick arrival = 0;
    sim::Tick e2e = 0;          ///< client-observed latency (ticks)
    std::uint32_t srv = 0;      ///< server of the critical replica
    std::uint32_t replicas = 0; ///< replicas that measured any segment
    sim::Tick seg[kNumSegments] = {}; ///< sums exactly to e2e

    /** The segment holding the largest share of the chain. */
    Segment dominant() const;
};

/** The ended replicas of one open request (fleet side): one entry per
 *  server, since a request never returns to a server it left. */
class RequestChains
{
  public:
    /** Keep an ended replica's sums; merges with an entry for the same
     *  server, and ignores sums with no segment. */
    void add(const ReplicaSums &r);

    const ReplicaSums *data() const { return replicas_.data(); }
    std::size_t size() const { return replicas_.size(); }
    /** Forget every kept replica; keeps the capacity. */
    void clear() { replicas_.clear(); }

  private:
    std::vector<ReplicaSums> replicas_;
};

/**
 * The run's attribution: one record per answered request, appended as
 * flights close, in fixed-size chunks so the store never reallocates
 * (and never doubles its footprint) as it grows.
 *
 * Each record takes one 64-byte Slot. A slot holds the arrival, a
 * 32-bit id, the server and the 12 segment ticks as 32-bit values; it
 * stores no end-to-end latency, since a critical chain sums exactly to
 * it, and no replica count, since it holds only single-replica
 * requests. A record that does not fit — replicas != 1, e2e != the
 * sum of its segments, a segment or the id not below 2^32, or srv at
 * the side sentinel — is kept whole in a side table, and its slot
 * holds the side index instead of the id. Either way, operator[]
 * returns every field exactly as pushed.
 */
class AttributionResult
{
  public:
    /** One packed record: one cache line. */
    struct alignas(64) Slot
    {
        sim::Tick arrival = 0;
        /** The request id, or the side-table index when srv is kSide. */
        std::uint32_t id = 0;
        /** The critical replica's server, or kSide. */
        std::uint32_t srv = 0;
        std::uint32_t seg[kNumSegments] = {};
    };

    /** Slot::srv of a record kept whole in the side table. */
    static constexpr std::uint32_t kSide = UINT32_MAX;
    /** Most records a run can hold: rank keys, firstByArrival's
     *  indices and the side index are all 32-bit. */
    static constexpr std::uint64_t kMaxRecords = std::uint64_t{1} << 32;
    /** Slots per chunk (256 KiB). */
    static constexpr std::size_t kChunk = 4096;

    /**
     * Fold answered request @p id (client-observed latency @p e2e)
     * given its @p n replicas: append the critical replica's chain —
     * the one summing exactly to @p e2e, the earliest in trace merge
     * order on a tie — or count a violation when none does.
     */
    void answered(std::uint64_t id, sim::Tick arrival, sim::Tick e2e,
                  const ReplicaSums *replicas, std::size_t n);

    /** Fold a request that never answered the client, after @p n
     *  replicas measured segments. */
    void
    lost(std::size_t n)
    {
        if (n > 0)
            ++lostExcluded;
    }

    /** Append @p r. @throws std::length_error past kMaxRecords. */
    void push(const RequestRecord &r);

    std::size_t size() const { return size_; }

    /** Record @p i, every field as pushed. */
    RequestRecord operator[](std::size_t i) const;

    /** Record @p i's slot; it never moves once pushed. */
    const Slot &
    slot(std::size_t i) const
    {
        return chunks_[i / kChunk][i % kChunk];
    }

    /** Bytes of slot storage held (whole chunks). */
    std::size_t
    slotBytes() const
    {
        return chunks_.size() * kChunk * sizeof(Slot);
    }

    /** Records kept whole in the side table. */
    std::size_t sideRecords() const { return side_.size(); }

    /** Indices of the first @p limit records in (arrival, id) order. */
    std::vector<std::uint32_t> firstByArrival(std::size_t limit) const;

    /** Requests excluded because they never answered the client (a
     *  replica dropped beyond retry, or a fault destroyed it) after
     *  some segment was measured. */
    std::uint64_t lostExcluded = 0;
    /** Answered requests with no chain summing to their latency:
     *  segment-accounting bugs. Always 0 in a correct build. */
    std::uint64_t violations = 0;

  private:
    std::vector<std::vector<Slot>> chunks_;
    std::vector<RequestRecord> side_;
    std::size_t size_ = 0;
};
static_assert(sizeof(AttributionResult::Slot) == 64, "one cache line");

/** Strict (arrival, id) order over records. */
inline bool
arrivedBefore(const RequestRecord &a, const RequestRecord &b)
{
    return a.arrival != b.arrival ? a.arrival < b.arrival : a.id < b.id;
}

/**
 * Perfetto flow arrows for the first @p limit attributed requests in
 * arrival order: start at the client arrival (fleet, requests track),
 * step at the critical replica's serve start (server, segments track),
 * finish at the client delivery (fleet, requests track).
 */
std::vector<FlowEvent> buildFlows(const AttributionResult &res,
                                  std::size_t limit);

} // namespace apc::obs

#endif // APC_OBS_ATTRIBUTION_H
