#include "obs/attribution.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace apc::obs {

const char *
segmentName(Segment s)
{
    constexpr const char *names[kNumSegments] = {
        "xmit_req",   "rto",      "nic_ring",     "irq_hold",
        "wake",       "queue",    "stall_gate",   "serve",
        "stall_dvfs", "xmit_resp", "timeout_wait", "failover"};
    return names[static_cast<std::size_t>(s)];
}

Segment
ReplicaPath::dominant() const
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < kNumSegments; ++i)
        if (seg[i] > seg[best])
            best = i;
    return static_cast<Segment>(best);
}

namespace {

/** A record's place in Tracer::merged()'s (ts, writer, seq) order. */
struct MergeKey
{
    sim::Tick ts = 0;
    std::uint32_t writer = 0;
    std::uint32_t seq = 0;

    bool
    operator<(const MergeKey &o) const
    {
        if (ts != o.ts)
            return ts < o.ts;
        if (writer != o.writer)
            return writer < o.writer;
        return seq < o.seq;
    }
};

/** What attribution reads from one trace record. */
enum class Use : std::uint8_t
{
    None,
    Request, ///< the fleet's end-to-end Request span
    Lost,    ///< the fleet's dropped-beyond-retry instant
    Segment, ///< a latency segment span (any writer)
};

Use
classify(const TraceRecord &r, std::uint32_t writer)
{
    const auto kind = static_cast<TraceKind>(r.kind);
    const auto name = static_cast<Name>(r.name);
    if (writer == 0 && kind == TraceKind::Span && name == Name::Request)
        return Use::Request;
    if (writer == 0 && kind == TraceKind::Instant && name == Name::Lost)
        return Use::Lost;
    if (kind == TraceKind::Span &&
        segmentFromTraceName(name) != Segment::kCount)
        return Use::Segment;
    return Use::None;
}

/**
 * Request id -> table slot for the ids of the fleet writer's Request
 * spans and Lost instants: the only requests a result reports or
 * counts. Flight ids come from the fleet's monotone counter, so those
 * ids nearly fill [lo, hi] and the slot is id - lo. Sparser ids
 * (hand-built traces) map through a sorted id list instead, so the
 * table stays proportional to the trace.
 */
class IdSlots
{
  public:
    explicit IdSlots(const TraceWriter &fleet)
    {
        const auto keyed = [](const TraceRecord &r) {
            const Use u = classify(r, 0);
            return u == Use::Request || u == Use::Lost;
        };
        std::uint64_t hi = 0;
        std::size_t count = 0;
        fleet.forEach([&](const TraceRecord &r) {
            if (!keyed(r))
                return;
            ++count;
            lo_ = std::min(lo_, r.id);
            hi = std::max(hi, r.id);
        });
        if (count == 0)
            return;
        if (hi - lo_ < 4 * static_cast<std::uint64_t>(count) + 1024) {
            n_ = static_cast<std::size_t>(hi - lo_) + 1;
            return;
        }
        fleet.forEach([&](const TraceRecord &r) {
            if (keyed(r))
                sparse_.push_back(r.id);
        });
        std::sort(sparse_.begin(), sparse_.end());
        sparse_.erase(std::unique(sparse_.begin(), sparse_.end()),
                      sparse_.end());
        n_ = sparse_.size();
    }

    std::size_t size() const { return n_; }

    /** Slot of @p id; size() when the fleet writer never named it. */
    std::size_t
    slot(std::uint64_t id) const
    {
        if (sparse_.empty())
            return id - lo_ < n_ ? static_cast<std::size_t>(id - lo_) : n_;
        const auto it = std::lower_bound(sparse_.begin(), sparse_.end(), id);
        return it != sparse_.end() && *it == id
            ? static_cast<std::size_t>(it - sparse_.begin())
            : n_;
    }

    std::uint64_t
    id(std::size_t slot) const
    {
        return sparse_.empty() ? lo_ + slot : sparse_[slot];
    }

  private:
    std::uint64_t lo_ = UINT64_MAX;
    std::size_t n_ = 0;
    std::vector<std::uint64_t> sparse_; ///< sorted ids; empty when dense
};

constexpr std::size_t kNoReplica = SIZE_MAX;

/** One replica's chain; a request's replicas are linked in the pool. */
struct Replica
{
    MergeKey first; ///< earliest span: merged-order first sighting
    ReplicaPath path;
    std::size_t next = kNoReplica;
};

/** Per-request accumulator. */
struct Pending
{
    MergeKey request; ///< Request span in force: the last in merge order
    sim::Tick arrival = 0;
    sim::Tick e2e = 0;
    std::size_t replicas = kNoReplica; ///< list head in the pool
    bool finished = false; ///< saw the end-to-end Request span
    bool lost = false;
    bool segments = false; ///< some segment span carries this id
};

} // namespace

AttributionResult
buildAttribution(const Tracer &tracer)
{
    AttributionResult res;
    res.ringDropped = tracer.totalDropped();
    if (tracer.numWriters() == 0)
        return res;

    // The fleet writer settles which requests finished and which were
    // lost. A duplicate Request span resolves to the last one in merge
    // order, found by its (ts, writer, seq) key.
    const TraceWriter &fleet = *tracer.writer(0);
    const IdSlots slots(fleet);
    std::vector<Pending> pending(slots.size());
    fleet.forEach([&](const TraceRecord &r) {
        const Use u = classify(r, 0);
        if (u != Use::Request && u != Use::Lost)
            return;
        Pending &p = pending[slots.slot(r.id)];
        if (u == Use::Lost) {
            p.lost = true;
            return;
        }
        const MergeKey key{r.ts, 0, r.seq};
        if (!p.finished || p.request < key) {
            p.request = key;
            p.arrival = r.ts;
            p.e2e = r.dur;
            p.finished = true;
        }
    });

    // One pass per ring over the segment spans. Only finished requests
    // that were not lost build chains; a replica keeps the key of its
    // earliest span, which orders the replicas as merge order would.
    std::size_t segmentSpans = 0;
    std::vector<Replica> pool;
    for (std::uint32_t wi = 0; wi < tracer.numWriters(); ++wi)
        tracer.writer(wi)->forEach([&](const TraceRecord &r) {
            if (classify(r, wi) != Use::Segment)
                return;
            ++segmentSpans;
            const std::size_t s = slots.slot(r.id);
            if (s == slots.size())
                return; // no Request span: still in flight at trace end
            Pending &p = pending[s];
            p.segments = true;
            if (!p.finished || p.lost)
                return;
            // Fleet-spine spans name the server in `value`; a server
            // writer's spans imply that server (writer i = server i-1).
            const auto srv =
                wi == 0 ? static_cast<std::uint32_t>(r.value) : wi - 1;
            const MergeKey key{r.ts, wi, r.seq};
            std::size_t ri = p.replicas;
            while (ri != kNoReplica && pool[ri].path.srv != srv)
                ri = pool[ri].next;
            if (ri == kNoReplica) {
                ri = pool.size();
                pool.push_back({key, {}, p.replicas});
                pool.back().path.srv = srv;
                p.replicas = ri;
            } else if (key < pool[ri].first) {
                pool[ri].first = key;
            }
            const auto seg = static_cast<std::size_t>(
                segmentFromTraceName(static_cast<Name>(r.name)));
            pool[ri].path.seg[seg] += r.dur;
        });

    // No segment instrumentation ran (plain tracing): nothing to
    // attribute, and nothing to flag.
    if (segmentSpans == 0)
        return res;

    std::vector<const Replica *> chain;
    for (std::size_t s = 0; s < pending.size(); ++s) {
        const Pending &p = pending[s];
        if (p.lost) {
            if (p.finished || p.segments)
                ++res.lostExcluded;
            continue;
        }
        if (!p.finished)
            continue;
        RequestPath rp;
        rp.id = slots.id(s);
        rp.arrival = p.arrival;
        rp.e2e = p.e2e;
        chain.clear();
        for (std::size_t ri = p.replicas; ri != kNoReplica;
             ri = pool[ri].next)
            chain.push_back(&pool[ri]);
        std::sort(chain.begin(), chain.end(),
                  [](const Replica *a, const Replica *b) {
                      return a->first < b->first;
                  });
        rp.replicas.reserve(chain.size());
        for (const Replica *r : chain)
            rp.replicas.push_back(r->path);
        // The critical replica is the one whose chain sums exactly to
        // the client-observed latency (leftmost on ties). Under
        // failover a stale attempt can keep accumulating spans after
        // the winning response resolved the request — its chain may
        // exceed e2e — so "slowest" is only the fallback when no
        // replica matches exactly.
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
        if (rp.additive) {
            res.requests.push_back(std::move(rp));
        } else if (res.ringDropped > 0) {
            ++res.incomplete; // spans lost to ring wrap; chain flagged
        } else {
            ++res.violations;
            assert(!"attribution additivity violated with no ring drops");
        }
    }

    std::sort(res.requests.begin(), res.requests.end(),
              [](const RequestPath &a, const RequestPath &b) {
                  return a.arrival != b.arrival ? a.arrival < b.arrival
                                                : a.id < b.id;
              });
    return res;
}

std::vector<FlowEvent>
buildFlows(const AttributionResult &res, std::size_t limit)
{
    std::vector<FlowEvent> flows;
    const std::size_t n = std::min(limit, res.requests.size());
    flows.reserve(3 * n);
    for (std::size_t i = 0; i < n; ++i) {
        const RequestPath &rp = res.requests[i];
        const ReplicaPath &cp = rp.criticalPath();
        const sim::Tick serve_start = rp.arrival + rp.e2e -
            cp.seg[static_cast<std::size_t>(Segment::Serve)] -
            cp.seg[static_cast<std::size_t>(Segment::StallDvfs)] -
            cp.seg[static_cast<std::size_t>(Segment::XmitResp)];
        flows.push_back({rp.id, 0, rp.arrival,
                         static_cast<std::uint8_t>(Track::Requests), 0});
        flows.push_back({rp.id, cp.srv + 1, serve_start,
                         static_cast<std::uint8_t>(Track::Segments), 1});
        flows.push_back({rp.id, 0, rp.arrival + rp.e2e,
                         static_cast<std::uint8_t>(Track::Requests), 2});
    }
    return flows;
}

} // namespace apc::obs
