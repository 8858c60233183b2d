#include "obs/attribution.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <numeric>

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
RequestRecord::dominant() const
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < kNumSegments; ++i)
        if (seg[i] > seg[best])
            best = i;
    return static_cast<Segment>(best);
}

void
SegmentSums::add(const SegmentSums &o)
{
    first = std::min(first, o.first);
    for (std::size_t i = 0; i < kNumSegments; ++i)
        seg[i] += o.seg[i];
}

sim::Tick
SegmentSums::total() const
{
    return std::accumulate(std::begin(seg), std::end(seg), sim::Tick{0});
}

void
RequestChains::add(const ReplicaSums &r)
{
    if (r.sums.empty())
        return;
    for (ReplicaSums &have : replicas_)
        if (have.srv == r.srv) {
            have.sums.add(r.sums);
            return;
        }
    replicas_.push_back(r);
}

void
AttributionResult::answered(std::uint64_t id, sim::Tick arrival,
                            sim::Tick e2e, const ReplicaSums *replicas,
                            std::size_t n)
{
    const ReplicaSums *critical = nullptr;
    for (std::size_t i = 0; i < n; ++i) {
        const ReplicaSums &r = replicas[i];
        if (r.sums.total() == e2e &&
            (!critical || r.sums.first < critical->sums.first))
            critical = &r;
    }
    if (!critical) {
        ++violations;
        assert(!"attribution: no replica chain sums to the latency");
        return;
    }
    RequestRecord rec;
    rec.id = id;
    rec.arrival = arrival;
    rec.e2e = e2e;
    rec.srv = critical->srv;
    rec.replicas = static_cast<std::uint32_t>(n);
    std::copy(std::begin(critical->sums.seg), std::end(critical->sums.seg),
              rec.seg);
    push(rec);
}

void
AttributionResult::push(const RequestRecord &r)
{
    if (size_ % kChunk == 0) {
        chunks_.emplace_back();
        chunks_.back().reserve(kChunk);
    }
    chunks_.back().push_back(r);
    ++size_;
}

std::vector<std::uint32_t>
AttributionResult::firstByArrival(std::size_t limit) const
{
    // One sequential pass over the chunks keeps the earliest records'
    // keys in a max-heap: no random access into the store.
    struct Key
    {
        sim::Tick arrival;
        std::uint64_t id;
        std::uint32_t idx;
    };
    const auto before = [](const Key &a, const Key &b) {
        return a.arrival != b.arrival ? a.arrival < b.arrival : a.id < b.id;
    };
    const std::size_t keep = std::min(limit, size_);
    std::vector<Key> heap;
    heap.reserve(keep);
    for (std::size_t i = 0; i < size_ && keep > 0; ++i) {
        const RequestRecord &r = (*this)[i];
        const Key k{r.arrival, r.id, static_cast<std::uint32_t>(i)};
        if (heap.size() < keep) {
            heap.push_back(k);
            std::push_heap(heap.begin(), heap.end(), before);
        } else if (before(k, heap.front())) {
            std::pop_heap(heap.begin(), heap.end(), before);
            heap.back() = k;
            std::push_heap(heap.begin(), heap.end(), before);
        }
    }
    std::sort_heap(heap.begin(), heap.end(), before);
    std::vector<std::uint32_t> idx;
    idx.reserve(heap.size());
    for (const Key &k : heap)
        idx.push_back(k.idx);
    return idx;
}

std::vector<FlowEvent>
buildFlows(const AttributionResult &res, std::size_t limit)
{
    std::vector<FlowEvent> flows;
    const std::vector<std::uint32_t> first = res.firstByArrival(limit);
    flows.reserve(3 * first.size());
    for (const std::uint32_t i : first) {
        const RequestRecord &r = res[i];
        const sim::Tick serve_start = r.arrival + r.e2e -
            r.seg[static_cast<std::size_t>(Segment::Serve)] -
            r.seg[static_cast<std::size_t>(Segment::StallDvfs)] -
            r.seg[static_cast<std::size_t>(Segment::XmitResp)];
        flows.push_back({r.id, 0, r.arrival,
                         static_cast<std::uint8_t>(Track::Requests), 0});
        flows.push_back({r.id, r.srv + 1, serve_start,
                         static_cast<std::uint8_t>(Track::Segments), 1});
        flows.push_back({r.id, 0, r.arrival + r.e2e,
                         static_cast<std::uint8_t>(Track::Requests), 2});
    }
    return flows;
}

} // namespace apc::obs
