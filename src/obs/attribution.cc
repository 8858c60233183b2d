#include "obs/attribution.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <numeric>
#include <stdexcept>

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

namespace {

constexpr std::uint64_t kSlotMax = std::uint64_t{1} << 32;

/** @p r fits a Slot: one replica, a chain summing to e2e, every tick
 *  and the id below 2^32, and a server that is not the sentinel. */
bool
packs(const RequestRecord &r)
{
    if (r.replicas != 1 || r.id >= kSlotMax ||
        r.srv == AttributionResult::kSide)
        return false;
    sim::Tick sum = 0;
    for (const sim::Tick s : r.seg) {
        if (static_cast<std::uint64_t>(s) >= kSlotMax)
            return false;
        sum += s;
    }
    return sum == r.e2e;
}

} // namespace

void
AttributionResult::push(const RequestRecord &r)
{
    if (size_ >= kMaxRecords)
        throw std::length_error(
            "attribution: more than 2^32 records in one run");
    if (size_ % kChunk == 0) {
        chunks_.emplace_back();
        chunks_.back().reserve(kChunk);
    }
    Slot s;
    s.arrival = r.arrival;
    if (packs(r)) {
        s.id = static_cast<std::uint32_t>(r.id);
        s.srv = r.srv;
        std::copy(std::begin(r.seg), std::end(r.seg), s.seg);
    } else {
        s.id = static_cast<std::uint32_t>(side_.size());
        s.srv = kSide;
        side_.push_back(r);
    }
    chunks_.back().push_back(s);
    ++size_;
}

RequestRecord
AttributionResult::operator[](std::size_t i) const
{
    const Slot &s = slot(i);
    if (s.srv == kSide)
        return side_[s.id];
    RequestRecord r;
    r.id = s.id;
    r.arrival = s.arrival;
    r.srv = s.srv;
    r.replicas = 1;
    for (std::size_t k = 0; k < kNumSegments; ++k) {
        r.seg[k] = s.seg[k];
        r.e2e += s.seg[k];
    }
    return r;
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
        const Slot &s = slot(i);
        const Key k{s.arrival, s.srv == kSide ? side_[s.id].id : s.id,
                    static_cast<std::uint32_t>(i)};
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
        const RequestRecord r = res[i];
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
