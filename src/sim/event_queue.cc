#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

#ifndef NDEBUG
#include <atomic>
#include <unordered_map>

#include "sim/annotations.h"
#endif

namespace apc::sim {

#ifndef NDEBUG
namespace {

// The registry maps each live queue to its epoch — a process-unique id
// — so a probe cannot pass falsely when a new queue is allocated at a
// destroyed queue's address. The shared mutex keeps the hot probe
// (every debug cancel()/pending(), from every fleet worker thread) on
// the read path; the write path runs only at queue construction and
// destruction. The map never escapes this struct, so the GUARDED_BY
// annotation covers every access statically.
struct LiveQueueRegistry
{
    SharedMutex m;
    std::unordered_map<const EventQueue *, std::uint64_t> map
        APC_GUARDED_BY(m);
};

// Function-local static dodges static-init-order issues.
LiveQueueRegistry &
registry()
{
    // lint:allow(mutable-global) debug-build handle-validation
    // registry; consulted only to detect stale handles, never feeds
    // simulation results
    static LiveQueueRegistry r;
    return r;
}

std::uint64_t
nextQueueEpoch()
{
    // lint:allow(mutable-global) mints process-unique queue epochs for
    // the debug registry above; the values never reach reports
    static std::atomic<std::uint64_t> counter{0};
    return ++counter;
}

} // namespace

bool
detail::queueAlive(const EventQueue *q, std::uint64_t epoch)
{
    LiveQueueRegistry &r = registry();
    SharedMutexSharedLock lock(r.m);
    auto it = r.map.find(q);
    return it != r.map.end() && it->second == epoch;
}

EventQueue::EventQueue() : epoch_(nextQueueEpoch())
{
    LiveQueueRegistry &r = registry();
    SharedMutexExclusiveLock lock(r.m);
    r.map.emplace(this, epoch_);
}

EventQueue::~EventQueue()
{
    LiveQueueRegistry &r = registry();
    SharedMutexExclusiveLock lock(r.m);
    r.map.erase(this);
}
#else
// Keep the symbols defined even in release builds so TUs compiled with
// assertions enabled can link against a release library (the probe then
// never reports a false positive — it just stops catching misuse).
bool
detail::queueAlive(const EventQueue *, std::uint64_t)
{
    return true;
}

EventQueue::EventQueue() = default;
EventQueue::~EventQueue() = default;
#endif

std::uint32_t
EventQueue::allocSlot()
{
    if (freeHead_ != kNoSlot) {
        const std::uint32_t slot = freeHead_;
        freeHead_ = record(slot).nextFree;
        return slot;
    }
    if ((slots_ & kChunkMask) == 0)
        addChunk();
    return slots_++;
}

// Out of line, so that allocSlot's fast path inlines into
// prepareSchedule.
void
EventQueue::addChunk()
{
    chunks_.push_back(std::make_unique<Record[]>(kChunkMask + 1));
}

/** Return a fired or reaped record (callable already destroyed) to
 *  the free list. */
void
EventQueue::freeSlot(std::uint32_t slot)
{
    Record &rec = record(slot);
    rec.cancelled = false;
    rec.nextFree = freeHead_;
    freeHead_ = slot;
}

std::uint32_t
EventQueue::prepareSchedule(Tick when)
{
    assert(when >= now_ && "event scheduled in the past");
    if (when < now_)
        when = now_;

    const std::uint32_t slot = allocSlot();
    ++live_;

    const bool near = when - now_ < kNearHorizon &&
        (run_.empty() || when >= run_.back().when);
    // Drop the consumed prefix once it is at least half the run:
    // amortised O(1), and a run that never drains stays bounded.
    if (near && runPos_ != 0 && 2 * runPos_ >= run_.size()) {
        run_.erase(run_.begin(),
                   run_.begin() + static_cast<std::ptrdiff_t>(runPos_));
        runPos_ = 0;
    }
    // Fill the ref where it lands: copying in a stack temporary stalls
    // on store forwarding (three narrow stores, two wide loads).
    Ref &ref = (near ? run_ : heap_).emplace_back();
    ref.when = when;
    ref.seq = nextSeq_++;
    ref.slot = slot;
    if (near) {
        ++wheelScheduled_;
    } else {
        std::push_heap(heap_.begin(), heap_.end(), RefLater{});
        ++heapScheduled_;
    }
    return slot;
}

void
EventQueue::cancelEvent(std::uint32_t slot, std::uint32_t gen)
{
    if (!eventPending(slot, gen))
        return;
    Record &rec = record(slot);
    ++rec.gen; // invalidates outstanding handles
    rec.cancelled = true;
    rec.fn = nullptr; // release captured state immediately
    --live_;
    ++dead_;
    maybeCompact();
}

void
EventQueue::reapHeads()
{
    while (runPos_ < run_.size() && refDead(run_[runPos_])) {
        --dead_;
        freeSlot(run_[runPos_].slot);
        ++runPos_;
    }
    while (!heap_.empty() && refDead(heap_.front())) {
        --dead_;
        freeSlot(heap_.front().slot);
        std::pop_heap(heap_.begin(), heap_.end(), RefLater{});
        heap_.pop_back();
    }
}

std::uint32_t
EventQueue::pop(Tick until)
{
    if (dead_ > 0)
        reapHeads();
    const bool haveHeap = !heap_.empty();
    if (runPos_ < run_.size() &&
        (!haveHeap || RefLater{}(heap_.front(), run_[runPos_]))) {
        const Ref &r = run_[runPos_];
        if (r.when > until)
            return kNoSlot;
        ++runPos_;
        assert(r.when >= now_);
        now_ = r.when;
        return r.slot;
    }
    if (!haveHeap || heap_.front().when > until)
        return kNoSlot;
    const Ref h = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), RefLater{});
    heap_.pop_back();
    assert(h.when >= now_);
    now_ = h.when;
    return h.slot;
}

void
EventQueue::fire(std::uint32_t slot)
{
    // The record's chunk never moves, so the callable runs where it
    // lies even if it schedules more events. Bumping gen first makes
    // the event's own handles read not-pending (and cancel() a no-op)
    // while it runs; the slot joins the free list only afterwards.
    Record &rec = record(slot);
    ++rec.gen;
    --live_;
    rec.fn();
    rec.fn = nullptr;
    freeSlot(slot);
}

bool
EventQueue::step()
{
    const std::uint32_t slot = pop(kTickNever);
    if (slot == kNoSlot)
        return false;
    fire(slot);
    ++executed_;
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    std::uint64_t n = 0;
    for (std::uint32_t slot; (slot = pop(until)) != kNoSlot; ++n)
        fire(slot);
    // Counted once per call: a per-event increment beside --live_ was
    // merged into one 16-byte update that stalls on store forwarding
    // whenever the callback schedules (prepareSchedule's ++live_).
    executed_ += n;
    if (now_ < until)
        now_ = until;
    return n;
}

std::uint64_t
EventQueue::runAll()
{
    std::uint64_t n = 0;
    while (step())
        ++n;
    return n;
}

void
EventQueue::maybeCompact()
{
    if (dead_ >= 64 && dead_ > live_)
        compact();
}

/** Reap every tombstone from the heap and the run tail. */
void
EventQueue::compact()
{
    auto reap = [this](std::vector<Ref> &v, std::size_t from = 0) {
        auto out = v.begin() + static_cast<std::ptrdiff_t>(from);
        for (auto it = out; it != v.end(); ++it) {
            if (refDead(*it)) {
                freeSlot(it->slot);
            } else {
                *out++ = *it;
            }
        }
        v.erase(out, v.end());
    };

    const std::size_t heapBefore = heap_.size();
    reap(heap_);
    if (heap_.size() != heapBefore)
        std::make_heap(heap_.begin(), heap_.end(), RefLater{});

    // The run prefix [0, runPos_) is already consumed; reap the tail in
    // place (it stays sorted — reaping preserves relative order).
    reap(run_, runPos_);

    dead_ = 0;
    ++compactions_;
}

} // namespace apc::sim
