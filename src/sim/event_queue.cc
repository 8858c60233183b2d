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
        freeHead_ = records_[slot].nextFree;
        return slot;
    }
    records_.emplace_back();
    return static_cast<std::uint32_t>(records_.size() - 1);
}

void
EventQueue::freeSlot(std::uint32_t slot)
{
    Record &rec = records_[slot];
    rec.fn = nullptr;
    ++rec.gen; // invalidates outstanding handles
    rec.scheduled = false;
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
    Record &rec = records_[slot];
    rec.seq = nextSeq_++;
    rec.scheduled = true;
    ++live_;

    const Ref ref{when, rec.seq, slot};
    if (when - now_ < kNearHorizon &&
        (run_.empty() || when >= run_.back().when)) {
        // Drop the consumed prefix once it is at least half the run:
        // amortised O(1), and a run that never drains stays bounded.
        if (runPos_ != 0 && 2 * runPos_ >= run_.size()) {
            run_.erase(run_.begin(),
                       run_.begin() + static_cast<std::ptrdiff_t>(runPos_));
            runPos_ = 0;
        }
        run_.push_back(ref);
        ++wheelScheduled_;
    } else {
        heap_.push_back(ref);
        std::push_heap(heap_.begin(), heap_.end(), RefLater{});
        ++heapScheduled_;
    }
    return slot;
}

void
EventQueue::cancelEvent(std::uint32_t slot, std::uint32_t gen)
{
    if (slot >= records_.size())
        return;
    Record &rec = records_[slot];
    if (rec.gen != gen || !rec.scheduled || rec.cancelled)
        return;
    rec.cancelled = true;
    rec.fn = nullptr; // release captured state immediately
    --live_;
    ++dead_;
    maybeCompact();
}

/**
 * Reap tombstones off the run cursor and the heap top, so both heads
 * are live. @return true if any event is pending.
 */
bool
EventQueue::prepareNext()
{
    if (dead_ > 0) {
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
    return runPos_ < run_.size() || !heap_.empty();
}

bool
EventQueue::takeNext(Ref &out)
{
    if (!prepareNext())
        return false;
    const bool haveRun = runPos_ < run_.size();
    bool fromRun = haveRun;
    if (haveRun && !heap_.empty()) {
        const Ref &r = run_[runPos_];
        const Ref &h = heap_.front();
        fromRun = r.when != h.when ? r.when < h.when : r.seq < h.seq;
    }
    if (fromRun) {
        out = run_[runPos_++];
    } else {
        out = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), RefLater{});
        heap_.pop_back();
    }
    return true;
}

bool
EventQueue::peekWhen(Tick &when)
{
    if (!prepareNext())
        return false;
    const bool haveRun = runPos_ < run_.size();
    if (haveRun && !heap_.empty())
        when = std::min(run_[runPos_].when, heap_.front().when);
    else
        when = haveRun ? run_[runPos_].when : heap_.front().when;
    return true;
}

bool
EventQueue::step()
{
    Ref ref;
    if (!takeNext(ref))
        return false;
    assert(ref.when >= now_);
    now_ = ref.when;
    Record &rec = records_[ref.slot];
    EventFn fn = std::move(rec.fn);
    // Free the slot before invoking: the callback may schedule (growing
    // the pool and invalidating `rec`) or cancel its own stale handle.
    freeSlot(ref.slot);
    --live_;
    ++executed_;
    fn();
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    std::uint64_t n = 0;
    Tick when;
    while (peekWhen(when) && when <= until) {
        step();
        ++n;
    }
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
