/**
 * @file
 * Discrete-event queue for the AgilePkgC simulator.
 *
 * Events are (time, sequence, callback) triples; the monotonically
 * increasing sequence number makes same-tick ordering deterministic
 * (FIFO among events scheduled for the same tick). The firing order is
 * the total order by (when, seq) regardless of which internal container
 * an event lands in, so results are bit-identical to a plain binary
 * heap.
 *
 * The implementation is built for the fleet-sweep hot path (millions of
 * short-horizon timers per run):
 *
 *  - **Chunked event records that never move.** Callbacks live in a
 *    pooled `Record` with an inline small-buffer callable
 *    (`InplaceFunction`), so scheduling performs no `std::function` or
 *    `shared_ptr` heap allocation. Records sit in fixed-size chunks
 *    that are never reallocated, so each callable runs in place in its
 *    record: a callback may schedule (growing the pool by a chunk)
 *    without moving itself. Slots are recycled through a free list;
 *    `EventHandle`s carry a generation counter that is bumped when the
 *    event fires or is cancelled, so a handle goes stale (not
 *    dangling) the moment its event stops being pending.
 *
 *  - **Near run plus heap.** Almost every event a server schedules is
 *    due within a microsecond and no earlier than the last one
 *    scheduled (choreography steps, wire delays, hysteresis timers).
 *    Such an event is appended to a sorted run: its sequence number is
 *    the largest yet, so the run stays in (when, seq) order without a
 *    sort. Every other event goes to a binary heap, and each pop takes
 *    the earlier of the two heads. A server's queue peaks at a few
 *    dozen to a couple of hundred pending events, too few for a timer
 *    wheel's bucket array to pay for its memory.
 *
 *  - **One pop per event.** `runUntil`, `step` and `runAll` share one
 *    pop that reaps tombstones off both heads, compares the heads once
 *    and takes the earlier if it is due.
 *
 *  - **Tombstone reaping.** `EventHandle::cancel()` is O(1) (flag +
 *    immediate callback destruction); dead entries are dropped lazily
 *    at the consumption point and compacted eagerly once they
 *    outnumber live events, so cancel/reschedule-heavy workloads no
 *    longer grow the queue without bound.
 */

#ifndef APC_SIM_EVENT_QUEUE_H
#define APC_SIM_EVENT_QUEUE_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inline_function.h"
#include "sim/time.h"

namespace apc::sim {

/**
 * Callback type executed when an event fires. Inline capacity of 64
 * bytes covers a `this` pointer plus several captured scalars — the
 * entire simulator schedules without a callback heap allocation.
 */
using EventFn = InplaceFunction<void(), 64>;

class EventQueue;

namespace detail {
/**
 * Debug-build liveness probe: true while @p q is a constructed, not yet
 * destroyed EventQueue whose debugEpoch() equals @p epoch. Backed by a
 * registry of live queues (so it never dereferences @p q) and used to
 * assert that a handle is not operated on after its queue's
 * destruction. Matching on the per-queue epoch — a process-unique id
 * minted at construction — keeps the probe reliable even when a new
 * queue is allocated at the destroyed queue's address (common in fleet
 * sweeps that recycle same-sized per-server Simulations). Always true
 * in NDEBUG builds.
 */
bool queueAlive(const EventQueue *q, std::uint64_t epoch);
} // namespace detail

/**
 * Cancellable reference to a scheduled event.
 *
 * Default-constructed handles are inert. Handles are cheap to copy
 * (two words in release builds, three in debug ones; no ownership);
 * all copies refer to the same underlying event. A handle whose event
 * has fired — or whose pooled slot has been recycled for a newer event
 * — compares the stored generation against the slot's and degrades to
 * a no-op, so stale handles can never cancel somebody else's event.
 *
 * Handles reference their EventQueue without owning it (unlike the
 * previous shared_ptr-based design): cancel()/pending() must not be
 * called after the queue is destroyed. In practice every handle lives
 * in a component owned alongside the queue's Simulation, so normal
 * teardown is safe. Debug builds assert on such use-after-destruction
 * via a live-queue registry (see detail::queueAlive) instead of
 * dereferencing freed memory; release builds do not pay for the check.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** Cancel the event if it has not fired yet. Safe to call repeatedly. */
    inline void cancel();

    /** @return true if this handle refers to a not-yet-fired event. */
    inline bool pending() const;

    /** @return true if this handle refers to any event at all. */
    bool valid() const { return queue_ != nullptr; }

  private:
    friend class EventQueue;

    EventHandle(EventQueue *queue,
                [[maybe_unused]] std::uint64_t queue_epoch,
                std::uint32_t slot, std::uint32_t gen)
        : queue_(queue),
#ifndef NDEBUG
          queueEpoch_(queue_epoch),
#endif
          slot_(slot), gen_(gen)
    {}

    EventQueue *queue_ = nullptr;
#ifndef NDEBUG
    /** The queue's debugEpoch(), for the use-after-destroy assert;
     *  only debug builds carry it, so a release handle is two words. */
    std::uint64_t queueEpoch_ = 0;
#endif
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
};

/**
 * The central event queue. Owns simulated time: time only advances when
 * events are popped.
 */
class EventQueue
{
  public:
    /**
     * Near horizon: only an event due less than this far past now()
     * may join the run (2^20 ps ≈ 1.05 µs). A farther event would pin
     * the run's tail and push every nearer event that follows it into
     * the heap. Picked by measurement over 2^16 .. 2^22 on a
     * 1024-server C_PC1A fleet at 10% load: 2^19 and 2^20 send the
     * fewest schedules to the heap (39%).
     */
    static constexpr Tick kNearHorizon = Tick(1) << 20;

    EventQueue();  // registers in the debug live-queue registry
    ~EventQueue(); // unregisters
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p fn to run at absolute time @p when. The callable is
     * constructed directly into the pooled event record — no temporary
     * `EventFn`, no relocation, no heap allocation when it fits inline.
     *
     * @pre when >= now(); scheduling in the past is a simulator bug and
     *      asserts in debug builds (clamped to now() otherwise).
     */
    template <typename F>
    EventHandle
    scheduleAt(Tick when, F &&fn)
    {
        const std::uint32_t slot = prepareSchedule(when);
        Record &rec = record(slot);
        rec.fn = std::forward<F>(fn);
        return EventHandle(this, epoch_, slot, rec.gen);
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <typename F>
    EventHandle
    scheduleAfter(Tick delay, F &&fn)
    {
        return scheduleAt(now_ + delay, std::forward<F>(fn));
    }

    /**
     * Run events until the queue is empty or simulated time would exceed
     * @p until. Events scheduled exactly at @p until do run. Afterwards,
     * now() == max(now, until) if the limit was reached.
     *
     * @return number of events executed.
     */
    std::uint64_t runUntil(Tick until);

    /** Run until the queue drains completely. @return events executed. */
    std::uint64_t runAll();

    /**
     * Execute at most one pending event.
     * @return true if an event was executed.
     */
    bool step();

    /** Number of live (scheduled, not cancelled) events. */
    std::size_t pendingEvents() const { return live_; }

    /** Events executed since construction, as of the last return
     *  from runUntil(), runAll() or step(). */
    std::uint64_t executedEvents() const { return executed_; }

    /**
     * Entries physically present in the internal containers, including
     * cancelled-but-unreaped tombstones. Compaction keeps this within a
     * small factor of pendingEvents(); exposed for regression tests.
     */
    std::size_t internalEntries() const { return live_ + dead_; }

    /** Cancelled entries awaiting reaping. */
    std::size_t deadEntries() const { return dead_; }

    /**
     * Record-pool slots handed out so far: the high-water mark of
     * internalEntries() plus the records of callbacks still running.
     */
    std::size_t poolCapacity() const { return slots_; }

    /** Eager tombstone compaction passes run so far. */
    std::uint64_t compactions() const { return compactions_; }

    /**
     * Process-unique id minted at construction (0 in NDEBUG builds);
     * pairs with detail::queueAlive() for use-after-destroy detection.
     */
    std::uint64_t debugEpoch() const { return epoch_; }

    /** Events appended to the near run / pushed on the binary heap. */
    std::uint64_t wheelScheduled() const { return wheelScheduled_; }
    std::uint64_t heapScheduled() const { return heapScheduled_; }

  private:
    friend class EventHandle;

    static constexpr std::uint32_t kNoSlot = UINT32_MAX;
    /** Records per chunk (2^4 × 88 bytes): a C_PC1A server at low load
     *  keeps 16–18 records, so about half the servers of a fleet need
     *  one chunk, and the rest a second. */
    static constexpr std::uint32_t kChunkShift = 4;
    static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;

    /**
     * Pooled event record; the callable lives inline here. `gen` is
     * bumped when the event fires or is cancelled, so a handle matches
     * its record's generation exactly while the event is pending.
     */
    struct Record
    {
        EventFn fn;
        std::uint32_t gen = 0;
        std::uint32_t nextFree = kNoSlot;
        bool cancelled = false;
    };

    Record &
    record(std::uint32_t slot)
    {
        return chunks_[slot >> kChunkShift][slot & kChunkMask];
    }
    const Record &
    record(std::uint32_t slot) const
    {
        return chunks_[slot >> kChunkShift][slot & kChunkMask];
    }

    /** Lightweight entry stored in the near run and the heap. */
    struct Ref
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Heap comparator: min-heap by (when, seq). */
    struct RefLater
    {
        bool
        operator()(const Ref &a, const Ref &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    bool refDead(const Ref &r) const { return record(r.slot).cancelled; }

    /**
     * Allocate a record, assign its sequence number, and place the
     * (when, seq, slot) ref in the near run or the heap. The caller
     * fills in the callable. @return the record slot.
     */
    std::uint32_t prepareSchedule(Tick when);

    std::uint32_t allocSlot();
    void addChunk();
    void freeSlot(std::uint32_t slot);
    /** Free the tombstones at the run cursor and the heap top. */
    void reapHeads();
    /**
     * Reap tombstones off both heads and take the earliest live event
     * if it is due no later than @p until, advancing now() to it.
     * @return its slot, or kNoSlot.
     */
    std::uint32_t pop(Tick until);
    /** Run the popped event's callable in place, then free its slot. */
    void fire(std::uint32_t slot);
    void maybeCompact();
    void compact();

    // EventHandle backends.
    void cancelEvent(std::uint32_t slot, std::uint32_t gen);
    bool
    eventPending(std::uint32_t slot, std::uint32_t gen) const
    {
        return slot < slots_ && record(slot).gen == gen;
    }

    /** See debugEpoch(). Assigned in the constructor, debug builds only. */
    std::uint64_t epoch_ = 0;

    /** Record chunks; a chunk never moves once allocated. */
    std::vector<std::unique_ptr<Record[]>> chunks_;
    std::uint32_t slots_ = 0;
    std::uint32_t freeHead_ = kNoSlot;

    /** Events that could not join the run, min-heap by (when, seq). */
    std::vector<Ref> heap_;

    /** Near run, sorted by (when, seq); [0, runPos_) is consumed. */
    std::vector<Ref> run_;
    std::size_t runPos_ = 0;

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t live_ = 0;
    std::size_t dead_ = 0;
    std::uint64_t compactions_ = 0;
    std::uint64_t wheelScheduled_ = 0;
    std::uint64_t heapScheduled_ = 0;
};

inline void
EventHandle::cancel()
{
    if (!queue_)
        return;
    assert(detail::queueAlive(queue_, queueEpoch_) &&
           "EventHandle::cancel() after its EventQueue was destroyed");
    queue_->cancelEvent(slot_, gen_);
}

inline bool
EventHandle::pending() const
{
    if (!queue_)
        return false;
    assert(detail::queueAlive(queue_, queueEpoch_) &&
           "EventHandle::pending() after its EventQueue was destroyed");
    return queue_->eventPending(slot_, gen_);
}

} // namespace apc::sim

#endif // APC_SIM_EVENT_QUEUE_H
