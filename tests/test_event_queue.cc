/**
 * @file
 * Unit tests for the discrete-event kernel (sim/event_queue.h,
 * sim/inline_function.h, sim/simulation.h, sim/time.h,
 * sim/wait_list.h).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/inline_function.h"
#include "sim/simulation.h"
#include "sim/time.h"
#include "sim/wait_list.h"

namespace apc::sim {
namespace {

TEST(Time, UnitConstants)
{
    EXPECT_EQ(kNs, 1000);
    EXPECT_EQ(kUs, 1000 * kNs);
    EXPECT_EQ(kMs, 1000 * kUs);
    EXPECT_EQ(kSec, 1000 * kMs);
}

TEST(Time, Conversions)
{
    EXPECT_DOUBLE_EQ(toSeconds(kSec), 1.0);
    EXPECT_DOUBLE_EQ(toMicros(kUs), 1.0);
    EXPECT_DOUBLE_EQ(toNanos(150 * kNs), 150.0);
    EXPECT_EQ(fromSeconds(2.5), 2 * kSec + 500 * kMs);
    EXPECT_EQ(fromMicros(0.5), 500 * kNs);
    EXPECT_EQ(fromNanos(64.0), 64 * kNs);
}

TEST(Time, NegativeDeltasRoundToNearest)
{
    // The old `+ 0.5`-then-truncate rounded negatives toward zero:
    // fromNanos(-0.6) evaluated to -599 ps and fromSeconds(-1e-12) to
    // 0. llround rounds to nearest with halves away from zero.
    EXPECT_EQ(fromNanos(-0.6), -600);
    EXPECT_EQ(fromNanos(-1.0), -1 * kNs);
    EXPECT_EQ(fromMicros(-0.5), -500 * kNs);
    EXPECT_EQ(fromSeconds(-2.5), -(2 * kSec + 500 * kMs));
    EXPECT_EQ(fromSeconds(-1e-12), -1); // -1 ps must not collapse to 0
}

TEST(Time, RoundingBoundaries)
{
    // Halves round away from zero (llround semantics).
    EXPECT_EQ(fromNanos(0.0005), 1);
    EXPECT_EQ(fromNanos(-0.0005), -1);
    EXPECT_EQ(fromNanos(0.0004), 0);
    EXPECT_EQ(fromNanos(-0.0004), 0);
    EXPECT_EQ(fromNanos(2.4999), 2500); // nearest, not floor
    EXPECT_EQ(fromMicros(-1.25), -1250 * kNs);
}

TEST(Time, ClockPeriod500MHz)
{
    // The APMU clock from the paper: 500 MHz -> 2 ns period.
    EXPECT_EQ(clockPeriod(500e6), 2 * kNs);
    EXPECT_EQ(clockPeriod(1e9), 1 * kNs);
}

TEST(Time, CeilToPeriod)
{
    EXPECT_EQ(ceilToPeriod(0, 2 * kNs), 0);
    EXPECT_EQ(ceilToPeriod(1, 2 * kNs), 2 * kNs);
    EXPECT_EQ(ceilToPeriod(2 * kNs, 2 * kNs), 2 * kNs);
    EXPECT_EQ(ceilToPeriod(2 * kNs + 1, 2 * kNs), 4 * kNs);
}

TEST(Time, Format)
{
    EXPECT_EQ(formatTime(150 * kNs), "150ns");
    EXPECT_EQ(formatTime(2 * kUs + 500 * kNs), "2.5us");
    EXPECT_EQ(formatTime(1 * kSec), "1s");
    EXPECT_EQ(formatTime(500), "500ps");
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.scheduleAt(30, [&] { order.push_back(3); });
    q.scheduleAt(10, [&] { order.push_back(1); });
    q.scheduleAt(20, [&] { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.scheduleAt(5, [&order, i] { order.push_back(i); });
    q.runAll();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int fired = 0;
    q.scheduleAt(10, [&] { ++fired; });
    q.scheduleAt(20, [&] { ++fired; });
    q.scheduleAt(30, [&] { ++fired; });
    EXPECT_EQ(q.runUntil(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 20);
    EXPECT_EQ(q.runUntil(100), 1u);
    EXPECT_EQ(q.now(), 100);
}

TEST(EventQueue, RunUntilAdvancesTimeWithEmptyQueue)
{
    EventQueue q;
    q.runUntil(500);
    EXPECT_EQ(q.now(), 500);
}

TEST(EventQueue, EventsScheduledFromEvents)
{
    EventQueue q;
    std::vector<Tick> times;
    q.scheduleAt(10, [&] {
        times.push_back(q.now());
        q.scheduleAfter(5, [&] { times.push_back(q.now()); });
    });
    q.runAll();
    EXPECT_EQ(times, (std::vector<Tick>{10, 15}));
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    int fired = 0;
    auto h = q.scheduleAt(10, [&] { ++fired; });
    EXPECT_TRUE(h.pending());
    h.cancel();
    EXPECT_FALSE(h.pending());
    q.runAll();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, CancelAfterFireIsHarmless)
{
    EventQueue q;
    int fired = 0;
    auto h = q.scheduleAt(10, [&] { ++fired; });
    q.runAll();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(h.pending());
    h.cancel(); // no-op
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, DefaultHandleIsInert)
{
    EventHandle h;
    EXPECT_FALSE(h.valid());
    EXPECT_FALSE(h.pending());
    h.cancel(); // must not crash
}

TEST(EventQueue, ExecutedCountsOnlyLiveEvents)
{
    EventQueue q;
    auto h = q.scheduleAt(5, [] {});
    q.scheduleAt(6, [] {});
    h.cancel();
    q.runAll();
    EXPECT_EQ(q.executedEvents(), 1u);
}

TEST(EventQueue, SameTickFifoAcrossRunAndHeap)
{
    // Same-tick events split across the near run and the heap must
    // fire in sequence order, whichever container holds the earlier
    // one: a heap entry before a run entry (0, 1), and run entries
    // before heap entries that missed the run because its tail is
    // later (1, then 2 and 3, then the tail 4).
    EventQueue q;
    const Tick target = 2 * EventQueue::kNearHorizon;
    std::vector<int> order;
    q.scheduleAt(target, [&] { order.push_back(0); }); // beyond horizon
    q.scheduleAt(target - 50, [&] {
        q.scheduleAt(target, [&] { order.push_back(1); });     // run
        q.scheduleAt(target + 5, [&] { order.push_back(4); }); // run tail
        q.scheduleAt(target, [&] { order.push_back(2); });     // heap
        q.scheduleAt(target, [&] { order.push_back(3); });     // heap
    });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(q.wheelScheduled(), 2u);
    EXPECT_EQ(q.heapScheduled(), 4u);
}

TEST(EventQueue, NearHorizonBoundaryCrossings)
{
    // Events straddling the near horizon, and near events that fall
    // behind the run's tail, must fire in global (time, FIFO) order
    // regardless of container.
    EventQueue q;
    std::vector<std::pair<Tick, int>> fired;
    const Tick h = EventQueue::kNearHorizon;
    const std::vector<Tick> whens = {
        h - 2,      // run
        h + 7,      // heap (beyond horizon)
        5,          // heap (behind the run's tail)
        h - 1,      // run, new tail
        h,          // heap (exactly the horizon)
        3 * h + 11, // deep heap
        h + 7,      // heap, duplicate tick: FIFO after id 1
    };
    for (int id = 0; id < static_cast<int>(whens.size()); ++id)
        q.scheduleAt(whens[static_cast<std::size_t>(id)],
                     [&fired, &q, id] { fired.emplace_back(q.now(), id); });
    EXPECT_EQ(q.wheelScheduled(), 2u);
    EXPECT_EQ(q.heapScheduled(), 5u);
    q.runAll();
    std::vector<std::pair<Tick, int>> expect;
    for (int id = 0; id < static_cast<int>(whens.size()); ++id)
        expect.emplace_back(whens[static_cast<std::size_t>(id)], id);
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(fired, expect);
}

TEST(EventQueue, NearRunFollowsNowAfterQuietGap)
{
    // The horizon is measured from now(), not from where the run
    // started: after a long quiet gap, a short timer scheduled from a
    // far-future event still joins the near run.
    EventQueue q;
    const Tick far = 10 * EventQueue::kNearHorizon + 123;
    bool inner = false;
    q.scheduleAt(50, [] {}); // leaves a consumed run behind
    q.scheduleAt(far, [&] {
        const auto before = q.wheelScheduled();
        q.scheduleAfter(100, [&] { inner = true; });
        EXPECT_EQ(q.wheelScheduled(), before + 1);
    });
    EXPECT_EQ(q.heapScheduled(), 1u);
    q.runAll();
    EXPECT_TRUE(inner);
    EXPECT_EQ(q.now(), far + 100);
}

TEST(EventQueue, CancelThenFireRaceSameTick)
{
    // An event cancelling a same-tick later event must win the race:
    // the victim is already in a container but must never run.
    EventQueue q;
    int fired = 0;
    EventHandle victim;
    q.scheduleAt(10, [&] { victim.cancel(); });
    victim = q.scheduleAt(10, [&] { ++fired; });
    q.scheduleAt(10, [&] { ++fired; }); // bystander after the victim
    q.runAll();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.executedEvents(), 2u);
}

TEST(EventQueue, RescheduleFromCallbackPreservesOrder)
{
    // The classic hysteresis-timer pattern: cancel + re-arm from inside
    // a callback, interleaved with an independent event stream.
    EventQueue q;
    std::vector<Tick> fired;
    EventHandle timer;
    timer = q.scheduleAt(100, [&] { fired.push_back(q.now()); });
    q.scheduleAt(50, [&] {
        timer.cancel();
        timer = q.scheduleAt(150, [&] { fired.push_back(q.now()); });
    });
    q.scheduleAt(120, [&] { fired.push_back(q.now()); });
    q.runAll();
    EXPECT_EQ(fired, (std::vector<Tick>{120, 150}));
}

TEST(EventQueue, HandleInvalidationAfterGenerationReuse)
{
    EventQueue q;
    int first = 0, second = 0;
    auto h1 = q.scheduleAt(5, [&] { ++first; });
    q.runAll();
    EXPECT_EQ(first, 1);
    EXPECT_FALSE(h1.pending());
    // The pool recycles the slot for the next event; the stale handle
    // must not be able to cancel (or observe) the new occupant.
    auto h2 = q.scheduleAt(10, [&] { ++second; });
    h1.cancel();
    EXPECT_TRUE(h2.pending());
    q.runAll();
    EXPECT_EQ(second, 1);
}

TEST(EventQueue, CallbackGrowsPoolThenReadsItsCaptures)
{
    // The callable runs in place in its pooled record. Scheduling more
    // events than one record chunk holds grows the pool while it runs;
    // its captures must be intact afterwards (ASan catches a record
    // that moved out from under the running callable).
    EventQueue q;
    constexpr int kChildren = 1000;
    int children = 0;
    std::vector<std::uint64_t> seen;
    const std::uint64_t tag = 0xC0FFEE;
    const double scale = 2.5;
    q.scheduleAt(1, [&q, &children, &seen, tag, scale, n = kChildren] {
        const std::size_t before = q.poolCapacity();
        for (int i = 0; i < n; ++i)
            q.scheduleAfter(i, [&children] { ++children; });
        EXPECT_GE(q.poolCapacity(), before + static_cast<std::size_t>(n));
        seen = {tag, static_cast<std::uint64_t>(scale * 2),
                static_cast<std::uint64_t>(n)};
    });
    q.runAll();
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{0xC0FFEE, 5, kChildren}));
    EXPECT_EQ(children, kChildren);
    EXPECT_EQ(q.executedEvents(), static_cast<std::uint64_t>(kChildren) + 1);
}

TEST(EventQueue, OwnHandleIsNotPendingInsideItsCallback)
{
    EventQueue q;
    EventHandle self;
    bool pendingInside = true;
    int later = 0;
    EventHandle child;
    self = q.scheduleAt(5, [&] {
        pendingInside = self.pending();
        self.cancel(); // a no-op: the event is already running
        EXPECT_EQ(q.deadEntries(), 0u);
        EXPECT_EQ(q.pendingEvents(), 1u); // the sibling below
        child = q.scheduleAt(7, [&] { ++later; });
        self.cancel(); // must not reach the child either
        EXPECT_TRUE(child.pending());
    });
    q.scheduleAt(6, [&] { ++later; });
    q.runAll();
    EXPECT_FALSE(pendingInside);
    EXPECT_EQ(later, 2);
    EXPECT_EQ(q.executedEvents(), 3u);
    EXPECT_EQ(q.deadEntries(), 0u);
}

TEST(EventQueue, CallbackCancelsSameTickSiblings)
{
    // Siblings due at the same tick as the canceller and after it in
    // FIFO order, one in each container: one pushed to the heap long
    // before, one appended to the near run just before. Cancelling
    // releases each sibling's captures at once, while the canceller is
    // still running, and neither sibling ever runs.
    EventQueue q;
    const Tick t = 10 * EventQueue::kNearHorizon;
    auto heapToken = std::make_shared<int>(1);
    auto runToken = std::make_shared<int>(2);
    int siblingsRan = 0;
    EventHandle inHeap, inRun;
    long heapUses = 0, runUses = 0;
    q.scheduleAt(t, [&] {
        inHeap.cancel();
        inRun.cancel();
        heapUses = heapToken.use_count();
        runUses = runToken.use_count();
        EXPECT_EQ(q.pendingEvents(), 0u);
    });
    inHeap = q.scheduleAt(t, [&siblingsRan, heapToken] { ++siblingsRan; });
    ASSERT_EQ(q.heapScheduled(), 2u);
    q.runUntil(t - 1);
    inRun = q.scheduleAt(t, [&siblingsRan, runToken] { ++siblingsRan; });
    ASSERT_EQ(q.wheelScheduled(), 1u);
    EXPECT_EQ(heapToken.use_count(), 2);
    q.runAll();
    EXPECT_EQ(siblingsRan, 0);
    EXPECT_EQ(heapUses, 1);
    EXPECT_EQ(runUses, 1);
    EXPECT_EQ(q.executedEvents(), 1u);
    EXPECT_EQ(q.internalEntries(), 0u);
}

TEST(EventQueue, DebugLivenessRegistryMatchesOnEpoch)
{
    // (After-destroy detection end-to-end is the death test below;
    // probing a literal freed pointer here would itself be UB.)
    auto q = std::make_unique<EventQueue>();
    const std::uint64_t epoch = q->debugEpoch();
    EXPECT_TRUE(detail::queueAlive(q.get(), epoch));
#ifndef NDEBUG
    // Epochs are process-unique, so a different queue — even one the
    // allocator later places at a destroyed queue's address — can
    // never satisfy a stale handle's probe (the ABA case fleet sweeps
    // hit when recycling same-sized per-server Simulations).
    auto q2 = std::make_unique<EventQueue>();
    EXPECT_NE(q2->debugEpoch(), epoch);
    EXPECT_FALSE(detail::queueAlive(q2.get(), epoch));
    EXPECT_FALSE(detail::queueAlive(q.get(), q2->debugEpoch()));
#endif
}

#ifndef NDEBUG
// Handles hold a raw EventQueue*; operating on one after the queue is
// gone is a teardown-order bug. Debug builds must trip the liveness
// assert instead of dereferencing freed memory.
TEST(EventQueueDeathTest, HandleUseAfterQueueDestroyedAsserts)
{
    auto q = std::make_unique<EventQueue>();
    auto h = q->scheduleAt(5, [] {});
    q.reset();
    EXPECT_DEATH(h.cancel(), "EventQueue was destroyed");
    EXPECT_DEATH((void)h.pending(), "EventQueue was destroyed");
}
#endif

TEST(EventQueue, CancelRescheduleKeepsMemoryBounded)
{
    // Regression: the old queue left every cancelled entry as a heap
    // tombstone until it surfaced, so a cancel/reschedule-heavy
    // workload (per-request hysteresis timers) grew without bound. With
    // eager compaction, internal entries stay within a small constant
    // of the live count.
    EventQueue q;
    EventHandle timer;
    std::size_t peakEntries = 0, peakPool = 0;
    for (int i = 0; i < 100000; ++i) {
        timer.cancel();
        timer = q.scheduleAfter(1000 + i % 7, [] {});
        peakEntries = std::max(peakEntries, q.internalEntries());
        peakPool = std::max(peakPool, q.poolCapacity());
    }
    EXPECT_EQ(q.pendingEvents(), 1u);
    EXPECT_LE(peakEntries, 256u);
    EXPECT_LE(peakPool, 256u);
    EXPECT_GT(q.compactions(), 0u);
    q.runAll();
    EXPECT_EQ(q.executedEvents(), 1u);
}

TEST(EventQueue, CrashStyleMassCancellationStorm)
{
    // A server crash cancels *everything at once* — every in-flight
    // completion, timer, and interrupt — then the restart schedules a
    // fresh population into the same time range. The queue must reap
    // the storm's tombstones from the near run and the heap alike and
    // fire only the survivors, in order.
    EventQueue q;
    const Tick step = EventQueue::kNearHorizon / 64;
    std::vector<EventHandle> doomed;
    int fired_old = 0;
    for (int i = 0; i < 4096; ++i)
        doomed.push_back(q.scheduleAfter(
            1 + (i % 64) * step +
                (i % 3 == 0 ? 4 * EventQueue::kNearHorizon : 0),
            [&] { ++fired_old; }));
    EXPECT_GT(q.wheelScheduled(), 0u);
    EXPECT_GT(q.heapScheduled(), 0u);
    for (EventHandle &h : doomed)
        h.cancel();
    EXPECT_EQ(q.pendingEvents(), 0u);

    // Refill the same time range; the storm's slots get recycled.
    std::vector<Tick> fired_new;
    for (int i = 0; i < 512; ++i)
        q.scheduleAfter(1 + (i % 64) * step,
                        [&] { fired_new.push_back(q.now()); });
    q.runAll();

    EXPECT_EQ(fired_old, 0);
    EXPECT_EQ(fired_new.size(), 512u);
    EXPECT_TRUE(std::is_sorted(fired_new.begin(), fired_new.end()));
    EXPECT_GT(q.compactions(), 0u);
    // The storm left no unbounded residue behind.
    EXPECT_EQ(q.pendingEvents(), 0u);
    EXPECT_LE(q.internalEntries(), 1u);

    // Stale handles survived slot recycling: generation mismatch
    // degrades every operation to a no-op.
    for (EventHandle &h : doomed) {
        EXPECT_FALSE(h.pending());
        h.cancel(); // must not touch the recycled occupants
    }
}

TEST(EventQueue, SeededChurnReplayWithCancelStorms)
{
    // Deterministic replay under the nastiest schedule: random
    // schedule/cancel churn across the near horizon, punctuated by
    // epoch-style mass-cancel storms that leave the run and the heap
    // full of tombstones while the queue is mid-advance. Two runs with
    // the same seed must fire the identical (time, id) sequence.
    auto run = [](std::uint64_t seed) {
        Rng rng(seed);
        EventQueue q;
        std::vector<std::pair<Tick, int>> fired;
        std::vector<EventHandle> handles;
        int id = 0;
        for (int round = 0; round < 40; ++round) {
            for (int i = 0; i < 200; ++i) {
                const Tick d = 1 + rng.uniformInt(0, 15) *
                        (EventQueue::kNearHorizon / 4);
                const int my = id++;
                handles.push_back(q.scheduleAfter(d, [&fired, &q, my] {
                    fired.emplace_back(q.now(), my);
                }));
            }
            if (round % 4 == 3) {
                // The storm: cancel everything scheduled so far.
                for (EventHandle &h : handles)
                    h.cancel();
                handles.clear();
            }
            q.runUntil(q.now() + 3 * sim::kUs);
        }
        q.runAll();
        return fired;
    };
    const auto a = run(23);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, run(23));
    EXPECT_NE(a, run(24));
}

TEST(EventQueue, DeterministicUnderRandomizedChurn)
{
    // Same seed => identical firing sequence, across a schedule/cancel
    // mix that exercises the near run, the heap, compaction, and slot
    // reuse.
    auto run = [](std::uint64_t seed) {
        Rng rng(seed);
        EventQueue q;
        std::vector<std::pair<Tick, int>> fired;
        std::vector<EventHandle> handles;
        int id = 0;
        for (int i = 0; i < 2000; ++i) {
            const Tick d = 1 + rng.uniformInt(0, 15) *
                    (EventQueue::kNearHorizon / 4);
            const int my = id++;
            handles.push_back(q.scheduleAfter(
                d, [&fired, &q, my] { fired.emplace_back(q.now(), my); }));
            if (i % 3 == 0 && !handles.empty())
                handles[static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<int>(
                        handles.size() - 1)))].cancel();
            if (i % 5 == 0)
                q.runUntil(q.now() + sim::kUs);
        }
        q.runAll();
        return fired;
    };
    EXPECT_EQ(run(17), run(17));
}

// ------------------------------------------------------ differential test

/** SplitMix64: per-event decisions are a function of the event id, so
 *  they do not depend on the order a queue fires events in. */
std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/**
 * A delay from the simulator's mix, plus the edges a queue could split
 * its containers at: zero, a few ticks, sub-microsecond, the ~1 µs
 * scale either side of 2^20 ticks, a few µs, and far (~2 ms, up to
 * 4 ms).
 */
Tick
mixedDelay(std::uint64_t r)
{
    constexpr Tick kNear = Tick(1) << 20;
    const std::uint64_t v = r >> 4;
    auto upTo = [v](Tick n) { return static_cast<Tick>(v % n); };
    switch (r & 15) {
      case 0:
      case 1:
        return 0;
      case 2:
      case 3:
        return 1 + upTo(4);
      case 4:
      case 5:
        return upTo(50 * kNs);
      case 6:
      case 7:
        return upTo(kNear);
      case 8:
        return kNear - 2 + upTo(5);
      case 9:
      case 10:
        return upTo(8 * kNear);
      case 11:
        return 2 * kMs - 2 * kUs + upTo(4 * kUs);
      case 12:
        return upTo(4 * kMs);
      default:
        return upTo(1000);
    }
}

/** The queue under test, behind the reference queue's interface. */
class QueueUnderTest
{
  public:
    std::function<void(int)> onFire;

    Tick now() const { return q_.now(); }
    std::size_t pending() const { return q_.pendingEvents(); }
    /** Ids are handed out in schedule order: 0, 1, 2, ... */
    void
    schedule(Tick when, int id)
    {
        handles_.push_back(q_.scheduleAt(when, [this, id] { onFire(id); }));
    }
    void cancel(int id) { handles_[static_cast<std::size_t>(id)].cancel(); }
    void runUntil(Tick t) { q_.runUntil(t); }
    void step() { q_.step(); }
    void runAll() { q_.runAll(); }
    const EventQueue &queue() const { return q_; }

  private:
    EventQueue q_;
    std::vector<EventHandle> handles_;
};

/**
 * Reference: one binary heap ordered by (when, seq), where seq is the
 * schedule order (the event id); cancelled events are skipped when
 * they surface.
 */
class ReferenceQueue
{
  public:
    std::function<void(int)> onFire;

    Tick now() const { return now_; }
    std::size_t pending() const { return live_; }
    void
    schedule(Tick when, int id)
    {
        heap_.push_back({when, id});
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
        pending_.push_back(true);
        ++live_;
    }
    void
    cancel(int id)
    {
        if (pending_[static_cast<std::size_t>(id)]) {
            pending_[static_cast<std::size_t>(id)] = false;
            --live_;
        }
    }
    void
    runUntil(Tick t)
    {
        while (reapTop() && heap_.front().first <= t)
            step();
        now_ = std::max(now_, t);
    }
    void
    step()
    {
        if (!reapTop())
            return;
        const auto [when, id] = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        heap_.pop_back();
        pending_[static_cast<std::size_t>(id)] = false;
        --live_;
        now_ = when;
        onFire(id);
    }
    void
    runAll()
    {
        while (reapTop())
            step();
    }

  private:
    /** Pop cancelled entries. @return true if a live one is on top. */
    bool
    reapTop()
    {
        while (!heap_.empty() &&
               !pending_[static_cast<std::size_t>(heap_.front().second)]) {
            std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
            heap_.pop_back();
        }
        return !heap_.empty();
    }

    Tick now_ = 0;
    std::size_t live_ = 0;
    std::vector<std::pair<Tick, int>> heap_;
    std::vector<bool> pending_;
};

/** What a seeded mix observes: every firing as (time, id), and
 *  (now, pending) after every top-level operation. */
struct MixTrace
{
    std::vector<std::pair<Tick, int>> fired;
    std::vector<std::pair<Tick, std::size_t>> after;
};

/**
 * Drive @p q through a seeded mix of schedules, cancels of live, fired
 * and already-cancelled events, cancel storms, single steps and
 * runUntil horizons from zero to milliseconds. Each firing event
 * schedules up to two children (mostly at now() + 0 or a few ticks)
 * and sometimes cancels an arbitrary earlier event.
 */
template <typename Queue>
MixTrace
driveMix(Queue &q, std::uint64_t seed)
{
    constexpr int kMaxEvents = 200000;
    MixTrace out;
    int nextId = 0;
    auto schedule = [&](Tick delay) { q.schedule(q.now() + delay, nextId++); };
    auto anyId = [&](std::uint64_t r) {
        return static_cast<int>(r % static_cast<std::uint64_t>(nextId));
    };
    q.onFire = [&](int id) {
        out.fired.emplace_back(q.now(), id);
        const std::uint64_t r = mix64(static_cast<std::uint64_t>(id) ^ seed);
        // 0, 0, 1 or 2 children: subcritical, so the population is
        // fed by the top-level schedules; the cap is a safety net.
        const int children =
            nextId < kMaxEvents ? std::max(0, static_cast<int>(r % 4) - 1)
                                : 0;
        for (int c = 0; c < children; ++c) {
            const std::uint64_t rc = mix64(r + static_cast<std::uint64_t>(c));
            // Bias in-callback schedules toward now() + 0 or a few ticks.
            schedule((rc >> 60) < 10 ? static_cast<Tick>(rc % 3)
                                     : mixedDelay(rc));
        }
        if ((r >> 8) % 4 == 0)
            q.cancel(anyId(mix64(r ^ 0xCA11)));
    };

    std::uint64_t state = seed;
    for (int op = 0; op < 4000; ++op) {
        const std::uint64_t r = mix64(state++);
        switch ((r >> 56) % 10) {
          case 0:
          case 1:
          case 2:
            schedule(mixedDelay(r));
            break;
          case 3: { // a same-tick batch, one straggler a tick later
            const int n = 1 + static_cast<int>((r >> 8) % 96);
            for (int i = 0; i < n; ++i)
                schedule(mixedDelay(r) + (i == n - 1 ? 1 : 0));
            break;
          }
          case 4:
            if (nextId > 0)
                q.cancel(anyId(r));
            break;
          case 5: // cancel storm over the most recent ids
            for (int id = std::max(0, nextId - static_cast<int>(r % 256));
                 id < nextId; ++id)
                q.cancel(id);
            break;
          case 6:
            q.step();
            break;
          default:
            q.runUntil(q.now() + mixedDelay(mix64(r)));
            break;
        }
        out.after.emplace_back(q.now(), q.pending());
    }
    q.runAll();
    out.after.emplace_back(q.now(), q.pending());
    return out;
}

TEST(EventQueue, MatchesReferenceHeapOnSeededMixes)
{
    std::uint64_t runScheduled = 0, heapScheduled = 0, compactions = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        QueueUnderTest real;
        ReferenceQueue ref;
        const MixTrace got = driveMix(real, seed);
        const MixTrace want = driveMix(ref, seed);
        ASSERT_GT(want.fired.size(), 1000u) << "seed " << seed;
        ASSERT_EQ(got.fired.size(), want.fired.size()) << "seed " << seed;
        for (std::size_t i = 0; i < want.fired.size(); ++i)
            ASSERT_EQ(got.fired[i], want.fired[i])
                << "seed " << seed << ", firing " << i;
        EXPECT_EQ(got.after, want.after) << "seed " << seed;
        EXPECT_EQ(real.queue().executedEvents(), want.fired.size());
        runScheduled += real.queue().wheelScheduled();
        heapScheduled += real.queue().heapScheduled();
        compactions += real.queue().compactions();
    }
    // The mixes reach both containers and the compaction path.
    EXPECT_GT(runScheduled, 0u);
    EXPECT_GT(heapScheduled, 0u);
    EXPECT_GT(compactions, 0u);
}

TEST(Simulation, NowAndAfter)
{
    Simulation s;
    Tick seen = -1;
    s.after(42, [&] { seen = s.now(); });
    s.runAll();
    EXPECT_EQ(seen, 42);
}

TEST(Simulation, DeterministicAcrossRuns)
{
    auto run = [](std::uint64_t seed) {
        Simulation s(seed);
        std::vector<double> xs;
        for (int i = 0; i < 16; ++i)
            xs.push_back(s.rng().uniform());
        return xs;
    };
    EXPECT_EQ(run(7), run(7));
    EXPECT_NE(run(7), run(8));
}

TEST(WaitList, DrainRunsParkedCallbacksInOrder)
{
    WaitList w;
    std::vector<int> ran;
    for (int i = 0; i < 3; ++i)
        w.push([&ran, i] { ran.push_back(i); });
    w.push(nullptr); // an empty callback is skipped
    w.drain();
    EXPECT_EQ(ran, (std::vector<int>{0, 1, 2}));
    EXPECT_TRUE(w.empty());
    w.drain(); // nothing left to run
    EXPECT_EQ(ran.size(), 3u);
}

TEST(WaitList, ParkedDuringDrainWaitsForNextDrain)
{
    // A callback that parks another (a waiter that finds the component
    // asleep again) must not run in the same drain.
    WaitList w;
    std::vector<int> ran;
    w.push([&] {
        ran.push_back(1);
        w.push([&] { ran.push_back(2); });
    });
    w.drain();
    EXPECT_EQ(ran, (std::vector<int>{1}));
    EXPECT_FALSE(w.empty());
    w.drain();
    EXPECT_EQ(ran, (std::vector<int>{1, 2}));
    EXPECT_TRUE(w.empty());
}

TEST(WaitList, NestedDrainRunsOnlyNewerCallbacks)
{
    // A callback that parks another and drains again runs the newer
    // one at once; the outer drain then finishes its own batch.
    WaitList w;
    std::vector<int> ran;
    w.push([&] {
        ran.push_back(1);
        w.push([&] { ran.push_back(3); });
        w.drain();
    });
    w.push([&] { ran.push_back(2); });
    w.drain();
    EXPECT_EQ(ran, (std::vector<int>{1, 3, 2}));
    EXPECT_TRUE(w.empty());
    // Both buffers are still usable after the nesting.
    w.push([&] { ran.push_back(4); });
    w.drain();
    EXPECT_EQ(ran, (std::vector<int>{1, 3, 2, 4}));
}

TEST(InplaceFunction, EmptyInvokeIsNoop)
{
    InplaceFunction<void()> unset;
    InplaceFunction<void(int), 16> null = nullptr;
    EXPECT_FALSE(unset);
    EXPECT_FALSE(null);
    unset();
    null(3);
    int calls = 0;
    InplaceFunction<void()> f = [&calls] { ++calls; };
    f = nullptr;
    EXPECT_FALSE(f);
    f();
    EXPECT_EQ(calls, 0);
}

TEST(InplaceFunction, MoveLeavesSourceEmpty)
{
    // The moved-from state is the behaviour under test, hence the
    // deliberate uses after a move.
    int calls = 0;
    InplaceFunction<void(), 16> f = [&calls] { ++calls; };
    InplaceFunction<void(), 16> g = std::move(f);
    EXPECT_FALSE(f); // NOLINT(bugprone-use-after-move)
    ASSERT_TRUE(g);
    g();
    InplaceFunction<void(), 16> h;
    h = std::move(g);
    EXPECT_FALSE(g); // NOLINT(bugprone-use-after-move)
    ASSERT_TRUE(h);
    h();
    EXPECT_EQ(calls, 2);
}

/** A capture that counts its destructions; a moved-from probe no
 *  longer counts, so each live probe must be destroyed exactly once. */
struct DestroyProbe
{
    explicit DestroyProbe(int *counter) : count(counter) {}
    DestroyProbe(DestroyProbe &&other) noexcept : count(other.count)
    {
        other.count = nullptr;
    }
    DestroyProbe &operator=(DestroyProbe &&) = delete;
    ~DestroyProbe()
    {
        if (count)
            ++*count;
    }
    int *count;
};

TEST(InplaceFunction, NonTrivialCaptureIsDestroyedExactlyOnce)
{
    using Fn = InplaceFunction<void()>;
    static_assert(!std::is_trivially_destructible_v<DestroyProbe>);
    int a = 0, b = 0, c = 0, d = 0;
    {
        Fn f = [p = DestroyProbe(&a)] {};
        Fn g = std::move(f); // relocation, not a second probe
        EXPECT_EQ(a, 0);
        g = nullptr;
        EXPECT_EQ(a, 1);
        Fn h = [p = DestroyProbe(&b)] {};
        h = [p = DestroyProbe(&c)] {}; // reassignment drops b's probe
        EXPECT_EQ(b, 1);
        Fn k = [p = DestroyProbe(&d)] {};
        k = std::move(h); // move-assignment drops d's, takes c's
        EXPECT_EQ(d, 1);
        EXPECT_EQ(c, 0);
    } // scope exit destroys c's probe, held by k
    EXPECT_EQ(a, 1);
    EXPECT_EQ(b, 1);
    EXPECT_EQ(c, 1);
    EXPECT_EQ(d, 1);
}

TEST(InplaceFunction, AcceptsMoveOnlyCaptures)
{
    using Fn = InplaceFunction<int(), 16>;
    static_assert(!std::is_copy_constructible_v<Fn>);
    static_assert(!std::is_copy_assignable_v<Fn>);
    Fn f = [p = std::make_unique<int>(7)] { return *p; };
    EXPECT_EQ(f(), 7);
    Fn g = std::move(f);
    EXPECT_EQ(g(), 7);
    // A parked callback that owns another callable.
    int got = 0;
    InplaceFunction<void()> outer = [inner = std::move(g), &got] {
        got = inner();
    };
    outer();
    EXPECT_EQ(got, 7);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(123);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(25.0);
    EXPECT_NEAR(sum / n, 25.0, 0.5);
}

TEST(Rng, LognormalWithMeanHitsMean)
{
    Rng rng(5);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.lognormalWithMean(20.0, 0.5);
    EXPECT_NEAR(sum / n, 20.0, 0.5);
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

} // namespace
} // namespace apc::sim
