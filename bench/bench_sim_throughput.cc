/**
 * @file
 * Simulation-core throughput baseline: events/sec through the event
 * queue and end-to-end fleet wall-clock.
 *
 * Seeds the perf trajectory for the hot path every package-C-state
 * transition rides on. Three queue workloads model the short-horizon
 * timer mix a fleet sweep generates (hysteresis re-arms, rx-usecs
 * coalescing, cap sampling), each measured against an embedded copy of
 * the pre-overhaul queue (`std::function` + `shared_ptr` per event,
 * lazy tombstones) so the speedup is tracked release over release, plus
 * one end-to-end fleet run.
 *
 * Output: human-readable table on stdout and a machine-readable summary
 * at APC_BENCH_JSON (default "BENCH_simcore.json") — consumed by CI to
 * catch events/sec regressions.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "analysis/table_printer.h"
#include "bench_common.h"
#include "fleet/fleet_sim.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace apc {
namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * The pre-overhaul event queue, kept verbatim as the benchmark
 * baseline: one std::function plus one shared_ptr control block per
 * event, cancelled entries reaped only when they surface at the top of
 * the heap.
 */
class LegacyEventQueue
{
  public:
    struct State
    {
        bool cancelled = false;
        bool fired = false;
    };
    using Handle = std::shared_ptr<State>;

    sim::Tick now() const { return now_; }

    Handle
    scheduleAt(sim::Tick when, std::function<void()> fn)
    {
        auto state = std::make_shared<State>();
        heap_.push(Entry{when, nextSeq_++, std::move(fn), state});
        return state;
    }

    Handle
    scheduleAfter(sim::Tick delay, std::function<void()> fn)
    {
        return scheduleAt(now_ + delay, std::move(fn));
    }

    bool
    step()
    {
        while (!heap_.empty() && heap_.top().state->cancelled)
            heap_.pop();
        if (heap_.empty())
            return false;
        Entry e = heap_.top();
        heap_.pop();
        now_ = e.when;
        e.state->fired = true;
        ++executed_;
        e.fn();
        return true;
    }

    std::uint64_t executedEvents() const { return executed_; }

  private:
    struct Entry
    {
        sim::Tick when;
        std::uint64_t seq;
        std::function<void()> fn;
        std::shared_ptr<State> state;
    };
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    sim::Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

/**
 * Workload 1 — timer churn: a fleet-scale population of
 * self-rescheduling timers with staggered microsecond horizons (the
 * hysteresis / cap-sampling / coalescing scale), the steady-state shape
 * of a multi-server sweep. Pure schedule+fire throughput. The callback
 * captures 24 bytes — representative of the simulator's component
 * callbacks (`this` plus a couple of scalars), and past
 * `std::function`'s 16-byte small-object buffer.
 */
template <typename Queue>
struct ChurnLane
{
    Queue *q;
    std::uint64_t *remaining;
    int lane;

    void
    operator()() const
    {
        if (*remaining == 0)
            return;
        --*remaining;
        q->scheduleAfter(500 * sim::kNs + lane * 37 * sim::kNs,
                         ChurnLane{q, remaining, lane});
    }
};

template <typename Queue>
std::uint64_t
runTimerChurn(Queue &q, std::uint64_t events)
{
    constexpr int kTimers = 1024;
    std::uint64_t remaining = events;
    for (int i = 0; i < kTimers; ++i)
        ChurnLane<Queue>{&q, &remaining, i}();
    while (q.step()) {
    }
    return q.executedEvents();
}

/**
 * Workload 2 — cancel/reschedule: every "request" re-arms a hysteresis
 * timer that is almost always cancelled before it fires (the rx-usecs /
 * per-request idle-timer pattern that used to leave one tombstone per
 * request in the heap).
 */
template <typename Queue, typename Handle>
struct CancelChurnState
{
    Queue *q;
    Handle timer{};
    std::uint64_t remaining;
    std::uint64_t ops = 0;
};

template <typename Queue, typename Handle>
struct CancelChurnRequest
{
    CancelChurnState<Queue, Handle> *s;

    void
    operator()() const
    {
        if (s->remaining == 0)
            return;
        --s->remaining;
        ++s->ops;
        if constexpr (std::is_same_v<Handle, sim::EventHandle>) {
            s->timer.cancel();
        } else {
            if (s->timer)
                s->timer->cancelled = true;
        }
        s->timer = s->q->scheduleAfter(50 * sim::kUs, [] {});
        s->q->scheduleAfter(300 * sim::kNs, CancelChurnRequest{s});
    }
};

template <typename Queue, typename Handle>
std::uint64_t
runCancelChurn(Queue &q, std::uint64_t requests)
{
    CancelChurnState<Queue, Handle> s{&q, {}, requests};
    CancelChurnRequest<Queue, Handle>{&s}();
    while (q.step()) {
    }
    return s.ops + q.executedEvents();
}

/**
 * Workload 3 — mixed horizons: sub-microsecond timers interleaved with
 * far-future events, so every pop compares the near run's head with
 * the heap's.
 */
template <typename Queue>
struct MixedLane
{
    Queue *q;
    std::uint64_t *remaining;
    int lane;

    void
    operator()() const
    {
        if (*remaining == 0)
            return;
        --*remaining;
        const sim::Tick d = lane % 4 == 0
            ? 5 * sim::kMs + lane * sim::kUs // far: the heap
            : 700 * sim::kNs + lane * 31 * sim::kNs;
        q->scheduleAfter(d,
                         MixedLane{q, remaining, (lane + 1) % 16});
    }
};

template <typename Queue>
std::uint64_t
runMixedHorizon(Queue &q, std::uint64_t events)
{
    std::uint64_t remaining = events;
    for (int lane = 0; lane < 16; ++lane)
        MixedLane<Queue>{&q, &remaining, lane}();
    while (q.step()) {
    }
    return q.executedEvents();
}

struct QueuePoint
{
    std::string workload;
    double pooledEps = 0;
    double legacyEps = 0;
    std::uint64_t events = 0;
    double speedup() const { return pooledEps / legacyEps; }
};

template <typename RunPooled, typename RunLegacy>
QueuePoint
measure(const char *name, std::uint64_t events, RunPooled pooled,
        RunLegacy legacy)
{
    QueuePoint p;
    p.workload = name;
    p.events = events;
    // Best-of-3: each rep runs on a fresh queue; taking the max damps
    // noisy-neighbor / frequency-scaling jitter on shared CI runners
    // (the first pooled rep also doubles as warmup).
    for (int rep = 0; rep < 3; ++rep) {
        {
            sim::EventQueue q;
            const auto t0 = Clock::now();
            const std::uint64_t n = pooled(q, events);
            p.pooledEps = std::max(
                p.pooledEps, static_cast<double>(n) / secondsSince(t0));
        }
        {
            LegacyEventQueue q;
            const auto t0 = Clock::now();
            const std::uint64_t n = legacy(q, events);
            p.legacyEps = std::max(
                p.legacyEps, static_cast<double>(n) / secondsSince(t0));
        }
    }
    return p;
}

double
speedupGeomean(const std::vector<QueuePoint> &points)
{
    double logSum = 0;
    for (const QueuePoint &p : points)
        logSum += std::log(p.speedup());
    return std::exp(logSum / static_cast<double>(points.size()));
}

struct FleetPoint
{
    double wallSec = 0;
    double simSec = 0;
    double qps = 0;
    double p99Us = 0;
};

FleetPoint
runFleet()
{
    fleet::FleetConfig fc = bench::fleetLoadConfig(
        8, fleet::DispatchKind::LeastOutstanding, 0.3,
        workload::WorkloadConfig::memcachedEtc(0));
    FleetPoint f;
    f.simSec = sim::toSeconds(fc.duration);
    fleet::FleetSim sim(fc);
    const auto t0 = Clock::now();
    const fleet::FleetReport rep = sim.run();
    f.wallSec = secondsSince(t0);
    f.qps = rep.achievedQps;
    f.p99Us = rep.p99LatencyUs;
    return f;
}

void
writeJson(const char *path, const std::vector<QueuePoint> &points,
          const FleetPoint &fleet, std::uint64_t events)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"sim_throughput\",\n");
    std::fprintf(f, "  \"schema_version\": %d,\n",
                 bench::kBenchJsonSchemaVersion);
    std::fprintf(f, "  \"events_per_workload\": %llu,\n",
                 static_cast<unsigned long long>(events));
    std::fprintf(f, "  \"queue\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const QueuePoint &p = points[i];
        std::fprintf(f,
                     "    {\"workload\": \"%s\", "
                     "\"events_per_sec\": %.0f, "
                     "\"legacy_events_per_sec\": %.0f, "
                     "\"speedup\": %.2f}%s\n",
                     p.workload.c_str(), p.pooledEps, p.legacyEps,
                     p.speedup(), i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"speedup_geomean\": %.2f,\n",
                 speedupGeomean(points));
    std::fprintf(f,
                 "  \"fleet\": {\"servers\": 8, \"wall_sec\": %.3f, "
                 "\"sim_sec\": %.3f, \"sim_per_wall\": %.2f, "
                 "\"qps\": %.0f, \"p99_us\": %.1f}\n",
                 fleet.wallSec, fleet.simSec,
                 fleet.simSec / fleet.wallSec, fleet.qps, fleet.p99Us);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nWrote %s\n", path);
}

} // namespace
} // namespace apc

int
main()
{
    using namespace apc;
    using analysis::TablePrinter;

    bench::banner("simulation-core throughput");

    // Scale event count off the shared duration knob so the CI smoke
    // run (APC_BENCH_DURATION_MS=40) finishes in well under a second.
    const std::uint64_t events = static_cast<std::uint64_t>(
        bench::benchDuration(300 * sim::kMs) / sim::kMs) * 10000;

    std::vector<QueuePoint> points;
    points.push_back(measure(
        "timer_churn", events,
        [](sim::EventQueue &q, std::uint64_t n) {
            return runTimerChurn(q, n);
        },
        [](LegacyEventQueue &q, std::uint64_t n) {
            return runTimerChurn(q, n);
        }));
    points.push_back(measure(
        "cancel_reschedule", events,
        [](sim::EventQueue &q, std::uint64_t n) {
            return runCancelChurn<sim::EventQueue, sim::EventHandle>(q,
                                                                     n);
        },
        [](LegacyEventQueue &q, std::uint64_t n) {
            return runCancelChurn<LegacyEventQueue,
                                  LegacyEventQueue::Handle>(q, n);
        }));
    points.push_back(measure(
        "mixed_horizon", events,
        [](sim::EventQueue &q, std::uint64_t n) {
            return runMixedHorizon(q, n);
        },
        [](LegacyEventQueue &q, std::uint64_t n) {
            return runMixedHorizon(q, n);
        }));

    TablePrinter t("Event-queue throughput, pooled vs legacy");
    t.header({"Workload", "Pooled Mev/s", "Legacy Mev/s", "Speedup"});
    for (const QueuePoint &p : points)
        t.row({p.workload, TablePrinter::num(p.pooledEps / 1e6, 2),
               TablePrinter::num(p.legacyEps / 1e6, 2),
               TablePrinter::num(p.speedup(), 2)});
    t.print();
    std::printf("(events/sec in millions; legacy = pre-overhaul "
                "std::function/shared_ptr heap queue)\n"
                "Aggregate speedup (geomean): %.2fx\n",
                speedupGeomean(points));

    const FleetPoint fleet = runFleet();
    std::printf("\nEnd-to-end fleet (8 servers, 30%% load): %.3f s "
                "wall for %.3f s simulated (%.1fx real time), "
                "qps %.0f, p99 %.0f us\n",
                fleet.wallSec, fleet.simSec, fleet.simSec / fleet.wallSec,
                fleet.qps, fleet.p99Us);

    const char *json_path = std::getenv("APC_BENCH_JSON");
    writeJson(json_path && *json_path ? json_path
                                      : "BENCH_simcore.json",
              points, fleet, events);
    return 0;
}
