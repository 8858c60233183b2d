/**
 * @file
 * Unit tests for the fleet simulation subsystem (fleet/).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "fleet/dispatch.h"
#include "fleet/fleet_sim.h"
#include "fleet/flight_table.h"
#include "fleet/thread_pool.h"
#include "fleet/traffic.h"

namespace apc::fleet {
namespace {

using sim::kMs;
using sim::kUs;

// ---------------------------------------------------------------- dispatch

TEST(Dispatch, RoundRobinCycles)
{
    Dispatcher rr(DispatchKind::RoundRobin, 4, 0);
    rr.refresh({5, 0, 9, 2}); // load is irrelevant to round-robin
    EXPECT_EQ(rr.pick(), 0u);
    EXPECT_EQ(rr.pick(), 1u);
    EXPECT_EQ(rr.pick(), 2u);
    EXPECT_EQ(rr.pick(), 3u);
    EXPECT_EQ(rr.pick(), 0u);
}

TEST(Dispatch, RoundRobinSkipsExcluded)
{
    Dispatcher rr(DispatchKind::RoundRobin, 3, 0);
    rr.exclude(0);
    EXPECT_EQ(rr.pick(), 1u); // cursor moved past the excluded 0
    rr.clearExclusions();
    rr.exclude(1);
    rr.exclude(2);
    EXPECT_EQ(rr.pick(), 0u);
    rr.clearExclusions();
}

TEST(Dispatch, LeastOutstandingPicksShortestQueue)
{
    Dispatcher lo(DispatchKind::LeastOutstanding, 3, 0);
    lo.refresh({3, 1, 2});
    EXPECT_EQ(lo.pick(), 1u);
    // Ties break towards the lowest index.
    lo.refresh({2, 1, 1});
    EXPECT_EQ(lo.pick(), 1u);
    lo.refresh({1, 1, 1});
    lo.exclude(0);
    EXPECT_EQ(lo.pick(), 1u);
    lo.clearExclusions();
}

TEST(Dispatch, LeastOutstandingSeesOwnDispatches)
{
    Dispatcher lo(DispatchKind::LeastOutstanding, 3, 0);
    lo.refresh({1, 0, 2});
    EXPECT_EQ(lo.pick(), 1u);
    lo.onDispatch(1); // in-epoch dispatch: 1 now ties with 0 at 1
    EXPECT_EQ(lo.pick(), 0u); // leftmost of the tied 1s
    lo.onDispatch(0); // counts {2, 1, 2}
    EXPECT_EQ(lo.pick(), 1u);
}

TEST(Dispatch, ExclusionParksAndRestoresTheCount)
{
    Dispatcher lo(DispatchKind::LeastOutstanding, 3, 0);
    lo.refresh({0, 5, 5});
    EXPECT_EQ(lo.pick(), 0u);
    lo.onDispatch(0);
    lo.exclude(0);
    // Dispatches while excluded still land on the saved count.
    lo.onDispatch(0);
    EXPECT_EQ(lo.pick(), 1u); // 0 is hidden
    lo.clearExclusions();
    lo.refresh({0, 0, 0});
    EXPECT_EQ(lo.pick(), 0u); // restored and usable again
}

TEST(Dispatch, PackingFillsInOrderThenSpills)
{
    Dispatcher pk(DispatchKind::PowerAwarePacking, 3, 2);
    pk.refresh({0, 0, 0});
    EXPECT_EQ(pk.pick(), 0u);
    pk.refresh({1, 0, 0});
    EXPECT_EQ(pk.pick(), 0u);
    pk.refresh({2, 0, 0});
    EXPECT_EQ(pk.pick(), 1u); // server 0 at budget
    pk.refresh({2, 2, 0});
    EXPECT_EQ(pk.pick(), 2u);
    // Everyone at budget: joins the shortest queue instead.
    pk.refresh({4, 2, 3});
    EXPECT_EQ(pk.pick(), 1u);
}

/** The dispatcher's protocol over plain arrays: per-server counts,
 *  removal flags and an exclusion list, scanned left to right. */
struct LinearDispatcher
{
    DispatchKind kind;
    std::uint32_t budget;
    std::vector<std::uint32_t> count;
    std::vector<bool> removed;
    std::vector<std::size_t> excluded;
    std::size_t next = 0;

    bool
    pickable(std::size_t i) const
    {
        return !removed[i] && std::find(excluded.begin(), excluded.end(),
                                        i) == excluded.end();
    }

    std::size_t
    shortestQueue() const
    {
        std::size_t best = Dispatcher::kNone;
        for (std::size_t i = 0; i < count.size(); ++i)
            if (pickable(i) &&
                (best == Dispatcher::kNone || count[i] < count[best]))
                best = i;
        return best;
    }

    std::size_t
    pick()
    {
        switch (kind) {
          case DispatchKind::RoundRobin:
            for (std::size_t tries = 0; tries < count.size(); ++tries) {
                const std::size_t i = next;
                next = (next + 1) % count.size();
                if (pickable(i))
                    return i;
            }
            return Dispatcher::kNone;
          case DispatchKind::PowerAwarePacking:
            for (std::size_t i = 0; i < count.size(); ++i)
                if (pickable(i) && count[i] < budget)
                    return i;
            return shortestQueue();
          case DispatchKind::LeastOutstanding:
            break;
        }
        return shortestQueue();
    }

    void
    reinsert(std::size_t srv, std::uint32_t outstanding)
    {
        if (removed[srv]) {
            removed[srv] = false;
            count[srv] = outstanding;
        }
    }
};

TEST(Dispatch, MatchesLinearReferenceUnderChurn)
{
    // Seeded protocol mixes: between requests, refreshes, removals and
    // reinsertions; per request, picks with in-epoch dispatches,
    // fanout exclusions (a dispatch may land before or after the
    // exclusion), failover-style exclusions of arbitrary servers, and
    // removals while servers are excluded.
    std::mt19937_64 gen(2024);
    const auto below = [&gen](std::size_t n) {
        return static_cast<std::size_t>(gen() % n);
    };
    std::size_t picks = 0, nones = 0;
    for (const DispatchKind kind :
         {DispatchKind::RoundRobin, DispatchKind::LeastOutstanding,
          DispatchKind::PowerAwarePacking}) {
        for (const std::size_t n : {1ul, 2ul, 3ul, 7ul, 16ul, 33ul}) {
            const auto budget = static_cast<std::uint32_t>(1 + below(4));
            Dispatcher d(kind, n, budget);
            LinearDispatcher ref{kind, budget,
                                 std::vector<std::uint32_t>(n, 0),
                                 std::vector<bool>(n, false), {}, 0};
            for (int req = 0; req < 400; ++req) {
                const std::size_t op = below(8);
                if (op == 0) {
                    std::vector<std::uint32_t> v(n);
                    for (auto &x : v)
                        x = static_cast<std::uint32_t>(below(6));
                    d.refresh(v);
                    ref.count = v;
                } else if (op == 1) {
                    const std::size_t s = below(n);
                    d.remove(s);
                    ref.removed[s] = true;
                } else if (op == 2) {
                    const std::size_t s = below(n);
                    const auto o = static_cast<std::uint32_t>(below(6));
                    d.reinsert(s, o);
                    ref.reinsert(s, o);
                }
                if (below(4) == 0)
                    // Failover: hide the servers already tried.
                    for (std::size_t k = below(n + 1); k > 0; --k) {
                        const std::size_t s = below(n);
                        if (std::find(ref.excluded.begin(),
                                      ref.excluded.end(),
                                      s) != ref.excluded.end())
                            continue;
                        d.exclude(s);
                        ref.excluded.push_back(s);
                    }
                const std::size_t fanout = 1 + below(n + 1);
                for (std::size_t k = 0; k < fanout; ++k) {
                    const std::size_t got = d.pick();
                    ASSERT_EQ(got, ref.pick())
                        << dispatchName(kind) << " n=" << n
                        << " req=" << req;
                    ++(got == Dispatcher::kNone ? nones : picks);
                    if (got == Dispatcher::kNone)
                        break;
                    const bool dispatch_first = below(2) == 0;
                    if (dispatch_first) {
                        d.onDispatch(got);
                        ++ref.count[got];
                    }
                    if (fanout > 1) {
                        d.exclude(got);
                        ref.excluded.push_back(got);
                    }
                    if (!dispatch_first) {
                        d.onDispatch(got);
                        ++ref.count[got];
                    }
                    if (below(16) == 0) {
                        const std::size_t s = below(n);
                        d.remove(s);
                        ref.removed[s] = true;
                    }
                }
                d.clearExclusions();
                ref.excluded.clear();
            }
        }
    }
    // Both outcomes were exercised.
    EXPECT_GT(picks, 10000u);
    EXPECT_GT(nones, 100u);
}

// ---------------------------------------------------------------- MinIndex

TEST(MinIndexTest, ArgminAndFirstUnderMatchLinearScan)
{
    // Property check against the reference scans the old dispatchers
    // used, under random churn.
    std::mt19937_64 gen(1234);
    for (std::size_t n : {1ul, 2ul, 3ul, 17ul, 64ul, 100ul}) {
        std::vector<std::uint32_t> v(n);
        for (auto &x : v)
            x = static_cast<std::uint32_t>(gen() % 7);
        MinIndex idx;
        idx.assign(v);
        for (int step = 0; step < 300; ++step) {
            // Reference: leftmost min and leftmost under bound.
            std::size_t best = 0;
            for (std::size_t i = 1; i < n; ++i)
                if (v[i] < v[best])
                    best = i;
            ASSERT_EQ(idx.argmin(), best);
            const auto bound = static_cast<std::uint32_t>(gen() % 8);
            std::size_t first = MinIndex::npos;
            for (std::size_t i = 0; i < n; ++i)
                if (v[i] < bound) {
                    first = i;
                    break;
                }
            ASSERT_EQ(idx.firstUnder(bound), first);
            // Churn one slot.
            const std::size_t i = gen() % n;
            const auto nv = static_cast<std::uint32_t>(gen() % 7);
            v[i] = nv;
            idx.set(i, nv);
        }
    }
}

// ----------------------------------------------------------------- traffic

TEST(Traffic, DiurnalProfileInterpolatesAndWraps)
{
    const auto p = DiurnalProfile::dayNight(24 * kMs, 0.5, 1.5);
    EXPECT_NEAR(p.multiplierAt(0), 0.5, 1e-9);
    EXPECT_NEAR(p.multiplierAt(12 * kMs), 1.5, 1e-9);
    EXPECT_NEAR(p.multiplierAt(6 * kMs), 1.0, 1e-6);
    // Wraps: one full period later looks the same.
    EXPECT_NEAR(p.multiplierAt(24 * kMs + 6 * kMs),
                p.multiplierAt(6 * kMs), 1e-6);
    const DiurnalProfile flat;
    EXPECT_DOUBLE_EQ(flat.multiplierAt(123 * kMs), 1.0);
}

TEST(Traffic, EpochArrivalsMatchConfiguredRate)
{
    TrafficConfig tc;
    tc.arrivalKind = workload::ArrivalKind::Poisson;
    tc.qps = 50000.0;
    TrafficSource src(tc, 7);
    std::uint64_t n = 0;
    const sim::Tick epoch = 1 * kMs;
    std::vector<TrafficEvent> evs;
    for (sim::Tick t = 0; t < 2 * sim::kSec; t += epoch) {
        src.epoch(t, t + epoch, evs);
        n += evs.size();
    }
    EXPECT_NEAR(static_cast<double>(n) / 2.0, 50000.0, 1500.0);
}

TEST(Traffic, DiurnalModulatesRate)
{
    TrafficConfig tc;
    tc.qps = 20000.0;
    tc.diurnal = DiurnalProfile::dayNight(200 * kMs, 0.4, 1.6);
    TrafficSource src(tc, 11);
    // Count arrivals in the trough vs the peak quarter of one period.
    std::uint64_t trough = 0, peak = 0;
    std::vector<TrafficEvent> evs;
    for (sim::Tick t = 0; t < 200 * kMs; t += kMs) {
        src.epoch(t, t + kMs, evs);
        if (t < 50 * kMs)
            trough += evs.size();
        else if (t >= 75 * kMs && t < 125 * kMs)
            peak += evs.size();
    }
    EXPECT_GT(static_cast<double>(peak),
              1.5 * static_cast<double>(trough));
}

TEST(Traffic, CdfServiceDemandsAndFanoutFlags)
{
    TrafficConfig tc;
    tc.qps = 30000.0;
    tc.serviceCdf = workload::CdfTable({{0, 0}, {20, 1}}); // µs, mean 10
    tc.fanout = {0.5, 4};
    TrafficSource src(tc, 13);
    std::uint64_t fanned = 0, total = 0;
    double service_sum = 0;
    std::vector<TrafficEvent> evs;
    for (sim::Tick t = 0; t < 500 * kMs; t += kMs) {
        src.epoch(t, t + kMs, evs);
        for (const auto &ev : evs) {
            ++total;
            service_sum += sim::toMicros(ev.service);
            EXPECT_GE(ev.service, 0);
            EXPECT_LE(ev.service, 20 * kUs);
            if (ev.fanout > 1) {
                EXPECT_EQ(ev.fanout, 4);
                ++fanned;
            }
        }
    }
    ASSERT_GT(total, 0u);
    EXPECT_NEAR(service_sum / static_cast<double>(total), 10.0, 0.5);
    EXPECT_NEAR(static_cast<double>(fanned) / static_cast<double>(total),
                0.5, 0.02);
}

// ------------------------------------------------------------- thread pool

TEST(ThreadPoolTest, InlineAndThreadedBothCoverAllIndices)
{
    for (unsigned threads : {1u, 4u}) {
        ThreadPool pool(threads);
        std::vector<int> hits(257, 0);
        for (int round = 0; round < 3; ++round)
            pool.parallelFor(hits.size(), [&](std::size_t i) {
                ++hits[i]; // distinct index => no race
            });
        for (int h : hits)
            EXPECT_EQ(h, 3);
    }
}

// ------------------------------------------------------------ flight table

/** A record whose value is a pure function of its id. */
struct TaggedRecord
{
    std::uint64_t tag = 0;
};

std::uint64_t
tagOf(std::uint64_t id)
{
    return id * 0x9E3779B97F4A7C15ULL + 1;
}

TEST(FlightTable, MatchesOrderedMapOnSeededMixes)
{
    for (std::uint32_t seed = 1; seed <= 4; ++seed) {
        std::mt19937_64 rng(seed);
        // A four-entry ring: the window outgrows it many times over.
        FlightTable<TaggedRecord> table(4);
        std::map<std::uint64_t, std::uint64_t> ref;
        std::vector<std::uint64_t> erased;
        // A long-lived straggler pins the window's base for the first
        // two thirds of the mix, so the ring must grow to cover every
        // id created meanwhile; once it goes, the base jumps and the
        // ids wrap around the grown ring.
        const std::uint64_t straggler = 3;
        constexpr int kSteps = 6000;
        const auto lookupMatches = [&](std::uint64_t id) {
            const TaggedRecord *got = table.find(id);
            const auto want = ref.find(id);
            if (want == ref.end())
                return got == nullptr;
            return got != nullptr && got->tag == want->second;
        };
        for (int step = 0; step < kSteps; ++step) {
            const bool freeStraggler =
                step == 2 * kSteps / 3 && ref.count(straggler);
            const double pEmplace = ref.size() < 64 ? 0.8 : 0.45;
            if (freeStraggler) {
                table.erase(straggler);
                ref.erase(straggler);
                erased.push_back(straggler);
            } else if (ref.size() <= 1 ||
                       std::uniform_real_distribution<>(0, 1)(rng) <
                           pEmplace) {
                const std::uint64_t id = table.endId();
                table.emplace().tag = tagOf(id);
                ref.emplace(id, tagOf(id));
            } else {
                // Mostly near the oldest flights, sometimes anywhere:
                // erases arrive out of id order.
                auto it = ref.begin();
                const std::size_t span =
                    std::uniform_int_distribution<>(0, 3)(rng) == 0
                    ? ref.size()
                    : std::min<std::size_t>(ref.size(), 8);
                std::advance(it, std::uniform_int_distribution<
                                     std::size_t>(0, span - 1)(rng));
                if (it->first == straggler && step < 2 * kSteps / 3)
                    ++it;
                if (it == ref.end())
                    continue;
                table.erase(it->first);
                erased.push_back(it->first);
                ref.erase(it);
            }
            ASSERT_EQ(table.size(), ref.size()) << "step " << step;
            ASSERT_EQ(table.empty(), ref.empty());
            // Live, erased, never-created and future ids.
            if (!ref.empty()) {
                ASSERT_TRUE(lookupMatches(ref.rbegin()->first));
            }
            if (!erased.empty()) {
                ASSERT_TRUE(lookupMatches(
                    erased[std::uniform_int_distribution<std::size_t>(
                        0, erased.size() - 1)(rng)]));
            }
            ASSERT_TRUE(lookupMatches(table.endId()));
            ASSERT_TRUE(lookupMatches(table.endId() + 1 + (rng() % 64)));
            ASSERT_TRUE(lookupMatches(~std::uint64_t{0}));
            std::vector<std::pair<std::uint64_t, std::uint64_t>> walked;
            table.forEach([&walked](std::uint64_t id, TaggedRecord &r) {
                walked.emplace_back(id, r.tag);
            });
            ASSERT_EQ(walked,
                      (std::vector<std::pair<std::uint64_t, std::uint64_t>>(
                          ref.begin(), ref.end())))
                << "step " << step;
        }
        EXPECT_FALSE(ref.count(straggler));
        EXPECT_GT(table.endId(), 2000u);
    }
}

/** One armed timeout, as the fleet queues it. */
struct Deadline
{
    sim::Tick at = 0;
    std::uint64_t id = 0;
    int attempt = 0;
};

auto
deadlineKey(const Deadline &d)
{
    return std::tie(d.at, d.id, d.attempt);
}

/** The sort-scan the FIFO replaced: take every due entry out of
 *  @p queue, in any queueing order, and sort them by key. */
std::vector<Deadline>
sortScanDue(std::vector<Deadline> &queue, sim::Tick t1)
{
    std::vector<Deadline> due;
    std::size_t kept = 0;
    for (const Deadline &e : queue) {
        if (e.at <= t1)
            due.push_back(e);
        else
            queue[kept++] = e;
    }
    queue.resize(kept);
    std::sort(due.begin(), due.end(),
              [](const Deadline &a, const Deadline &b) {
                  return deadlineKey(a) < deadlineKey(b);
              });
    return due;
}

TEST(TimeoutFifo, DueBatchesMatchTheSortScan)
{
    constexpr sim::Tick kTimeout = 5 * kUs;
    constexpr sim::Tick kEpoch = 2 * kUs;
    for (std::uint32_t seed = 1; seed <= 6; ++seed) {
        std::mt19937_64 rng(seed);
        sim::RingFifo<Deadline> fifo;
        std::vector<Deadline> ref, due;
        sim::Tick sent = 0;
        std::size_t ties = 0, fired = 0;
        for (sim::Tick t1 = kEpoch; t1 <= 400 * kEpoch; t1 += kEpoch) {
            // Sends in time order on a coarse grid, so many share a
            // deadline; ids are arbitrary, as at an epoch edge.
            const int sends = std::uniform_int_distribution<>(0, 40)(rng);
            for (int k = 0; k < sends; ++k) {
                sent = std::min(t1, sent + static_cast<sim::Tick>(
                                               rng() % 3) * (kUs / 2));
                const Deadline d{sent + kTimeout, rng() % 50,
                                 static_cast<int>(rng() % 3)};
                if (!fifo.empty() && fifo.back().at == d.at)
                    ++ties;
                fifo.push(d);
                ref.push_back(d);
            }
            takeDue(fifo, t1, deadlineKey, due);
            const std::vector<Deadline> want = sortScanDue(ref, t1);
            ASSERT_EQ(due.size(), want.size()) << "t1 " << t1;
            for (std::size_t i = 0; i < want.size(); ++i)
                ASSERT_EQ(deadlineKey(due[i]), deadlineKey(want[i]))
                    << "t1 " << t1 << ", entry " << i;
            ASSERT_EQ(fifo.size(), ref.size());
            fired += due.size();
        }
        EXPECT_GT(ties, 1000u);
        EXPECT_GT(fired, 3000u);
    }
}

// --------------------------------------------------------------- fleet sim

FleetConfig
smallFleet(DispatchKind kind, double util, std::uint64_t seed = 42)
{
    FleetConfig fc;
    fc.numServers = 4;
    fc.policy = soc::PackagePolicy::Cpc1a;
    fc.workload = workload::WorkloadConfig::mysqlOltp(0);
    fc.dispatch = kind;
    fc.traffic.arrivalKind = workload::ArrivalKind::Poisson;
    fc.traffic.qps = fc.workload.qpsForUtilization(
        util, static_cast<int>(fc.numServers) * 10);
    fc.sloUs = 10000.0;
    fc.warmup = 20 * kMs;
    fc.duration = 200 * kMs;
    fc.seed = seed;
    return fc;
}

TEST(Fleet, RequestConservation)
{
    auto fc = smallFleet(DispatchKind::LeastOutstanding, 0.2);
    FleetSim fleet(fc);
    const auto rep = fleet.run();

    ASSERT_GT(rep.dispatched, 100u);
    // Every routed replica is accounted for: accepted by some server,
    // and either completed or still in flight at the drain deadline.
    EXPECT_EQ(rep.replicasDispatched, rep.serversAccepted);
    EXPECT_EQ(rep.replicasDispatched,
              rep.serversCompleted + rep.serversOutstanding);
    // The drain window is generous: everything finishes.
    EXPECT_EQ(rep.inFlightAtEnd, 0u);
    EXPECT_EQ(rep.dispatched, rep.completed);
}

TEST(Fleet, NonPositiveEpochRejectedAtConstruction)
{
    // t + epoch would never advance: run() used to spin forever.
    auto fc = smallFleet(DispatchKind::LeastOutstanding, 0.2);
    fc.epoch = 0;
    EXPECT_THROW({ FleetSim fleet(fc); }, std::invalid_argument);
    fc.epoch = -1;
    EXPECT_THROW({ FleetSim fleet(fc); }, std::invalid_argument);
}

TEST(Fleet, EmptyFleetRejectedAtConstruction)
{
    auto fc = smallFleet(DispatchKind::LeastOutstanding, 0.2);
    fc.numServers = 0;
    EXPECT_THROW({ FleetSim fleet(fc); }, std::invalid_argument);
}

/** The invalid_argument message constructing @p fc throws, or "". */
std::string
rejection(const FleetConfig &fc)
{
    try {
        FleetSim fleet(fc);
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

TEST(Fleet, EpochLongerThanTheRunRejectedAtConstruction)
{
    auto fc = smallFleet(DispatchKind::LeastOutstanding, 0.2);
    fc.epoch = fc.warmup + fc.duration + 1;
    EXPECT_NE(rejection(fc).find("epoch must not exceed warmup + duration"),
              std::string::npos);
    fc.epoch = fc.warmup + fc.duration; // one epoch spans the run
    EXPECT_EQ(rejection(fc), "");
}

TEST(Fleet, TracingWithoutRingRoomRejectedAtConstruction)
{
    // TraceWriter would clamp a zero-record ring to one record; the
    // fleet refuses the config instead.
    auto fc = smallFleet(DispatchKind::LeastOutstanding, 0.2);
    fc.trace.enabled = true;
    fc.trace.ringCapacity = 0;
    EXPECT_NE(rejection(fc).find("trace.ringCapacity must be > 0"),
              std::string::npos);
    fc.trace.enabled = false; // the capacity is unused
    EXPECT_EQ(rejection(fc), "");
}

/** smallFleet with client recovery on (its defaults are valid). */
FleetConfig
recoveringFleet()
{
    auto fc = smallFleet(DispatchKind::LeastOutstanding, 0.2);
    fc.recovery.enabled = true;
    EXPECT_EQ(rejection(fc), "");
    return fc;
}

TEST(Fleet, NonPositiveRequestTimeoutRejectedAtConstruction)
{
    // Every attempt's deadline would fall at or before its send.
    auto fc = recoveringFleet();
    fc.recovery.requestTimeout = 0;
    EXPECT_EQ(rejection(fc),
              "FleetConfig: recovery.requestTimeout must be > 0");
    fc.recovery.requestTimeout = -1;
    EXPECT_NE(rejection(fc), "");
    fc.recovery.enabled = false; // recovery off: the value is unused
    EXPECT_EQ(rejection(fc), "");
}

TEST(Fleet, ZeroMaxAttemptsRejectedAtConstruction)
{
    auto fc = recoveringFleet();
    fc.recovery.maxAttempts = 0;
    EXPECT_EQ(rejection(fc),
              "FleetConfig: recovery.maxAttempts must be >= 1");
    fc.recovery.maxAttempts = 1; // no failover, but a valid client
    EXPECT_EQ(rejection(fc), "");
}

TEST(Fleet, NegativeBackoffBaseRejectedAtConstruction)
{
    auto fc = recoveringFleet();
    fc.recovery.backoffBase = -1;
    EXPECT_EQ(rejection(fc),
              "FleetConfig: recovery.backoffBase must be >= 0");
    fc.recovery.backoffBase = 0; // immediate retries are valid
    EXPECT_EQ(rejection(fc), "");
}

TEST(Fleet, BackoffCapBelowBaseRejectedAtConstruction)
{
    auto fc = recoveringFleet();
    fc.recovery.backoffCap = fc.recovery.backoffBase - 1;
    EXPECT_EQ(rejection(fc),
              "FleetConfig: recovery.backoffCap must be >= backoffBase");
    fc.recovery.backoffCap = fc.recovery.backoffBase;
    EXPECT_EQ(rejection(fc), "");
}

TEST(Fleet, JitterOutsideUnitIntervalRejectedAtConstruction)
{
    // A jitter of 1 or more can cancel or invert the backoff delay.
    const std::string msg =
        "FleetConfig: recovery.jitterFrac must be in [0, 1)";
    auto fc = recoveringFleet();
    for (const double bad : {-0.01, 1.0, 2.5, std::nan("")}) {
        fc.recovery.jitterFrac = bad;
        EXPECT_EQ(rejection(fc), msg) << bad;
    }
    for (const double good : {0.0, 0.999}) {
        fc.recovery.jitterFrac = good;
        EXPECT_EQ(rejection(fc), "") << good;
    }
}

/** smallFleet with fault injection on and @p ev as its only fault. */
FleetConfig
faultedFleet(fault::FaultEvent ev)
{
    auto fc = smallFleet(DispatchKind::LeastOutstanding, 0.2);
    fc.faults.enabled = true;
    fc.faults.scripted = {ev};
    return fc;
}

TEST(Fleet, FaultEntityOutsideTheFleetRejectedAtConstruction)
{
    const std::string msg = "FleetConfig: faults.scripted entity must be "
                            "a server index (or kCoreLinkEntity for a "
                            "LinkFlap)";
    // Entity 4 of a 4-server fleet used to index past servers_.
    auto fc = faultedFleet(
        {2 * kMs, 1 * kMs, fault::FaultKind::ServerCrash, 4});
    EXPECT_EQ(rejection(fc), msg);
    fc.faults.scripted[0].entity = 3;
    EXPECT_EQ(rejection(fc), "");
    // The core-link entity only addresses a flap.
    fc.fabric.enabled = true;
    fc.nic.enabled = true;
    const fault::FaultKind kinds[] = {fault::FaultKind::ServerCrash,
                                      fault::FaultKind::ServerDrain,
                                      fault::FaultKind::NicFreeze};
    for (std::size_t i = 0; i < std::size(kinds); ++i) {
        fc.faults.scripted = {
            {2 * kMs, 1 * kMs, kinds[i], fault::kCoreLinkEntity}};
        EXPECT_EQ(rejection(fc), msg) << "kind #" << i;
    }
    fc.faults.scripted = {{2 * kMs, 1 * kMs, fault::FaultKind::LinkFlap,
                           fault::kCoreLinkEntity}};
    EXPECT_EQ(rejection(fc), "");
}

TEST(Fleet, FlapWithoutFabricRejectedAtConstruction)
{
    const std::string msg =
        "FleetConfig: LinkFlap faults need fabric.enabled";
    auto fc =
        faultedFleet({2 * kMs, 1 * kMs, fault::FaultKind::LinkFlap, 1});
    EXPECT_EQ(rejection(fc), msg);
    fc.faults.scripted = {};
    fc.faults.flap.ratePerSec = 10.0;
    EXPECT_EQ(rejection(fc), msg);
    fc.fabric.enabled = true;
    EXPECT_EQ(rejection(fc), "");
}

TEST(Fleet, FreezeWithoutNicRejectedAtConstruction)
{
    const std::string msg = "FleetConfig: NicFreeze faults need nic.enabled";
    auto fc =
        faultedFleet({2 * kMs, 1 * kMs, fault::FaultKind::NicFreeze, 1});
    EXPECT_EQ(rejection(fc), msg);
    fc.faults.scripted = {};
    fc.faults.freeze.ratePerSec = 10.0;
    EXPECT_EQ(rejection(fc), msg);
    fc.nic.enabled = true;
    EXPECT_EQ(rejection(fc), "");
}

TEST(Fleet, IdenticalSeedsIdenticalReports)
{
    const auto fc1 = smallFleet(DispatchKind::PowerAwarePacking, 0.15, 7);
    const auto fc2 = smallFleet(DispatchKind::PowerAwarePacking, 0.15, 7);
    FleetSim a(fc1), b(fc2);
    const auto ra = a.run();
    const auto rb = b.run();

    EXPECT_EQ(ra.dispatched, rb.dispatched);
    EXPECT_EQ(ra.completed, rb.completed);
    EXPECT_EQ(ra.replicasDispatched, rb.replicasDispatched);
    EXPECT_EQ(ra.sloViolations, rb.sloViolations);
    EXPECT_DOUBLE_EQ(ra.pkgPowerW, rb.pkgPowerW);
    EXPECT_DOUBLE_EQ(ra.dramPowerW, rb.dramPowerW);
    EXPECT_DOUBLE_EQ(ra.avgLatencyUs, rb.avgLatencyUs);
    EXPECT_DOUBLE_EQ(ra.p99LatencyUs, rb.p99LatencyUs);
    EXPECT_DOUBLE_EQ(ra.joulesPerRequest, rb.joulesPerRequest);
    EXPECT_DOUBLE_EQ(ra.avgUtilization, rb.avgUtilization);
}

TEST(Fleet, ThreadCountDoesNotChangeResults)
{
    auto fc1 = smallFleet(DispatchKind::LeastOutstanding, 0.15, 9);
    fc1.threads = 1;
    auto fc2 = smallFleet(DispatchKind::LeastOutstanding, 0.15, 9);
    fc2.threads = 4;
    FleetSim a(fc1), b(fc2);
    const auto ra = a.run();
    const auto rb = b.run();
    EXPECT_EQ(ra.completed, rb.completed);
    EXPECT_DOUBLE_EQ(ra.pkgPowerW, rb.pkgPowerW);
    EXPECT_DOUBLE_EQ(ra.p99LatencyUs, rb.p99LatencyUs);
}

TEST(Fleet, PackingBeatsRoundRobinPowerAtLowLoad)
{
    // ≤30% aggregate load: packing concentrates work so drained
    // servers reach deep package idle; round-robin keeps every server
    // lukewarm. Packing must save fleet power without busting the SLO.
    const auto rr =
        FleetSim(smallFleet(DispatchKind::RoundRobin, 0.25)).run();
    const auto pk =
        FleetSim(smallFleet(DispatchKind::PowerAwarePacking, 0.25)).run();

    ASSERT_GT(rr.completed, 500u);
    ASSERT_GT(pk.completed, 500u);
    EXPECT_LT(pk.totalPowerW(), rr.totalPowerW());
    EXPECT_LT(pk.joulesPerRequest, rr.joulesPerRequest);
    EXPECT_LT(pk.p99LatencyUs, pk.sloUs);
}

TEST(Fleet, FanoutAmplifiesTailLatency)
{
    auto base = smallFleet(DispatchKind::LeastOutstanding, 0.15, 21);
    base.numServers = 8;
    base.traffic.qps = base.workload.qpsForUtilization(0.15, 80);
    base.duration = 150 * kMs;

    auto fanned = base;
    fanned.traffic.fanout = {1.0, 8}; // every request fans to 8 replicas
    // Same *request* rate; each request now costs 8 replicas, so scale
    // the rate down to keep aggregate work comparable.
    fanned.traffic.qps = base.traffic.qps / 8.0;

    const auto rs = FleetSim(base).run();
    const auto rf = FleetSim(fanned).run();

    ASSERT_GT(rs.completed, 300u);
    ASSERT_GT(rf.completed, 50u);
    // Incast: completion gated by the slowest of 8 replicas.
    EXPECT_GE(rf.p99LatencyUs, rs.p99LatencyUs);
    EXPECT_GT(rf.avgLatencyUs, rs.avgLatencyUs);
}

TEST(Fleet, PerServerBreakdownIsConsistent)
{
    const auto rep =
        FleetSim(smallFleet(DispatchKind::RoundRobin, 0.1)).run();
    ASSERT_EQ(rep.perServer.size(), rep.numServers);
    double pkg = 0;
    std::uint64_t reqs = 0, lat_samples = 0;
    for (const auto &r : rep.perServer) {
        pkg += r.pkgPowerW;
        reqs += r.requests;
        lat_samples += r.latencyHistUs.count();
    }
    EXPECT_DOUBLE_EQ(pkg, rep.pkgPowerW);
    // Per-server stats cover only the measurement window (warmup
    // traffic must not leak in), and the merged replica-level
    // distribution pools exactly the per-server samples.
    EXPECT_EQ(reqs, lat_samples);
    EXPECT_EQ(rep.replicaLatencyUs.count(), lat_samples);
    EXPECT_EQ(rep.replicaLatencySummary.count(), lat_samples);
    EXPECT_LE(reqs, rep.serversCompleted);
    EXPECT_GT(rep.idlePeriodsUs.count(), 0u);
    // Residency fractions stay fractions after averaging.
    double total = 0;
    for (double f : rep.pkgResidency)
        total += f;
    EXPECT_NEAR(total, 1.0, 1e-6);
}

} // namespace
} // namespace apc::fleet
