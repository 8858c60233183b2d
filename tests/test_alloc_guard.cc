/**
 * @file
 * Deterministic work budget of the request path, on a small fleet of
 * C_PC1A servers at the paper's low-load operating point, where every
 * request wakes a package out of PC1A. Three counters are hard-gated,
 * each at most its value when the gate was set, so a change that adds
 * per-request work fails here rather than in a noisy wall-clock
 * benchmark:
 *  - heap allocations per completed replica (a counting global
 *    operator new, this binary only);
 *  - executed events per completed replica;
 *  - the share of schedules that take the event queue's binary heap
 *    instead of its sorted near run.
 * Wall time stays out of it. A change that lowers a counter should
 * lower its bound to the new value.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "fleet/fleet_sim.h"
#include "soc/skx_config.h"

namespace {

// Counts every allocation through the replaced operator new below.
std::atomic<std::uint64_t> g_allocations{0};

} // namespace

void *
operator new(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace apc::fleet {
namespace {

TEST(AllocGuard, Pc1aFleetStaysWithinWorkBudget)
{
    FleetConfig fc;
    fc.numServers = 16;
    fc.policy = soc::PackagePolicy::Cpc1a;
    fc.workload = workload::WorkloadConfig::memcachedEtc(0);
    fc.dispatch = DispatchKind::LeastOutstanding;
    fc.traffic.arrivalKind = workload::ArrivalKind::Poisson;
    fc.traffic.qps = fc.workload.qpsForUtilization(
        0.10, static_cast<int>(fc.numServers) *
                  soc::SkxConfig::forPolicy(fc.policy).numCores);
    fc.warmup = 5 * sim::kMs;
    fc.duration = 100 * sim::kMs;
    fc.threads = 1;
    FleetSim fleet(fc);

    const std::uint64_t before = g_allocations.load();
    const FleetReport rep = fleet.run();
    const std::uint64_t allocations = g_allocations.load() - before;

    ASSERT_GT(rep.serversCompleted, 1000u);
    std::uint64_t events = 0, nearRun = 0, heap = 0;
    for (std::size_t i = 0; i < fleet.numServers(); ++i) {
        const sim::EventQueue &q = fleet.server(i).sim().events();
        events += q.executedEvents();
        nearRun += q.wheelScheduled();
        heap += q.heapScheduled();
    }
    const auto requests = static_cast<double>(rep.serversCompleted);
    const double allocsPerRequest =
        static_cast<double>(allocations) / requests;
    const double eventsPerRequest = static_cast<double>(events) / requests;
    const double heapShare = static_cast<double>(heap) /
        static_cast<double>(nearRun + heap);
    std::printf("%llu requests: %.6f allocations, %.6f events per "
                "request; heap share %.6f\n",
                static_cast<unsigned long long>(rep.serversCompleted),
                allocsPerRequest, eventsPerRequest, heapShare);
    // Each bound is the counter's value when it was last pinned (6.853069
    // allocations, 35.142131 events, heap share 0.389022), rounded up in
    // the fourth decimal. Wait lists that drop their capacity on every
    // wake cost about 3 more allocations per request; a hashed flight
    // map costs one more per request, and so does an IO link transfer
    // that copies its completion instead of moving it.
    EXPECT_LE(allocsPerRequest, 6.8531);
    EXPECT_LE(eventsPerRequest, 35.1422);
    EXPECT_LE(heapShare, 0.3891);
}

} // namespace
} // namespace apc::fleet
