/**
 * @file
 * Deterministic work budget of the request path at the paper's
 * low-load operating point, where nearly every request wakes a package
 * out of PC1A. Counters are hard-gated, each at most its value when the
 * gate was set, so a change that adds per-request work fails here
 * rather than in a noisy wall-clock benchmark:
 *  - heap allocations per completed request (a counting global
 *    operator new, this binary only);
 *  - executed events per completed request;
 *  - the share of schedules that take the event queue's binary heap
 *    instead of its sorted near run.
 * Three request paths are gated: a teleport fleet, a fabric + NIC
 * fleet, and one NIC + NUMA server (the UPI remote-access chain).
 * Wall time stays out of it. A change that lowers a counter should
 * lower its bound to the new value.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "fleet/fleet_sim.h"
#include "server/server_sim.h"
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

/** One run's raw counters; the gates divide them per request. */
struct Work
{
    std::uint64_t requests = 0;
    std::uint64_t allocations = 0;
    std::uint64_t events = 0;
    std::uint64_t nearRun = 0;
    std::uint64_t heap = 0;

    void
    add(const sim::EventQueue &q)
    {
        events += q.executedEvents();
        nearRun += q.wheelScheduled();
        heap += q.heapScheduled();
    }

    double
    perRequest(std::uint64_t n) const
    {
        return static_cast<double>(n) / static_cast<double>(requests);
    }

    double
    heapShare() const
    {
        return static_cast<double>(heap) /
            static_cast<double>(nearRun + heap);
    }

    void
    print(const char *what) const
    {
        std::printf("%s: %llu requests: %.6f allocations, %.6f events "
                    "per request; heap share %.6f\n",
                    what, static_cast<unsigned long long>(requests),
                    perRequest(allocations), perRequest(events),
                    heapShare());
    }
};

/** C_PC1A fleet at 10% Poisson load, 100 ms window, one thread. */
FleetConfig
lowLoadFleet()
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
    return fc;
}

Work
runFleet(const FleetConfig &fc, const char *what)
{
    FleetSim fleet(fc);
    const std::uint64_t before = g_allocations.load();
    const FleetReport rep = fleet.run();
    Work w;
    w.allocations = g_allocations.load() - before;
    w.requests = rep.serversCompleted;
    for (std::size_t i = 0; i < fleet.numServers(); ++i)
        w.add(fleet.server(i).sim().events());
    w.print(what);
    return w;
}

TEST(AllocGuard, Pc1aFleetStaysWithinWorkBudget)
{
    const Work w = runFleet(lowLoadFleet(), "teleport fleet");
    ASSERT_GT(w.requests, 1000u);
    // Each bound is the counter's value when it was last pinned (0.021046
    // allocations, 35.142131 events, heap share 0.389022), rounded up in
    // the fourth decimal. The allocations left are one-time growth of
    // per-core wait lists and request rings, event pools and staging
    // buffers to their working set; the event pool grows by fixed-size
    // chunks that are never reallocated. Every callback is an inline
    // callable, so a capture too large for its site no longer compiles
    // rather than allocating; a std::deque request queue would add
    // ~0.11. Before the event pool was chunked: 0.023066 allocations.
    EXPECT_LE(w.perRequest(w.allocations), 0.0211);
    EXPECT_LE(w.perRequest(w.events), 35.1422);
    EXPECT_LE(w.heapShare(), 0.3891);
}

TEST(AllocGuard, NetworkedFleetStaysWithinWorkBudget)
{
    // The same fleet behind a lossy fabric, each server behind a NIC:
    // RX batches, TX completions and ring-drop hooks on every request.
    FleetConfig fc = lowLoadFleet();
    fc.fabric.enabled = true;
    fc.nic.enabled = true;
    const Work w = runFleet(fc, "fabric + NIC fleet");
    ASSERT_GT(w.requests, 1000u);
    // Pinned at 0.021741 allocations, 12.463664 events, heap share
    // 0.534505 (rounded up). Before the NIC hooks and the link
    // completions became inline callables: 7.998393 allocations.
    EXPECT_LE(w.perRequest(w.allocations), 0.0218);
    EXPECT_LE(w.perRequest(w.events), 12.4637);
    EXPECT_LE(w.heapShare(), 0.5346);
}

TEST(AllocGuard, NumaServerStaysWithinWorkBudget)
{
    // One NIC server whose requests touch the remote socket's memory
    // over UPI: the remote link, fabric and memory-controller chain.
    server::ServerConfig sc;
    sc.policy = soc::PackagePolicy::Cpc1a;
    sc.workload = workload::WorkloadConfig::memcachedEtc(0);
    sc.workload.qps = sc.workload.qpsForUtilization(
        0.10, soc::SkxConfig::forPolicy(sc.policy).numCores);
    sc.numa.enabled = true;
    sc.nic.enabled = true;
    sc.warmup = 5 * sim::kMs;
    sc.duration = 100 * sim::kMs;
    server::ServerSim srv(std::move(sc));

    const std::uint64_t before = g_allocations.load();
    srv.run();
    Work w;
    w.allocations = g_allocations.load() - before;
    w.requests = srv.completed();
    w.add(srv.sim().events());
    w.print("NIC + NUMA server");
    ASSERT_GT(w.requests, 1000u);
    // Pinned at 0.025115 allocations, 19.559604 events, heap share
    // 0.517783 (rounded up). With the remote chain as std::function
    // captures: 9.017687 allocations.
    EXPECT_LE(w.perRequest(w.allocations), 0.0252);
    EXPECT_LE(w.perRequest(w.events), 19.5597);
    EXPECT_LE(w.heapShare(), 0.5178);
}

} // namespace
} // namespace apc::fleet
