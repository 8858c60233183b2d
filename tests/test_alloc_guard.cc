/**
 * @file
 * Heap-allocation budget of the request path. A counting global
 * operator new (this binary only) measures allocations per completed
 * request on a small fleet of C_PC1A servers at the paper's low-load
 * operating point, where every request wakes a package out of PC1A.
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

TEST(AllocGuard, Pc1aFleetStaysWithinAllocationBudget)
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
    const double perRequest = static_cast<double>(allocations) /
        static_cast<double>(rep.serversCompleted);
    std::printf("%llu allocations, %llu requests: %.2f per request\n",
                static_cast<unsigned long long>(allocations),
                static_cast<unsigned long long>(rep.serversCompleted),
                perRequest);
    // Wait lists that drop their capacity on every wake cost about 3
    // more per request and break this budget.
    EXPECT_LE(perRequest, 10.0);
}

} // namespace
} // namespace apc::fleet
