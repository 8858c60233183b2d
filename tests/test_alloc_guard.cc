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
 *
 * The footprint of a simulated server is gated the same way: live heap
 * bytes (malloc_usable_size of every block the counting hooks see) and
 * blocks of one ServerSim, live bytes per server once a fleet has run,
 * and the sizes of the per-server objects there are dozens of.
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>

#include "fleet/fleet_sim.h"
#include "server/server_sim.h"
#include "soc/skx_config.h"

namespace {

// Counts every allocation through the replaced operator new below, and
// the live blocks and their usable bytes across new and delete.
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_liveBlocks{0};
std::atomic<std::int64_t> g_liveBytes{0};

// Out of line: inlined into a unique_ptr's deleter, the free() would
// draw gcc's new/free mismatch warning.
[[gnu::noinline]] void
release(void *p) noexcept
{
    if (p) {
        g_liveBlocks.fetch_sub(1, std::memory_order_relaxed);
        g_liveBytes.fetch_sub(
            static_cast<std::int64_t>(malloc_usable_size(p)),
            std::memory_order_relaxed);
    }
    std::free(p);
}

} // namespace

void *
operator new(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n != 0 ? n : 1)) {
        g_liveBlocks.fetch_add(1, std::memory_order_relaxed);
        g_liveBytes.fetch_add(
            static_cast<std::int64_t>(malloc_usable_size(p)),
            std::memory_order_relaxed);
        return p;
    }
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    release(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    release(p);
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
lowLoadFleet(std::size_t servers = 16)
{
    FleetConfig fc;
    fc.numServers = servers;
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
    // Each bound is the counter's value when it was last pinned (0.020177
    // allocations, 35.142131 events, heap share 0.389022), rounded up in
    // the fourth decimal. The allocations left are one-time growth of
    // per-core wait lists and request rings, event pools and staging
    // buffers to their working set; the event pool grows by fixed-size
    // chunks that are never reallocated. Every callback is an inline
    // callable, so a capture too large for its site no longer compiles
    // rather than allocating; a std::deque request queue would add
    // ~0.11. Before the event pool was chunked: 0.023066 allocations;
    // before collect() handed its histograms over and the chunks held
    // 32 records: 0.021046.
    EXPECT_LE(w.perRequest(w.allocations), 0.0202);
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
    // Pinned at 0.021046 allocations, 12.463664 events, heap share
    // 0.534505 (rounded up). Before the NIC hooks and the link
    // completions became inline callables: 7.998393 allocations;
    // before collect() handed its histograms over and the chunks held
    // 32 records: 0.021741.
    EXPECT_LE(w.perRequest(w.allocations), 0.0211);
    EXPECT_LE(w.perRequest(w.events), 12.4637);
    EXPECT_LE(w.heapShare(), 0.5346);
}

// Per-object size bounds. Debug builds add one word to every
// EventHandle (its queue's epoch, for the use-after-destroy assert), so
// each bound allows that word once per handle the object holds.
#ifdef NDEBUG
constexpr std::size_t kHandleDebugWord = 0;
#else
constexpr std::size_t kHandleDebugWord = sizeof(std::uint64_t);
#endif

// Footprint bounds: the values measured with glibc on x86-64, plus
// slack for glibc's allocation history (it hands out a whole free chunk
// when a split would leave less than its minimum chunk, so a usable
// size moves by a few bytes with what the process freed before): 64
// bytes per ServerSim and 16 bytes per fleet server. Release builds
// read 27 488–27 520 bytes in 66 blocks and 37 189–37 194 bytes per
// server. Debug builds add the handles' extra words (~110 per server)
// and the debug queue registry's nodes: 28 424–28 496 bytes in 67–68
// blocks and 38 109 bytes per server. A sanitizer's allocator reports
// requested sizes, so it reads less. Before collect() handed its
// histograms over and the per-server objects were slimmed, a release
// build read 34 832 bytes for one ServerSim and 51 755 bytes per
// server.
#ifdef NDEBUG
constexpr std::int64_t kServerBytes = 27520 + 64;
constexpr std::int64_t kServerBlocks = 66;
constexpr double kFleetBytesPerServer = 37194.0 + 16;
#else
constexpr std::int64_t kServerBytes = 28496 + 64;
constexpr std::int64_t kServerBlocks = 68;
constexpr double kFleetBytesPerServer = 38109.0 + 16;
#endif
static_assert(sizeof(sim::EventHandle) <= 16 + kHandleDebugWord,
              "an event handle is a queue pointer, a slot and a gen");
// A level, one pending write and two 24-byte observer slots.
static_assert(sizeof(sim::Signal) <= 80 + kHandleDebugWord,
              "a wire fits in 80 bytes");
// A kind literal, a plane and one linear power segment.
static_assert(sizeof(power::PowerLoad) <= 64,
              "a power load fits in one cache line");
// Two wires and two handles; the C-state table is the SoC's.
static_assert(sizeof(cpu::Core) <= 464 + 4 * kHandleDebugWord,
              "a core references its config");
// Two wires and three handles; the link config is the SoC's.
static_assert(sizeof(io::IoLink) <= 504 + 5 * kHandleDebugWord,
              "an IO link references its config");

/** Live heap change across @p fn, in bytes and blocks. */
template <typename Fn>
std::pair<std::int64_t, std::int64_t>
liveDelta(Fn &&fn)
{
    const std::int64_t bytes = g_liveBytes.load();
    const std::int64_t blocks = g_liveBlocks.load();
    fn();
    return {g_liveBytes.load() - bytes, g_liveBlocks.load() - blocks};
}

TEST(AllocGuard, OneServerFootprint)
{
    // One fleet server as FleetSim builds it: C_PC1A, external
    // arrivals, no NIC. Its heap is the SoC's component objects, their
    // wait lists and the two histograms a measurement window fills.
    server::ServerConfig sc;
    sc.policy = soc::PackagePolicy::Cpc1a;
    sc.workload = workload::WorkloadConfig::memcachedEtc(0);
    sc.externalArrivals = true;
    std::unique_ptr<server::ServerSim> srv;
    const auto [bytes, blocks] = liveDelta(
        [&] { srv = std::make_unique<server::ServerSim>(std::move(sc)); });
    std::printf("one ServerSim: %lld bytes in %lld blocks\n",
                static_cast<long long>(bytes),
                static_cast<long long>(blocks));
    EXPECT_LE(bytes, kServerBytes);
    EXPECT_LE(blocks, kServerBlocks);
}

TEST(AllocGuard, FleetFootprintPerServerAfterRun)
{
    // What a fleet holds per server once run() returns: the servers,
    // their grown event pools and wait lists, and the per-server
    // results. collect() hands each server's histograms over to its
    // result, so no server holds its histograms twice.
    constexpr std::size_t kServers = 64;
    std::unique_ptr<FleetSim> fleet;
    FleetReport rep;
    const auto [bytes, blocks] = liveDelta([&] {
        fleet = std::make_unique<FleetSim>(lowLoadFleet(kServers));
        rep = fleet->run();
    });
    ASSERT_EQ(rep.perServer.size(), kServers);
    const double per = static_cast<double>(bytes) / kServers;
    std::printf("fleet of %zu: %.1f live bytes, %.2f blocks per server\n",
                kServers, per, static_cast<double>(blocks) / kServers);
    // APC_AUDIT_FAILFAST=1 (CI's second pass) forces the health
    // monitor and the auditor onto every fleet; their buffers and
    // per-server baselines add 31 918 bytes per server to this fleet.
    const char *audit = std::getenv("APC_AUDIT_FAILFAST");
    const bool audited = audit && *audit && *audit != '0';
    EXPECT_LE(per, kFleetBytesPerServer + (audited ? 31920.0 : 0.0));
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
