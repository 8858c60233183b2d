/**
 * @file
 * Unit tests for the network fabric subsystem (net/): drop-tail link
 * conservation, NIC interrupt moderation, RX-ring buffer reuse,
 * coalescing-timer determinism under seed replay, and NIC-wake ->
 * package-exit latency accounting.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>

#include "fleet/fleet_sim.h"
#include "net/fabric.h"
#include "net/nic.h"
#include "server/server_sim.h"

namespace {

// Allocations of at least one default-size RX ring's buffer, counted
// by the replaced operator new below (this binary only).
constexpr std::size_t kRingBytes =
    apc::net::NicConfig{}.rxRingSize * sizeof(apc::net::Nic::RxPacket);
std::atomic<std::uint64_t> g_ringSizedAllocs{0};

} // namespace

void *
operator new(std::size_t n)
{
    if (n >= kRingBytes)
        g_ringSizedAllocs.fetch_add(1, std::memory_order_relaxed);
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

namespace apc::net {
namespace {

using sim::kMs;
using sim::kNs;
using sim::kUs;

// ----------------------------------------------------------- DropTailLink

LinkConfig
tinyLink(std::size_t queue_pkts)
{
    LinkConfig lc;
    lc.gbps = 10.0;
    lc.propDelay = 1 * kUs;
    lc.queuePackets = queue_pkts;
    return lc;
}

TEST(DropTailLink, QueuesThenDeliversInFifoOrder)
{
    DropTailLink link(tinyLink(64));
    const sim::Tick ser = link.serializationTime(1500); // 1.2 us @ 10G
    EXPECT_EQ(ser, 1200 * kNs);

    const auto a = link.offer(0, 1500);
    const auto b = link.offer(0, 1500);
    ASSERT_TRUE(a.accepted);
    ASSERT_TRUE(b.accepted);
    EXPECT_EQ(a.deliverAt, ser + 1 * kUs);
    EXPECT_EQ(b.deliverAt, 2 * ser + 1 * kUs); // queued behind a
}

TEST(DropTailLink, IdleGapDrainsTheQueue)
{
    DropTailLink link(tinyLink(64));
    const sim::Tick ser = link.serializationTime(1500);
    link.offer(0, 1500);
    // Far beyond the backlog: no queueing delay.
    const auto late = link.offer(100 * kUs, 1500);
    EXPECT_EQ(late.deliverAt, 100 * kUs + ser + 1 * kUs);
}

TEST(DropTailLink, TailDropsWhenBufferFullAndConserves)
{
    const std::size_t cap = 8;
    DropTailLink link(tinyLink(cap));
    std::uint64_t accepted = 0, dropped = 0;
    for (int i = 0; i < 50; ++i) {
        const auto o = link.offer(0, 1500); // all at t=0: queue builds
        o.accepted ? ++accepted : ++dropped;
    }
    EXPECT_GT(dropped, 0u);
    // Conservation: every offer either delivered or dropped.
    EXPECT_EQ(link.offered(), 50u);
    EXPECT_EQ(link.delivered(), accepted);
    EXPECT_EQ(link.dropped(), dropped);
    EXPECT_EQ(link.offered(), link.delivered() + link.dropped());
    // The buffer held about its configured packet count.
    EXPECT_NEAR(static_cast<double>(accepted), static_cast<double>(cap),
                2.0);
}

// ----------------------------------------------------------------- Fabric

TEST(Fabric, RoutesAndRetransmitsThroughCongestion)
{
    FabricConfig fc;
    fc.enabled = true;
    fc.edge.queuePackets = 4; // tiny buffers: force drops
    fc.core.queuePackets = 4;
    fc.rto = 100 * kUs;
    fc.maxTries = 3;
    Fabric fab(fc, 4);

    std::uint64_t ok = 0, lost = 0, retransmits = 0;
    for (int i = 0; i < 400; ++i) {
        const auto tr = fab.toServer(0, static_cast<std::size_t>(i % 4));
        retransmits += static_cast<std::uint64_t>(tr.retransmits);
        tr.lost ? ++lost : ++ok;
    }
    EXPECT_GT(retransmits, 0u);
    EXPECT_GT(ok, 0u);

    const auto s = fab.stats();
    // Per-link conservation is exact.
    EXPECT_EQ(s.enqueued, s.delivered + s.dropped);
    EXPECT_GT(s.dropped, 0u);
    // Path accounting: every transit asked is delivered or lost.
    EXPECT_EQ(s.requests, 400u);
    EXPECT_EQ(s.requests, ok + lost);
    EXPECT_EQ(s.retransmits, retransmits);
    EXPECT_EQ(s.giveUps, lost);
}

TEST(Fabric, RtoBacksOffExponentiallyWithCap)
{
    FabricConfig fc;
    fc.enabled = true;
    fc.rto = 100 * kUs;
    fc.rtoBackoff = 2.0;
    fc.rtoMax = 300 * kUs;
    fc.maxTries = 5;
    Fabric fab(fc, 1);
    // Flap the edge so every attempt drops: all four waits happen.
    fab.flapServer(0, 0, 10 * sim::kMs);
    const auto tr = fab.toServer(0, 0);
    EXPECT_TRUE(tr.lost);
    EXPECT_EQ(tr.retransmits, 4);
    // Waits: 100, 200, 300 (capped), 300 (capped) µs.
    EXPECT_EQ(tr.rtoWait, 900 * kUs);
    const auto s = fab.stats();
    EXPECT_EQ(s.giveUps, 1u);
    EXPECT_EQ(s.retransmits, 4u);
    EXPECT_EQ(s.flapDropped, 5u);
    // Flap drops still balance the per-link books.
    EXPECT_EQ(s.enqueued, s.delivered + s.dropped);
}

TEST(Fabric, FlapWindowIsAHardLossWindow)
{
    FabricConfig fc;
    fc.enabled = true;
    fc.maxTries = 1; // no retries: outcomes map 1:1 to windows
    Fabric fab(fc, 2);
    fab.flapServer(1, 1 * sim::kMs, 2 * sim::kMs);
    EXPECT_FALSE(fab.toServer(0, 1).lost);             // before
    EXPECT_TRUE(fab.toServer(1 * sim::kMs, 1).lost);   // inside
    EXPECT_FALSE(fab.toServer(1 * sim::kMs, 0).lost);  // other server
    // Still inside with margin for the ~56 µs core transit the packet
    // takes before it reaches the flapped edge link.
    EXPECT_TRUE(fab.toServer(3 * sim::kMs / 2, 1).lost);
    EXPECT_FALSE(fab.toServer(2 * sim::kMs, 1).lost);  // after
    // Core blackout severs every server.
    fab.flapCore(5 * sim::kMs, 6 * sim::kMs);
    EXPECT_TRUE(fab.toServer(5 * sim::kMs, 0).lost);
    EXPECT_TRUE(fab.toServer(5 * sim::kMs, 1).lost);
}

TEST(Fabric, UncongestedTransitMatchesWireMath)
{
    FabricConfig fc;
    fc.enabled = true;
    Fabric fab(fc, 2);
    const auto tr = fab.toServer(0, 1);
    ASSERT_FALSE(tr.lost);
    const sim::Tick expect =
        fab.coreIngress().serializationTime(fc.requestBytes) +
        fc.core.propDelay + fc.switchLatency +
        fab.downlink(1).serializationTime(fc.requestBytes) +
        fc.edge.propDelay;
    EXPECT_EQ(tr.deliverAt, expect);
}

// -------------------------------------------------------------------- Nic

struct NicHarness
{
    sim::Simulation sim{1};
    power::EnergyMeter meter{sim};
    io::IoLinkConfig linkCfg = io::IoLinkConfig::pcie(0);
    io::IoLink link;
    Nic nic;

    std::vector<std::vector<Nic::RxPacket>> batches;
    std::vector<sim::Tick> irqAts;
    std::vector<std::uint64_t> drops;

    explicit NicHarness(NicConfig cfg)
        : link(sim, meter, linkCfg),
          nic(sim, meter, link, cfg)
    {
        nic.onDeliver([this](std::vector<Nic::RxPacket> b,
                             sim::Tick irq_at) {
            batches.push_back(std::move(b));
            irqAts.push_back(irq_at);
        });
        nic.onDrop([this](std::uint64_t id, sim::Tick) {
            drops.push_back(id);
        });
    }
};

TEST(Nic, FrameThresholdFiresBeforeTimer)
{
    NicConfig cfg;
    cfg.enabled = true;
    cfg.rxFrames = 4;
    cfg.rxUsecs = 10 * kMs; // timer far away: frames must trigger
    NicHarness h(cfg);

    for (std::uint64_t i = 0; i < 4; ++i)
        h.sim.at(static_cast<sim::Tick>(i) * kUs, [&h, i] {
            h.nic.rxEnqueue(i, 5 * kUs);
        });
    h.sim.runUntil(1 * kMs);

    ASSERT_EQ(h.batches.size(), 1u);
    EXPECT_EQ(h.batches[0].size(), 4u);
    EXPECT_EQ(h.irqAts[0], 3 * kUs); // the 4th packet raised it
    EXPECT_EQ(h.nic.stats().interrupts, 1u);
    EXPECT_DOUBLE_EQ(h.nic.stats().pktsPerIrq.mean(), 4.0);
    // One DMA burst over the PCIe link per interrupt.
    EXPECT_EQ(h.link.transfers(), 1u);
}

TEST(Nic, TimerFlushesPartialBatch)
{
    NicConfig cfg;
    cfg.enabled = true;
    cfg.rxFrames = 64;
    cfg.rxUsecs = 50 * kUs;
    NicHarness h(cfg);

    h.sim.at(7 * kUs, [&h] { h.nic.rxEnqueue(1, 5 * kUs); });
    h.sim.at(9 * kUs, [&h] { h.nic.rxEnqueue(2, 5 * kUs); });
    h.sim.runUntil(1 * kMs);

    ASSERT_EQ(h.batches.size(), 1u);
    EXPECT_EQ(h.batches[0].size(), 2u);
    // Timer runs from the oldest descriptor.
    EXPECT_EQ(h.irqAts[0], 7 * kUs + 50 * kUs);
    // Ring wait: 50 us for the first packet, 48 us for the second.
    EXPECT_NEAR(h.nic.stats().ringWaitUs.mean(), 49.0, 1e-9);
}

TEST(Nic, ZeroWindowInterruptsPerPacket)
{
    NicConfig cfg;
    cfg.enabled = true;
    cfg.rxUsecs = 0;
    NicHarness h(cfg);
    for (std::uint64_t i = 0; i < 5; ++i)
        h.sim.at(static_cast<sim::Tick>(i) * kUs,
                 [&h, i] { h.nic.rxEnqueue(i, kUs); });
    h.sim.runUntil(1 * kMs);
    EXPECT_EQ(h.nic.stats().interrupts, 5u);
    ASSERT_EQ(h.batches.size(), 5u);
    EXPECT_EQ(h.batches[0].size(), 1u);
}

TEST(Nic, FullRingTailDropsWithConservation)
{
    NicConfig cfg;
    cfg.enabled = true;
    cfg.rxRingSize = 8;
    cfg.rxFrames = 1000;
    cfg.rxUsecs = 10 * kMs; // nothing drains the ring
    NicHarness h(cfg);
    h.sim.at(0, [&h] {
        for (std::uint64_t i = 0; i < 20; ++i)
            h.nic.rxEnqueue(i, kUs);
    });
    h.sim.runUntil(1 * kMs);

    EXPECT_EQ(h.nic.stats().rxDropped, 12u);
    EXPECT_EQ(h.drops.size(), 12u);
    EXPECT_EQ(h.drops.front(), 8u); // first id past the ring
    // enqueued = (delivered later) + dropped + still-in-ring.
    EXPECT_EQ(h.nic.stats().rxPackets, 8u);
    EXPECT_EQ(h.nic.ringOccupancy(), 8u);
}

TEST(Nic, SteadyInterruptsReuseTheRecycledRing)
{
    // A receiver that hands every delivered batch back: once the first
    // interrupt has left a buffer to recycle, no interrupt allocates a
    // ring again.
    NicConfig cfg;
    cfg.enabled = true;
    cfg.rxFrames = 4;
    cfg.rxUsecs = 10 * kMs; // every interrupt is a frame-threshold one
    NicHarness h(cfg);
    std::uint64_t delivered = 0;
    h.nic.onDeliver([&](std::vector<Nic::RxPacket> b, sim::Tick) {
        delivered += b.size();
        h.nic.recycle(std::move(b));
    });
    constexpr std::uint64_t kPackets = 4000;
    std::uint64_t sent = 0;
    std::function<void()> arrive = [&] {
        h.nic.rxEnqueue(sent, kUs);
        if (++sent < kPackets)
            h.sim.after(1 * kUs, arrive);
    };
    h.sim.at(0, arrive);
    h.sim.runUntil(100 * kUs); // warm-up: the first recycled buffers
    const std::uint64_t before = g_ringSizedAllocs.load();
    h.sim.runUntil(10 * kMs);
    EXPECT_EQ(g_ringSizedAllocs.load() - before, 0u);
    EXPECT_EQ(h.nic.stats().interrupts, kPackets / 4);
    EXPECT_EQ(delivered, kPackets);
}

// ----------------------------------------------- ServerSim NIC wake path

server::ServerConfig
nicServerConfig(sim::Tick rx_usecs, std::uint64_t seed = 42)
{
    server::ServerConfig cfg;
    cfg.policy = soc::PackagePolicy::Cpc1a;
    cfg.workload = workload::WorkloadConfig::memcachedEtc(8000);
    cfg.duration = 150 * kMs;
    cfg.seed = seed;
    cfg.nic.enabled = true;
    cfg.nic.rxUsecs = rx_usecs;
    cfg.nic.rxFrames = 64;
    return cfg;
}

TEST(NicServer, WakeLatencyCoversPackageExit)
{
    server::ServerSim srv(nicServerConfig(20 * kUs));
    const auto r = srv.run();

    ASSERT_GT(r.nicInterrupts, 100u);
    ASSERT_GT(r.nicWakeUs.count(), 0u);
    // Every delivery paid at least the DMA burst; wakes from PC1A add
    // the L0s exit (~64 ns) and the APMU exit (~150 ns), all well
    // under the legacy PC6's tens of microseconds.
    EXPECT_GT(r.nicWakeUs.mean(), 0.1);
    EXPECT_LT(r.nicWakeUs.max(), 50.0);
    // The server did reach PC1A between interrupts, and the APMU (not
    // a request teleport) ran the exits.
    EXPECT_GT(r.pc1aResidency(), 0.2);
    EXPECT_GT(r.pc1aEntries, 0u);
    // NIC energy is accounted off-RAPL on the Network plane.
    EXPECT_GT(r.nicPowerW, 1.0);
    EXPECT_LT(r.nicPowerW, 20.0);
}

TEST(NicServer, AdmittedBatchesHandTheirRingBack)
{
    // The server recycles each batch once admitted, so its interrupts
    // do not allocate a fresh ring apiece.
    server::ServerSim srv(nicServerConfig(20 * kUs));
    const std::uint64_t before = g_ringSizedAllocs.load();
    const auto r = srv.run();
    const std::uint64_t allocs = g_ringSizedAllocs.load() - before;
    ASSERT_GT(r.nicInterrupts, 100u);
    EXPECT_LT(allocs, r.nicInterrupts / 10)
        << allocs << " ring-sized allocations for " << r.nicInterrupts
        << " interrupts";
}

TEST(NicServer, SeedReplayIsDeterministic)
{
    server::ServerSim a(nicServerConfig(20 * kUs, 7));
    server::ServerSim b(nicServerConfig(20 * kUs, 7));
    const auto ra = a.run();
    const auto rb = b.run();
    EXPECT_EQ(ra.requests, rb.requests);
    EXPECT_EQ(ra.nicInterrupts, rb.nicInterrupts);
    EXPECT_EQ(ra.nicRxPackets, rb.nicRxPackets);
    EXPECT_DOUBLE_EQ(ra.nicWakeUs.mean(), rb.nicWakeUs.mean());
    EXPECT_DOUBLE_EQ(ra.avgLatencyUs, rb.avgLatencyUs);
    EXPECT_DOUBLE_EQ(ra.pkgPowerW, rb.pkgPowerW);
}

TEST(NicServer, WiderWindowCoalescesWakes)
{
    const auto tight = server::ServerSim(nicServerConfig(0)).run();
    const auto wide =
        server::ServerSim(nicServerConfig(200 * kUs)).run();

    // Same offered load, far fewer interrupts, bigger batches.
    EXPECT_LT(wide.nicInterrupts, tight.nicInterrupts / 2);
    EXPECT_GT(wide.nicPktsPerIrq.mean(),
              1.5 * tight.nicPktsPerIrq.mean());
    // Wake sharing + longer quiet periods: more PC1A residency.
    EXPECT_GT(wide.pc1aResidency(), tight.pc1aResidency());
    // The held packets pay for it in latency.
    EXPECT_GT(wide.avgLatencyUs, tight.avgLatencyUs);
}

// ------------------------------------------------------- Fleet over fabric

fleet::FleetConfig
netFleet(double util, std::uint64_t seed = 42)
{
    fleet::FleetConfig fc;
    fc.numServers = 4;
    fc.policy = soc::PackagePolicy::Cpc1a;
    fc.workload = workload::WorkloadConfig::memcachedEtc(0);
    fc.dispatch = fleet::DispatchKind::LeastOutstanding;
    fc.traffic.arrivalKind = workload::ArrivalKind::Poisson;
    fc.traffic.qps = fc.workload.qpsForUtilization(
        util, static_cast<int>(fc.numServers) * 10);
    fc.sloUs = 2000.0;
    fc.warmup = 20 * kMs;
    fc.duration = 150 * kMs;
    fc.seed = seed;
    fc.fabric.enabled = true;
    fc.nic.enabled = true;
    fc.nic.rxUsecs = 20 * kUs;
    return fc;
}

TEST(NetFleet, ConservationAndCompletion)
{
    const auto rep = fleet::FleetSim(netFleet(0.2)).run();
    ASSERT_GT(rep.dispatched, 100u);
    // Benign fabric defaults: nothing is lost, everything drains.
    EXPECT_EQ(rep.inFlightAtEnd, 0u);
    EXPECT_EQ(rep.dispatched, rep.completed + rep.lostRequests);
    EXPECT_EQ(rep.lostRequests, 0u);
    // Exact per-link packet conservation.
    EXPECT_EQ(rep.fabricStats.enqueued,
              rep.fabricStats.delivered + rep.fabricStats.dropped);
    // Every request crossed the fabric twice (there + response); the
    // counters reset at the measurement edge, so warmup carryover can
    // only add responses, never requests.
    EXPECT_GT(rep.fabricStats.requests, 0u);
    EXPECT_GE(rep.fabricStats.responses, rep.fabricStats.requests);
    EXPECT_LT(rep.fabricStats.responses - rep.fabricStats.requests,
              rep.fabricStats.requests / 50);
    // Net power shows up in the report.
    EXPECT_GT(rep.nicPowerW, 0.0);
    EXPECT_GT(rep.fabricPowerW, 0.0);
    EXPECT_GT(rep.totalPowerW(),
              rep.pkgPowerW + rep.dramPowerW);
    EXPECT_GT(rep.nicInterrupts, 0u);
    EXPECT_GT(rep.nicWakeUs.count(), 0u);
}

TEST(NetFleet, LossyFabricRetransmitsAndConserves)
{
    auto fc = netFleet(0.3, 11);
    // Starve the buffers so bursts overflow; keep retries bounded.
    fc.fabric.edge.queuePackets = 2;
    fc.fabric.core.queuePackets = 3;
    fc.fabric.rto = 300 * kUs;
    fc.fabric.maxTries = 2;
    fc.traffic.arrivalKind = workload::ArrivalKind::Mmpp;
    fc.traffic.burstiness = 6.0;
    const auto rep = fleet::FleetSim(fc).run();

    ASSERT_GT(rep.dispatched, 100u);
    EXPECT_GT(rep.fabricStats.dropped, 0u);
    EXPECT_GT(rep.netRetransmits, 0u);
    // Drops beyond retry surface as lost requests, not hung flights.
    EXPECT_EQ(rep.inFlightAtEnd, 0u);
    EXPECT_EQ(rep.dispatched, rep.completed + rep.lostRequests);
    EXPECT_EQ(rep.fabricStats.enqueued,
              rep.fabricStats.delivered + rep.fabricStats.dropped);
}

TEST(NetFleet, SeedAndThreadCountInvariant)
{
    auto fc1 = netFleet(0.15, 9);
    fc1.threads = 1;
    auto fc2 = netFleet(0.15, 9);
    fc2.threads = 4;
    const auto ra = fleet::FleetSim(fc1).run();
    const auto rb = fleet::FleetSim(fc2).run();

    EXPECT_EQ(ra.dispatched, rb.dispatched);
    EXPECT_EQ(ra.completed, rb.completed);
    EXPECT_EQ(ra.lostRequests, rb.lostRequests);
    EXPECT_EQ(ra.netRetransmits, rb.netRetransmits);
    EXPECT_EQ(ra.nicInterrupts, rb.nicInterrupts);
    EXPECT_EQ(ra.fabricStats.enqueued, rb.fabricStats.enqueued);
    EXPECT_DOUBLE_EQ(ra.p99LatencyUs, rb.p99LatencyUs);
    EXPECT_DOUBLE_EQ(ra.pkgPowerW, rb.pkgPowerW);
    EXPECT_DOUBLE_EQ(ra.joulesPerRequest, rb.joulesPerRequest);

    // And an identical rerun reproduces bit-identical results.
    auto fc3 = netFleet(0.15, 9);
    fc3.threads = 4;
    const auto rc = fleet::FleetSim(fc3).run();
    EXPECT_EQ(rb.completed, rc.completed);
    EXPECT_DOUBLE_EQ(rb.avgLatencyUs, rc.avgLatencyUs);
    EXPECT_DOUBLE_EQ(rb.pkgPowerW, rc.pkgPowerW);
}

TEST(NetFleet, CoalescingTradeoffVisibleAtFleetScale)
{
    auto tight_cfg = netFleet(0.1, 5);
    tight_cfg.nic.rxUsecs = 0;
    auto wide_cfg = netFleet(0.1, 5);
    wide_cfg.nic.rxUsecs = 250 * kUs;
    wide_cfg.nic.rxFrames = 64;
    const auto tight = fleet::FleetSim(tight_cfg).run();
    const auto wide = fleet::FleetSim(wide_cfg).run();

    EXPECT_LT(wide.nicInterrupts, tight.nicInterrupts);
    EXPECT_GT(wide.pc1aResidency(), tight.pc1aResidency());
    EXPECT_GT(wide.avgLatencyUs, tight.avgLatencyUs);
}

// --------------------------------------------------------------- CSV export

TEST(Csv, HistogramAndFleetReportRender)
{
    stats::Histogram h(0.1, 1e4, 8);
    h.record(1.0);
    h.record(1.0);
    h.record(250.0);
    const std::string csv = h.toCsv();
    EXPECT_NE(csv.find("bin_lower,bin_upper,count"), std::string::npos);
    // Two non-empty bins -> header + 2 rows.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
    EXPECT_NE(csv.find(",2\n"), std::string::npos);

    fleet::FleetReport rep;
    rep.numServers = 4;
    rep.dispatched = 100;
    const std::string header = fleet::FleetReport::csvHeader();
    const std::string row = rep.csvRow();
    // Same arity, parseable as one record per report.
    EXPECT_EQ(std::count(header.begin(), header.end(), ','),
              std::count(row.begin(), row.end(), ','));
    EXPECT_EQ(row.rfind("4,100,", 0), 0u);
}

} // namespace
} // namespace apc::net
