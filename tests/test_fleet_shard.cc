/**
 * @file
 * Sharded fleet-engine tests: layout invariants, and the determinism
 * contract at scale — identical FleetReport CSV bytes for any
 * (thread count x shard size) combination, plus request-conservation
 * and NIC/fabric accounting with ~1k servers.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fleet/fleet_sim.h"
#include "fleet/shard.h"
#include "stats/reduce.h"

namespace apc::fleet {
namespace {

using sim::kMs;
using sim::kUs;

// ------------------------------------------------------------ shard layout

TEST(ShardLayout, CoversAllServersContiguously)
{
    for (std::size_t servers : {1ul, 2ul, 7ul, 64ul, 100ul, 1000ul})
        for (std::size_t size : {1ul, 3ul, 8ul, 64ul, 2000ul}) {
            const auto l = ShardLayout::make(servers, size, 4);
            ASSERT_GT(l.numShards, 0u);
            std::size_t covered = 0;
            for (std::size_t s = 0; s < l.numShards; ++s) {
                ASSERT_EQ(l.begin(s), covered);
                ASSERT_GT(l.end(s), l.begin(s));
                ASSERT_LE(l.end(s) - l.begin(s), l.shardSize);
                for (std::size_t i = l.begin(s); i < l.end(s); ++i)
                    ASSERT_EQ(l.shardOf(i), s);
                covered = l.end(s);
            }
            ASSERT_EQ(covered, servers);
        }
}

TEST(ShardLayout, AutoSizeScalesWithThreadsAndCaps)
{
    // ~4 shards per worker...
    const auto a = ShardLayout::make(1024, 0, 8);
    EXPECT_EQ(a.shardSize, 32u);
    EXPECT_EQ(a.numShards, 32u);
    // ...but never more than 64 servers per shard...
    const auto b = ShardLayout::make(10000, 0, 8);
    EXPECT_EQ(b.shardSize, 64u);
    // ...and never zero-sized.
    const auto c = ShardLayout::make(3, 0, 16);
    EXPECT_EQ(c.shardSize, 1u);
    EXPECT_EQ(c.numShards, 3u);
}

TEST(StagedEventOrder, MatchesGlobalSortOrder)
{
    // The merge comparator must impose the (time, server, id) total
    // order the pre-shard engine's global sort used.
    EXPECT_TRUE(stagedBefore({1, 5, kNoSums, 9}, {2, 0, kNoSums, 0}));
    EXPECT_TRUE(stagedBefore({1, 4, kNoSums, 9}, {1, 5, kNoSums, 0}));
    EXPECT_TRUE(stagedBefore({1, 5, kNoSums, 3}, {1, 5, kNoSums, 9}));
    EXPECT_FALSE(stagedBefore({1, 5, kNoSums, 9}, {1, 5, kNoSums, 9}));
    // The staged sums index is payload, not part of the order.
    EXPECT_FALSE(stagedBefore({1, 5, 0, 9}, {1, 5, 7, 9}));
}

// ------------------------------------------------------------ reduceFixed

TEST(ReduceFixed, ShapeIsIndependentOfParallelism)
{
    // Summing doubles is order-sensitive; with a fixed leaf width the
    // reduction must give bit-equal results for any "worker count"
    // (here: plain sequential pfor vs chunk-reversed pfor).
    std::vector<double> xs(1000);
    for (std::size_t i = 0; i < xs.size(); ++i)
        xs[i] = 1.0 / static_cast<double>(i + 3);
    const auto accum = [&xs](double &acc, std::size_t i) {
        acc += xs[i];
    };
    const auto merge = [](double &acc, const double &o) { acc += o; };
    const double fwd = stats::reduceFixed(
        xs.size(), 64, 0.0, accum, merge,
        [](std::size_t n, auto &&fn) {
            for (std::size_t l = 0; l < n; ++l)
                fn(l);
        });
    const double rev = stats::reduceFixed(
        xs.size(), 64, 0.0, accum, merge,
        [](std::size_t n, auto &&fn) {
            for (std::size_t l = n; l-- > 0;)
                fn(l); // leaves evaluated in reverse "schedule"
        });
    EXPECT_EQ(fwd, rev); // bit-equal, not just approximately
    // Sanity: the reduction really sums everything.
    double ref = 0.0;
    for (double x : xs)
        ref += x;
    EXPECT_NEAR(fwd, ref, 1e-9);
}

// ----------------------------------------------- determinism grid at scale

FleetConfig
bigFleet(std::size_t servers, unsigned threads, std::size_t shard_size)
{
    FleetConfig fc;
    fc.numServers = servers;
    fc.policy = soc::PackagePolicy::Cpc1a;
    fc.workload = workload::WorkloadConfig::memcachedEtc(0);
    fc.dispatch = DispatchKind::LeastOutstanding;
    fc.traffic.arrivalKind = workload::ArrivalKind::Poisson;
    fc.traffic.qps = fc.workload.qpsForUtilization(
        0.05, static_cast<int>(servers) * 10);
    fc.traffic.fanout = {0.05, 4}; // exercise exclusion routing
    fc.sloUs = 10000.0;
    fc.warmup = 4 * kMs;
    fc.duration = 16 * kMs;
    fc.seed = 77;
    fc.threads = threads;
    fc.shardSize = shard_size;
    return fc;
}

TEST(FleetShard, ReportBytesIdenticalAcrossThreadsAndShardSizes)
{
    // The determinism contract, verified at the advertised scale: 1k
    // servers, CSV rows compared byte-for-byte across thread counts and
    // shard sizes (including the degenerate one-server-per-shard and
    // one-big-shard layouts).
    constexpr std::size_t kServers = 1024;
    struct Point
    {
        unsigned threads;
        std::size_t shardSize;
    };
    const std::vector<Point> grid = {
        {1, 0},  // auto layout, inline execution
        {2, 7},  // ragged shard boundary
        {8, 64}, // the auto cap, oversubscribed workers
        {8, 1},  // one server per shard
    };
    std::string reference;
    std::uint64_t ref_dispatched = 0;
    for (const Point &p : grid) {
        FleetSim fleet(bigFleet(kServers, p.threads, p.shardSize));
        const FleetReport rep = fleet.run();
        ASSERT_GT(rep.dispatched, 1000u);
        // Conservation at scale: every routed replica is accounted for.
        EXPECT_EQ(rep.replicasDispatched, rep.serversAccepted);
        EXPECT_EQ(rep.replicasDispatched,
                  rep.serversCompleted + rep.serversOutstanding);
        EXPECT_EQ(rep.inFlightAtEnd, 0u);
        EXPECT_EQ(rep.dispatched, rep.completed);
        const std::string row = rep.csvRow();
        if (reference.empty()) {
            reference = row;
            ref_dispatched = rep.dispatched;
        } else {
            EXPECT_EQ(row, reference)
                << "threads=" << p.threads
                << " shardSize=" << p.shardSize;
            EXPECT_EQ(rep.dispatched, ref_dispatched);
        }
    }
}

TEST(FleetShard, NicFabricAccountingIdenticalAcrossLayouts)
{
    // Fabric + NIC mode at scale: the shared-link transit order and the
    // NIC-drop retransmit path must survive resharding bit-for-bit,
    // and the network accounting identities must hold exactly.
    constexpr std::size_t kServers = 256;
    auto make = [](unsigned threads, std::size_t shard_size) {
        FleetConfig fc;
        fc.numServers = kServers;
        fc.policy = soc::PackagePolicy::Cpc1a;
        fc.workload = workload::WorkloadConfig::memcachedEtc(0);
        fc.dispatch = DispatchKind::LeastOutstanding;
        fc.traffic.arrivalKind = workload::ArrivalKind::Mmpp;
        fc.traffic.burstiness = 5.0;
        fc.traffic.qps = fc.workload.qpsForUtilization(
            0.15, static_cast<int>(kServers) * 10);
        fc.sloUs = 10000.0;
        fc.warmup = 4 * kMs;
        fc.duration = 16 * kMs;
        fc.seed = 31;
        fc.fabric.enabled = true;
        // Tight buffers force drops, retransmits and losses through
        // the k-way-merged drain paths.
        fc.fabric.edge.queuePackets = 3;
        fc.fabric.core.queuePackets = 24;
        fc.fabric.rto = 300 * kUs;
        fc.fabric.maxTries = 2;
        fc.nic.enabled = true;
        fc.nic.rxUsecs = 20 * kUs;
        fc.threads = threads;
        fc.shardSize = shard_size;
        return fc;
    };

    std::string reference;
    for (const auto &[threads, shard] :
         std::vector<std::pair<unsigned, std::size_t>>{
             {1, 0}, {8, 5}, {2, 64}}) {
        const FleetReport rep = FleetSim(make(threads, shard)).run();
        ASSERT_GT(rep.dispatched, 500u);
        // Per-link conservation is exact, even with drops in flight.
        EXPECT_EQ(rep.fabricStats.enqueued,
                  rep.fabricStats.delivered + rep.fabricStats.dropped);
        // Every measured request either completed or was reported lost.
        EXPECT_EQ(rep.inFlightAtEnd, 0u);
        EXPECT_EQ(rep.dispatched, rep.completed + rep.lostRequests);
        EXPECT_GT(rep.nicInterrupts, 0u);
        const std::string row = rep.csvRow();
        if (reference.empty())
            reference = row;
        else
            EXPECT_EQ(row, reference)
                << "threads=" << threads << " shardSize=" << shard;
    }
}

} // namespace
} // namespace apc::fleet
