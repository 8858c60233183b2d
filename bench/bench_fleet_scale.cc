/**
 * @file
 * Fleet-engine scaling grid: wall-clock, events/sec and parallel
 * efficiency across a servers x threads sweep of the sharded engine.
 *
 * This is the sweep the sharded fleet engine was built for: thousands
 * of mostly-idle servers advanced in lockstep 200 µs epochs at ~10%
 * aggregate utilization (the energy-proportionality operating point).
 * Every cell also re-checks the determinism contract — the FleetReport
 * CSV row must match the single-threaded row for the same server count
 * byte-for-byte, whatever the thread count and shard layout.
 *
 * Output: human-readable table on stdout, per-cell CSV via
 * APC_BENCH_CSV, and a machine-readable summary at APC_BENCH_JSON
 * (default "BENCH_fleetscale.json") — consumed by CI to validate shape
 * and archive the scaling trajectory.
 *
 * Knobs: APC_BENCH_DURATION_MS (measurement window, default 40),
 * APC_BENCH_MAX_SERVERS (largest grid row, default 4096 — CI smoke
 * caps it to keep runtime in seconds).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/table_printer.h"
#include "bench_common.h"
#include "fleet/fleet_sim.h"

namespace apc {
namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Cell
{
    std::size_t servers = 0;
    unsigned threads = 0;
    std::size_t shardSize = 0;
    std::size_t numShards = 0;
    double wallSec = 0;
    double simSec = 0;
    std::uint64_t events = 0;
    double qps = 0;
    double p99Us = 0;
    // Engine self-profile: wall-clock per pipeline phase and the
    // advance phase's shard imbalance (max/mean shard time).
    double routeSec = 0;
    double advanceSec = 0;
    double mergeSec = 0;
    double imbalance = 1.0;
    std::string csvRow; ///< determinism cross-check payload
    double eventsPerSec() const
    {
        return wallSec > 0 ? static_cast<double>(events) / wallSec : 0;
    }
};

fleet::FleetConfig
scaleConfig(std::size_t servers, unsigned threads)
{
    fleet::FleetConfig fc;
    fc.numServers = servers;
    fc.policy = soc::PackagePolicy::Cpc1a;
    fc.workload = workload::WorkloadConfig::memcachedEtc(0);
    fc.dispatch = fleet::DispatchKind::LeastOutstanding;
    fc.traffic.arrivalKind = workload::ArrivalKind::Poisson;
    const int fleet_cores = static_cast<int>(servers) *
        soc::SkxConfig::forPolicy(fc.policy).numCores;
    fc.traffic.qps = fc.workload.qpsForUtilization(0.10, fleet_cores);
    fc.sloUs = 10000.0;
    fc.warmup = 10 * sim::kMs;
    fc.duration = bench::benchDuration(40 * sim::kMs);
    fc.seed = 42;
    fc.threads = threads;
    return fc;
}

Cell
runCell(std::size_t servers, unsigned threads)
{
    Cell c;
    c.servers = servers;
    c.threads = threads;
    fleet::FleetConfig fc = scaleConfig(servers, threads);
    c.simSec = sim::toSeconds(fc.warmup + fc.duration);
    fleet::FleetSim fleet(fc);
    c.shardSize = fleet.shards().shardSize;
    c.numShards = fleet.shards().numShards;
    const auto t0 = Clock::now();
    const fleet::FleetReport rep = fleet.run();
    c.wallSec = secondsSince(t0);
    for (std::size_t i = 0; i < fleet.numServers(); ++i)
        c.events += fleet.server(i).sim().events().executedEvents();
    c.qps = rep.achievedQps;
    c.p99Us = rep.p99LatencyUs;
    using Phase = obs::PhaseProfiler::Phase;
    c.routeSec = fleet.profiler().totalSec(Phase::Route);
    c.advanceSec = fleet.profiler().totalSec(Phase::Advance);
    c.mergeSec = fleet.profiler().totalSec(Phase::Merge);
    c.imbalance = fleet.profiler().shardImbalance();
    c.csvRow = rep.csvRow();
    return c;
}

bool
writeJson(const char *path, const std::vector<Cell> &grid,
          bool deterministic)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return false;
    }
    bool ok = true;
    const auto put = [f, &ok](const char *fmt, auto... args) {
        if (std::fprintf(f, fmt, args...) < 0)
            ok = false;
    };
    put("{\n  \"bench\": \"fleet_scale\",\n");
    put("  \"schema_version\": %d,\n", bench::kBenchJsonSchemaVersion);
    put("  \"engine\": \"sharded\",\n");
    put("  \"deterministic_across_grid\": %s,\n",
        deterministic ? "true" : "false");
    put("  \"grid\": [\n");
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const Cell &c = grid[i];
        // speedup/efficiency vs the 1-thread cell of the same row.
        double base = c.wallSec;
        for (const Cell &d : grid)
            if (d.servers == c.servers && d.threads == 1)
                base = d.wallSec;
        const double speedup = c.wallSec > 0 ? base / c.wallSec : 0;
        put("    {\"servers\": %zu, \"threads\": %u, "
            "\"shard_size\": %zu, \"num_shards\": %zu, "
            "\"wall_sec\": %.3f, \"sim_sec\": %.3f, "
            "\"events\": %llu, \"events_per_sec\": %.0f, "
            "\"qps\": %.0f, \"p99_us\": %.1f, "
            "\"route_sec\": %.3f, \"advance_sec\": %.3f, "
            "\"merge_sec\": %.3f, \"shard_imbalance\": %.2f, "
            "\"speedup_vs_1t\": %.2f, "
            "\"parallel_efficiency\": %.2f}%s\n",
            c.servers, c.threads, c.shardSize, c.numShards, c.wallSec,
            c.simSec, static_cast<unsigned long long>(c.events),
            c.eventsPerSec(), c.qps, c.p99Us, c.routeSec, c.advanceSec,
            c.mergeSec, c.imbalance, speedup,
            speedup / static_cast<double>(c.threads),
            i + 1 < grid.size() ? "," : "");
    }
    put("  ]\n}\n");
    if (std::fclose(f) != 0 || !ok) {
        std::fprintf(stderr, "error: writing %s failed\n", path);
        return false;
    }
    std::printf("\nWrote %s\n", path);
    return true;
}

} // namespace
} // namespace apc

int
main()
{
    using namespace apc;
    using analysis::TablePrinter;

    bench::banner("fleet scaling (sharded engine)");

    std::size_t max_servers = 4096;
    if (const char *env = std::getenv("APC_BENCH_MAX_SERVERS"))
        if (const auto v = std::atoll(env); v > 0)
            max_servers = static_cast<std::size_t>(v);

    std::vector<std::size_t> server_counts;
    for (std::size_t s = 256; s <= max_servers; s *= 4)
        server_counts.push_back(s);
    if (server_counts.empty())
        server_counts.push_back(max_servers);
    const std::vector<unsigned> thread_counts = {1, 2, 4, 8};

    std::FILE *csv = bench::csvSink();
    if (csv)
        std::fprintf(csv,
                     "servers,threads,shard_size,num_shards,wall_sec,"
                     "events,events_per_sec,qps,p99_us,route_sec,"
                     "advance_sec,merge_sec,shard_imbalance\n");

    std::vector<Cell> grid;
    bool deterministic = true;
    TablePrinter t("Fleet scaling grid (10% load, 200 µs epochs)");
    t.header({"Servers", "Threads", "Shards", "Wall (s)", "Mev/s",
              "Speedup", "Eff", "Imbal", "p99 (us)"});
    for (std::size_t servers : server_counts) {
        double base = 0;
        std::string ref_row;
        for (unsigned threads : thread_counts) {
            const Cell c = runCell(servers, threads);
            if (threads == 1) {
                base = c.wallSec;
                ref_row = c.csvRow;
            } else if (c.csvRow != ref_row) {
                deterministic = false;
                std::fprintf(stderr,
                             "DETERMINISM VIOLATION: servers=%zu "
                             "threads=%u report differs from 1-thread "
                             "run\n",
                             servers, threads);
            }
            const double speedup =
                c.wallSec > 0 && base > 0 ? base / c.wallSec : 0;
            t.row({TablePrinter::num(static_cast<double>(servers), 0),
                   TablePrinter::num(threads, 0),
                   TablePrinter::num(static_cast<double>(c.numShards),
                                     0),
                   TablePrinter::num(c.wallSec, 2),
                   TablePrinter::num(c.eventsPerSec() / 1e6, 2),
                   TablePrinter::num(speedup, 2),
                   TablePrinter::num(
                       speedup / static_cast<double>(threads), 2),
                   TablePrinter::num(c.imbalance, 2),
                   TablePrinter::num(c.p99Us, 0)});
            if (csv)
                std::fprintf(csv,
                             "%zu,%u,%zu,%zu,%.3f,%llu,%.0f,%.0f,%.1f,"
                             "%.3f,%.3f,%.3f,%.2f\n",
                             c.servers, c.threads, c.shardSize,
                             c.numShards, c.wallSec,
                             static_cast<unsigned long long>(c.events),
                             c.eventsPerSec(), c.qps, c.p99Us,
                             c.routeSec, c.advanceSec, c.mergeSec,
                             c.imbalance);
            grid.push_back(c);
        }
    }
    t.print();
    std::printf(
        "(speedup/efficiency vs the 1-thread cell of the same row; on "
        "a single-core host threads cannot pay — the interesting "
        "single-core number is events/sec, which the sharded engine "
        "lifts via O(log n) dispatch and bucketed staging)\n"
        "Determinism across the grid: %s\n",
        deterministic ? "OK (reports byte-identical)" : "VIOLATED");
    const bool csv_ok = bench::closeCsv(csv);

    const char *json_path = std::getenv("APC_BENCH_JSON");
    const bool json_ok =
        writeJson(json_path && *json_path ? json_path
                                          : "BENCH_fleetscale.json",
                  grid, deterministic);
    return (deterministic && csv_ok && json_ok) ? 0 : 1;
}
