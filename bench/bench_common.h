/**
 * @file
 * Shared helpers for the experiment harnesses in bench/.
 *
 * Each bench binary reproduces one table or figure from the paper and
 * prints the paper-reported value next to the simulator-measured one.
 * Durations are sized for seconds-scale wall-clock runs; set
 * APC_BENCH_DURATION_MS to lengthen/shorten the measurement window.
 */

#ifndef APC_BENCH_BENCH_COMMON_H
#define APC_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "analysis/paper_reference.h"
#include "analysis/table_printer.h"
#include "fleet/fleet_sim.h"
#include "obs/fmt.h"
#include "server/server_sim.h"

namespace apc::bench {

/** Measurement window, overridable via APC_BENCH_DURATION_MS. */
inline sim::Tick
benchDuration(sim::Tick fallback = 300 * sim::kMs)
{
    if (const char *env = std::getenv("APC_BENCH_DURATION_MS"))
        if (const auto ms = std::atoll(env); ms > 0)
            return static_cast<sim::Tick>(ms) * sim::kMs;
    return fallback;
}

/** Run one server experiment (optionally with the ondemand DVFS
 *  governor enabled — the paper's Sec. 8 comparison axis). */
inline server::ServerResult
runServer(soc::PackagePolicy policy, const workload::WorkloadConfig &wl,
          sim::Tick duration = 0, std::uint64_t seed = 42,
          bool dvfs = false)
{
    server::ServerConfig cfg;
    cfg.policy = policy;
    cfg.workload = wl;
    cfg.duration = duration > 0 ? duration : benchDuration();
    cfg.seed = seed;
    cfg.dvfs.enabled = dvfs;
    server::ServerSim sim(std::move(cfg));
    return sim.run();
}

/** Idle-system measurement under a policy (0 QPS, housekeeping only). */
inline server::ServerResult
runIdle(soc::PackagePolicy policy, sim::Tick duration = 100 * sim::kMs)
{
    return runServer(policy, workload::WorkloadConfig::memcachedEtc(0),
                     duration);
}

/**
 * The latency column block every bench used to assemble by hand:
 * "avg | [p95] | p99" for one server result.
 */
inline std::vector<std::string>
latencyCols(const server::ServerResult &r, int prec = 1,
            bool with_p95 = true)
{
    using analysis::TablePrinter;
    std::vector<std::string> cols{TablePrinter::num(r.avgLatencyUs,
                                                    prec)};
    if (with_p95)
        cols.push_back(TablePrinter::num(r.p95LatencyUs, prec));
    cols.push_back(TablePrinter::num(r.p99LatencyUs, prec));
    return cols;
}

/** Append a column block to a row under construction. */
inline void
appendCols(std::vector<std::string> &row, std::vector<std::string> cols)
{
    for (auto &c : cols)
        row.push_back(std::move(c));
}

/** Header labels matching fleetCols(). */
inline std::vector<std::string>
fleetColHeaders()
{
    return {"Fleet W", "J/req", "p99 (us)", "SLO ok", "PC1A res",
            "QPS"};
}

/** The fleet benches' shared metric block. */
inline std::vector<std::string>
fleetCols(const fleet::FleetReport &r)
{
    using analysis::TablePrinter;
    return {TablePrinter::watts(r.totalPowerW()),
            TablePrinter::num(r.joulesPerRequest, 4),
            TablePrinter::num(r.p99LatencyUs, 0),
            r.p99LatencyUs <= r.sloUs ? "yes" : "NO",
            TablePrinter::percent(r.pc1aResidency()),
            TablePrinter::num(r.achievedQps, 0)};
}

/** Schema revision stamped into every BENCH_*.json summary. Bump when
 *  a field is added/renamed so trajectory tooling can gate on it.
 *  v3: health block (alerts_fired/worst_burn/time_in_violation_us/
 *  audit_violations) on capped sweep points + the breaker scenario.
 *  v4: BENCH_churn.json — fault-injection scenario grid with
 *  availability, crash-loss/failover/timeout counters and the
 *  layout-determinism verdict. */
inline constexpr int kBenchJsonSchemaVersion = 4;

/**
 * Turn on tail-latency attribution for a bench fleet run. It is
 * zero-footprint (the report stays byte-identical) and needs no
 * tracing: every answered request is attributed, however long the
 * bench window.
 */
inline void
enableAttribution(fleet::FleetConfig &fc)
{
    fc.attribution.enabled = true;
}

/**
 * Tail blame block for the bench tables: mean above-p99 microseconds
 * charged to two segments of interest, plus the segment dominating
 * tail critical paths overall.
 */
inline std::vector<std::string>
blameCols(const fleet::FleetReport &r, obs::Segment a, obs::Segment b)
{
    using analysis::TablePrinter;
    return {TablePrinter::num(r.attribution.tailMeanUs(a), 1),
            TablePrinter::num(r.attribution.tailMeanUs(b), 1),
            obs::segmentName(r.attribution.tailDominant())};
}

/** CSV fields matching blameCsvCols(). */
inline std::string
blameCsvHeader(obs::Segment a, obs::Segment b)
{
    return std::string("tail_") + obs::segmentName(a) + "_us,tail_" +
        obs::segmentName(b) + "_us,tail_dominant";
}

/** Round-trip-exact CSV row fragment for the blame columns. */
inline std::string
blameCsvCols(const fleet::FleetReport &r, obs::Segment a,
             obs::Segment b)
{
    return std::string(obs::fmtDouble(r.attribution.tailMeanUs(a))
                           .c_str()) +
        "," + obs::fmtDouble(r.attribution.tailMeanUs(b)).c_str() +
        "," + obs::segmentName(r.attribution.tailDominant());
}

/**
 * Turn on fleet health monitoring (obs/health.h) for a bench run: SLO
 * burn-rate alerting plus the epoch-boundary invariant auditor. Same
 * zero-footprint contract as attribution — the headline report bytes
 * do not change — so benches surface alert/audit columns for free.
 */
inline void
enableHealth(fleet::FleetConfig &fc)
{
    fc.health.enabled = true;
}

/** Header labels matching healthCols(). */
inline std::vector<std::string>
healthColHeaders()
{
    return {"alerts", "burn", "viol ms", "audit"};
}

/** Health block for the bench tables: burn-rate alerts fired, worst
 *  sustained burn, sim-time spent in violation, audit violations. */
inline std::vector<std::string>
healthCols(const fleet::FleetReport &r)
{
    using analysis::TablePrinter;
    return {TablePrinter::num(
                static_cast<double>(r.health.alertsFired), 0),
            TablePrinter::num(r.health.worstBurn, 1),
            TablePrinter::num(r.health.timeInViolationUs() / 1000.0, 1),
            TablePrinter::num(
                static_cast<double>(r.health.auditViolations), 0)};
}

/** CSV fields matching healthCsvCols(). */
inline std::string
healthCsvHeader()
{
    return "alerts_fired,worst_burn,time_in_violation_us,"
           "audit_violations";
}

/** Round-trip-exact CSV row fragment for the health columns. */
inline std::string
healthCsvCols(const fleet::FleetReport &r)
{
    return std::to_string(r.health.alertsFired) + "," +
        obs::fmtDouble(r.health.worstBurn).c_str() + "," +
        obs::fmtFixed(r.health.timeInViolationUs(), 3).c_str() + "," +
        std::to_string(r.health.auditViolations);
}

/**
 * Fleet sweep-point setup shared by the fleet benches: N C_PC1A
 * servers under MMPP arrivals sized to the given aggregate load.
 */
inline fleet::FleetConfig
fleetLoadConfig(std::size_t num_servers, fleet::DispatchKind kind,
                double util, workload::WorkloadConfig wl)
{
    fleet::FleetConfig fc;
    fc.numServers = num_servers;
    fc.policy = soc::PackagePolicy::Cpc1a;
    fc.workload = std::move(wl);
    fc.dispatch = kind;
    fc.traffic.arrivalKind = workload::ArrivalKind::Mmpp;
    fc.traffic.burstiness = fc.workload.burstiness;
    fc.traffic.burstMean = fc.workload.burstMean;
    const int fleet_cores = static_cast<int>(num_servers) *
        soc::SkxConfig::forPolicy(fc.policy).numCores;
    fc.traffic.qps = fc.workload.qpsForUtilization(util, fleet_cores);
    fc.sloUs = 10000.0;
    fc.duration = benchDuration(300 * sim::kMs);
    return fc;
}

/**
 * CSV sink named by APC_BENCH_CSV (null when unset): benches append
 * sweep rows there so plots don't scrape stdout. Close with closeCsv()
 * so a full disk surfaces as a failure, not a truncated file.
 */
inline std::FILE *
csvSink()
{
    const char *path = std::getenv("APC_BENCH_CSV");
    return path && *path ? std::fopen(path, "w") : nullptr;
}

/** Flush-and-close a CSV sink, propagating buffered-write failures.
 *  Null is fine (no sink). @return false on IO failure. */
inline bool
closeCsv(std::FILE *csv)
{
    if (!csv)
        return true;
    bool ok = std::fflush(csv) == 0 && !std::ferror(csv);
    if (std::fclose(csv) != 0)
        ok = false;
    if (!ok)
        std::fprintf(stderr, "error: CSV sink write failed\n");
    return ok;
}

/** Banner helper. */
inline void
banner(const char *what)
{
    std::printf("\n############################################"
                "####################\n"
                "# AgilePkgC reproduction — %s\n"
                "############################################"
                "####################\n",
                what);
}

} // namespace apc::bench

#endif // APC_BENCH_BENCH_COMMON_H
