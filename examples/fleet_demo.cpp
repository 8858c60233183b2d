/**
 * @file
 * Fleet demo: an 8-server cluster behind a load balancer, driven by
 * CDF-table request demands with a diurnal load curve and a slice of
 * fanout (incast) traffic — the datacenter-scale view of the paper's
 * package C-state argument in ~100 lines.
 *
 *   ./fleet_demo
 *
 * Observability knobs (all optional):
 *   APC_TRACE_OUT=<path>    enable span tracing on the PowerAwarePacking
 *                           run and export a Perfetto/Chrome trace JSON
 *   APC_METRICS_OUT=<path>  enable epoch metrics sampling on the same
 *                           run and export the time series as CSV
 *   APC_ATTR_OUT=<path>     enable tail-latency attribution on the same
 *                           run and export the blame report as JSON
 *   APC_HEALTH_OUT=<path>   enable SLO burn-rate alerting + the
 *                           invariant auditor on the same run and export
 *                           the alert log as JSON
 *   APC_BENCH_DURATION_MS=<ms>  shrink the simulated window (CI smoke)
 */

#include <cstdio>
#include <cstdlib>

#include "fleet/fleet_sim.h"
#include "obs/fmt.h"

using namespace apc;

namespace {

fleet::FleetConfig
makeConfig(fleet::DispatchKind kind)
{
    fleet::FleetConfig fc;
    fc.numServers = 8;
    fc.policy = soc::PackagePolicy::Cpc1a;
    fc.workload = workload::WorkloadConfig::kafka(0);
    fc.dispatch = kind;

    // Service demand from a CDF table (TrafficGenerator idiom): mostly
    // ~60 µs events with a heavy 1 ms tail. In a real experiment this
    // comes from CdfTable::fromFile("web_search.txt").
    fc.traffic.serviceCdf = workload::CdfTable::fromString(
        "# service_us  cdf%\n"
        "10   0\n"
        "50   50\n"
        "100  90\n"
        "400  99\n"
        "1000 100\n");
    fc.traffic.cdfUnit = static_cast<double>(sim::kUs);

    // Aggregate ~12% fleet load at the diurnal mean, swinging 0.4x to
    // 1.6x across a (compressed) day.
    fc.traffic.qps = 55000.0;
    fc.traffic.diurnal =
        fleet::DiurnalProfile::dayNight(200 * sim::kMs, 0.4, 1.6);

    // 5% of requests fan out to 8 replicas; completion waits for the
    // slowest (incast tail amplification).
    fc.traffic.fanout = {0.05, 8};

    fc.sloUs = 2000.0;
    fc.duration = 400 * sim::kMs; // two diurnal cycles
    if (const char *env = std::getenv("APC_BENCH_DURATION_MS"))
        if (const auto ms = std::atoll(env); ms > 0)
            fc.duration = ms * sim::kMs;
    return fc;
}

void
report(const char *name, const fleet::FleetReport &r)
{
    std::printf("%-20s %7.1f W  %8.5f J/req  p50 %6.0f us  p99 %6.0f us"
                "  p999 %6.0f us  SLO viol %5.2f%%  PC1A %5.1f%%\n",
                name, r.totalPowerW(), r.joulesPerRequest,
                r.p50LatencyUs, r.p99LatencyUs, r.p999LatencyUs,
                100.0 * r.sloViolationFraction,
                100.0 * r.pc1aResidency());
}

} // namespace

int
main()
{
    std::printf("Fleet demo: 8 x SKX servers (C_PC1A), CDF service "
                "demands, diurnal load, 5%% fanout-8 traffic\n\n");

    const fleet::DispatchKind kinds[] = {
        fleet::DispatchKind::RoundRobin,
        fleet::DispatchKind::LeastOutstanding,
        fleet::DispatchKind::PowerAwarePacking,
    };

    const char *trace_out = std::getenv("APC_TRACE_OUT");
    const char *metrics_out = std::getenv("APC_METRICS_OUT");
    const char *attr_out = std::getenv("APC_ATTR_OUT");
    const char *health_out = std::getenv("APC_HEALTH_OUT");

    bool obs_ok = true;
    fleet::FleetReport reports[3];
    for (int i = 0; i < 3; ++i) {
        auto fc = makeConfig(kinds[i]);
        // Observe the packing run: it is the headline policy and shows
        // the richest trace (cap actuations, packed vs parked servers).
        const bool observed =
            kinds[i] == fleet::DispatchKind::PowerAwarePacking;
        fc.trace.enabled = observed && trace_out && *trace_out;
        fc.metrics.enabled = observed && metrics_out && *metrics_out;
        fc.attribution.enabled = observed && attr_out && *attr_out;
        fc.health.enabled = observed && health_out && *health_out;
        if (fc.health.enabled)
            fc.health.slo.latencyThresholdUs = fc.sloUs;
        if (fc.trace.enabled && fc.attribution.enabled)
            // Traced segment spans are ~10 records per request; give
            // the rings headroom so the exported trace doesn't wrap
            // over a full demo run (the blame report never reads it).
            fc.trace.ringCapacity = std::size_t{1} << 22;
        fleet::FleetSim fleet(fc);
        reports[i] = fleet.run();
        report(fleet::dispatchName(kinds[i]), reports[i]);
        if (fc.trace.enabled) {
            if (fleet.writeTrace(trace_out))
                std::printf("\nWrote Perfetto trace: %s (%llu events, "
                            "%llu dropped)\n",
                            trace_out,
                            static_cast<unsigned long long>(
                                fleet.tracer()->totalRecorded()),
                            static_cast<unsigned long long>(
                                fleet.tracer()->totalDropped()));
            else {
                std::fprintf(stderr, "error: trace export to %s failed\n",
                             trace_out);
                obs_ok = false;
            }
        }
        if (fc.metrics.enabled) {
            if (fleet.writeMetricsCsv(metrics_out))
                std::printf("Wrote metrics CSV: %s (%zu samples x %zu "
                            "series)\n",
                            metrics_out, fleet.metrics()->numSamples(),
                            fleet.metrics()->numSeries());
            else {
                std::fprintf(stderr,
                             "error: metrics export to %s failed\n",
                             metrics_out);
                obs_ok = false;
            }
        }
        if (fc.attribution.enabled) {
            const obs::LatencyAttribution &la = reports[i].attribution;
            if (obs::writeFile(attr_out, [&la](std::FILE *f) {
                    return la.writeJson(f);
                }))
                std::printf("Wrote blame report: %s (%llu requests "
                            "attributed, %llu fanout, tail blame: %s)\n",
                            attr_out,
                            static_cast<unsigned long long>(la.requests),
                            static_cast<unsigned long long>(
                                la.fanoutRequests),
                            obs::segmentName(la.tailDominant()));
            else {
                std::fprintf(stderr,
                             "error: blame export to %s failed\n",
                             attr_out);
                obs_ok = false;
            }
        }
        if (fc.health.enabled) {
            const obs::HealthReport &h = reports[i].health;
            if (fleet.writeAlertsJson(health_out))
                std::printf("Wrote health report: %s (%llu alerts fired, "
                            "%llu resolved, %llu audits / %llu checks, "
                            "%llu violations)\n",
                            health_out,
                            static_cast<unsigned long long>(h.alertsFired),
                            static_cast<unsigned long long>(
                                h.alertsResolved),
                            static_cast<unsigned long long>(h.audits),
                            static_cast<unsigned long long>(h.auditChecks),
                            static_cast<unsigned long long>(
                                h.auditViolations));
            else {
                std::fprintf(stderr,
                             "error: health export to %s failed\n",
                             health_out);
                obs_ok = false;
            }
        }
    }

    const double spread_w = reports[0].totalPowerW();
    const double packed_w = reports[2].totalPowerW();
    std::printf("\nPacking saves %.1f%% fleet power vs round-robin at "
                "this load; per-server breakdown under packing:\n",
                100.0 * (1.0 - packed_w / spread_w));
    for (std::size_t s = 0; s < reports[2].perServer.size(); ++s) {
        const auto &r = reports[2].perServer[s];
        std::printf("  server %zu: %6.1f W, util %5.1f%%, PC1A %5.1f%%, "
                    "%llu reqs\n",
                    s, r.totalPowerW(), 100.0 * r.utilization,
                    100.0 * r.pc1aResidency(),
                    static_cast<unsigned long long>(r.requests));
    }
    return obs_ok ? 0 : 1;
}
