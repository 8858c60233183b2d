/**
 * @file
 * SoCWatch-style state tracing: run a short Memcached window on the
 * CPC1A system and emit a CSV timeline of its package-state spans
 * (paper Fig. 4), as recorded by the same `obs::Tracer` the fleet
 * exports to Perfetto.
 *
 *   ./state_trace > trace.csv
 */

#include <cstdio>

#include "obs/tracer.h"
#include "server/server_sim.h"

using namespace apc;

int
main()
{
    server::ServerConfig cfg;
    cfg.policy = soc::PackagePolicy::Cpc1a;
    cfg.workload = workload::WorkloadConfig::memcachedEtc(20e3);
    cfg.warmup = 0;
    cfg.duration = 3 * sim::kMs;
    server::ServerSim sim(std::move(cfg));

    obs::TraceConfig tc;
    tc.enabled = true;
    obs::Tracer tracer(tc, 1);
    sim.enableTracing(tracer.writer(0));
    const auto res = sim.run(); // closes the last span too

    std::printf("start_us,dur_us,state\n");
    std::size_t spans = 0;
    for (const obs::Tracer::MergedRecord &m : tracer.merged()) {
        const obs::TraceRecord &r = *m.rec;
        if (r.kind != static_cast<std::uint8_t>(obs::TraceKind::Span) ||
            r.track != static_cast<std::uint8_t>(obs::Track::Power))
            continue;
        std::printf("%.3f,%.3f,%s\n", sim::toMicros(r.ts),
                    sim::toMicros(r.dur), tracer.nameOf(r.name));
        ++spans;
    }

    std::fprintf(stderr,
                 "\n%llu requests, %llu PC1A entries, PC1A residency "
                 "%.1f%%, avg power %.1f W, %zu package-state spans\n",
                 static_cast<unsigned long long>(res.requests),
                 static_cast<unsigned long long>(res.pc1aEntries),
                 100.0 * res.pc1aResidency(), res.totalPowerW(), spans);
    return 0;
}
