/**
 * @file
 * perfbench: the measurement driver of the repository benchmark.
 *
 * Runs one named workload through the simulator's public entry points
 * (the FleetSim constructor and run(), or ServerSim's phased
 * start/advanceTo/beginMeasurement/collect API) back to back, as many
 * times as fill a host-time budget at a fixed nominal speed, checks
 * every report, and prints one JSON object of raw measurements as the
 * last line of stdout. run.py turns
 * those into the benchmark's metrics; README.md explains why each
 * workload exists and which layer each metric watches.
 *
 * Host time is read only here, around calls into the simulator, and
 * never flows back into it: every simulated result is a pure function
 * of the workload and the seed.
 *
 * Usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace]
 *                  [--ablate attribution|health|metrics] [--threads N]
 *                  [--window-ms MS] [--spans PATH]
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/paper_reference.h"
#include "fleet/fleet_sim.h"
#include "fleet/traffic.h"
#include "server/server_sim.h"
#include "soc/skx_config.h"

namespace {

using namespace apc;
using Clock = std::chrono::steady_clock;
using Phase = obs::PhaseProfiler::Phase;

/** Simulated length of one engine epoch and of one phased-API step. */
constexpr sim::Tick kEpoch = 200 * sim::kUs;

/** Set-up-only constructions timed before each measured run. Spread over
 *  the whole invocation, they sample the host's fast and slow phases
 *  alike, so the fastest of them is a steady setup_s. */
constexpr int kSetupsPerRun = 4;

/**
 * Host seconds one run of each workload takes on the reference host
 * (4-vCPU Xeon virtual machine, Release build), rounded up a little so
 * that slow host phases rarely overrun --seconds. The number of runs is
 * fixed from these and --seconds alone, never from the speed being
 * measured, so every commit takes its per-epoch minima over the same
 * number of runs.
 */
struct Nominal
{
    const char *workload;
    double runS;
};
constexpr Nominal kNominalRunS[] = {{"pc1a_low_load", 7.5},
                                    {"spine_high_load", 2.5},
                                    {"observed_fleet", 5.0},
                                    {"paper_fig7", 0.2}};

/** At least two runs, so every seed's digest is checked against a
 *  repetition and every epoch has a minimum over two samples. */
constexpr std::size_t kMinRuns = 2;

/** Benchmark spans kept in memory per invocation; later ones are only
 *  counted. */
constexpr std::size_t kMaxSpans = std::size_t{1} << 17;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** FNV-1a 64 over @p s, continuing from @p h. */
std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ULL)
{
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** SplitMix64 stream derivation, as FleetSim seeds its traffic. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + (stream + 1) * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}
constexpr std::uint64_t kTrafficStream = 0xF1EE7;

/** Round-trip-exact decimal for digests and JSON. */
std::string
exact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * Resident-set high-water of this process image, in MB. VmHWM rather
 * than getrusage's ru_maxrss: Linux carries ru_maxrss across exec, so
 * it would report the launching interpreter's footprint too.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    long kb = 0;
    while (std::fgets(line, sizeof(line), f))
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
            break;
    std::fclose(f);
    return static_cast<double>(kb) / 1024.0;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 0.0; ///< host-time budget for the measured runs
    bool trace = false;
    std::string ablate;   ///< observed_fleet: the observer turned off
    unsigned threads = 0; ///< 0: the workload's own thread count
    double windowMs = 0;  ///< 0: the workload's own window
    std::string spans;    ///< trace: where the span log goes
};

/** Benchmark-side spans: kept in memory, written once at the end. */
class SpanLog
{
  public:
    explicit SpanLog(bool on) : on_(on), anchor_(Clock::now()) {}

    /** Open a span at @p t0; @return its index (or -1 when off/full). */
    long
    open(const char *name, Clock::time_point t0, long parent = -1)
    {
        if (!on_)
            return -1;
        if (spans_.size() >= kMaxSpans) {
            ++dropped_;
            return -1;
        }
        spans_.push_back({name, us(t0), 0.0, parent});
        return static_cast<long>(spans_.size()) - 1;
    }

    void
    close(long idx, Clock::time_point t1)
    {
        if (idx >= 0)
            spans_[static_cast<std::size_t>(idx)].durUs =
                us(t1) - spans_[static_cast<std::size_t>(idx)].startUs;
    }

    std::size_t size() const { return spans_.size(); }
    std::uint64_t dropped() const { return dropped_; }

    /** Chrome trace-event JSON (opens in Perfetto). */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        bool ok = std::fprintf(f, "{\"traceEvents\":[\n") >= 0;
        for (std::size_t i = 0; i < spans_.size() && ok; ++i) {
            const Span &s = spans_[i];
            ok = std::fprintf(f,
                              "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                              "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                              "\"args\":{\"id\":%zu,\"parent\":%ld}}\n",
                              i ? "," : "", s.name, s.startUs, s.durUs, i,
                              s.parent) >= 0;
        }
        ok = ok && std::fprintf(f, "]}\n") >= 0;
        return std::fclose(f) == 0 && ok;
    }

  private:
    struct Span
    {
        const char *name;
        double startUs;
        double durUs;
        long parent;
    };

    double
    us(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - anchor_)
            .count();
    }

    bool on_;
    Clock::time_point anchor_;
    std::vector<Span> spans_;
    std::uint64_t dropped_ = 0;
};

/** One workload run: construction, run, checks, optional census. */
struct Rep
{
    double setupS = 0;
    double runS = 0;
    double simS = 0; ///< simulated seconds advanced (warmup + window)
    std::string digest;
    std::string failure; ///< empty when every check passed
    /** Per-layer census (trace runs), in print order. */
    std::vector<std::pair<std::string, double>> census;
    std::vector<double> shardS;
    /** paper_fig7 model outputs vs the paper (every run). */
    std::vector<std::pair<std::string, double>> fidelity;

    void
    fail(const std::string &why)
    {
        if (failure.empty())
            failure = why;
    }
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Nearest-rank percentile @p q of @p v (sorts it). */
double
percentile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

// ------------------------------------------------------------ workloads

void
windowed(sim::Tick &warmup, sim::Tick &duration, const Args &a)
{
    if (a.windowMs > 0) {
        duration = static_cast<sim::Tick>(a.windowMs * sim::kMs);
        warmup = duration / 4;
    }
}

fleet::FleetConfig
fleetBase(std::size_t servers, double util, const Args &a)
{
    fleet::FleetConfig fc;
    fc.numServers = servers;
    fc.policy = soc::PackagePolicy::Cpc1a;
    fc.workload = workload::WorkloadConfig::memcachedEtc(0);
    fc.dispatch = fleet::DispatchKind::LeastOutstanding;
    fc.traffic.arrivalKind = workload::ArrivalKind::Poisson;
    const int cores = static_cast<int>(servers) *
        soc::SkxConfig::forPolicy(fc.policy).numCores;
    fc.traffic.qps = fc.workload.qpsForUtilization(util, cores);
    fc.sloUs = 10000.0;
    fc.warmup = 10 * sim::kMs;
    fc.duration = 40 * sim::kMs;
    fc.epoch = kEpoch;
    fc.seed = a.seed;
    fc.threads = 1;
    return fc;
}

/** The fleet spine's stress fleet: fabric + NIC, bursty arrivals,
 *  crash churn under client failover. */
fleet::FleetConfig
spineFleet(double util, const Args &a)
{
    fleet::FleetConfig fc = fleetBase(128, util, a);
    fc.traffic.arrivalKind = workload::ArrivalKind::Mmpp;
    fc.traffic.burstiness = fc.workload.burstiness;
    fc.traffic.burstMean = fc.workload.burstMean;
    fc.fabric.enabled = true;
    fc.nic.enabled = true;
    fc.faults.enabled = true;
    fc.faults.crash.ratePerSec = 2.0;
    fc.faults.crash.mttr = 5 * sim::kMs;
    fc.recovery.enabled = true;
    fc.threads = 2;
    return fc;
}

/** @return false for an unknown workload or ablation. */
bool
fleetConfig(const Args &a, fleet::FleetConfig &fc)
{
    if (a.workload == "pc1a_low_load") {
        fc = fleetBase(1024, 0.10, a);
        // 205 epochs (p95 has 10 gaps beyond it), short enough that
        // three runs fit the benchmark's run time.
        fc.warmup = 5 * sim::kMs;
        fc.duration = 36 * sim::kMs;
    } else if (a.workload == "spine_high_load") {
        fc = spineFleet(0.50, a);
        fc.budget.enabled = true;
        fc.budget.oversubscription = 1.3;
        fc.cap.actuator = cap::CapActuator::Hybrid;
    } else if (a.workload == "observed_fleet") {
        // No rack budget: with crash churn, a restarted server keeps its
        // 0 W grant until the next budget epoch while the auditor
        // already counts it active, so budget audits fire falsely.
        fc = spineFleet(0.30, a);
        fc.attribution.enabled = a.ablate != "attribution";
        fc.health.enabled = a.ablate != "health";
        fc.metrics.enabled = a.ablate != "metrics";
        if (!a.ablate.empty() && a.ablate != "attribution" &&
            a.ablate != "health" && a.ablate != "metrics")
            return false;
    } else {
        return false;
    }
    if (!a.ablate.empty() && a.workload != "observed_fleet")
        return false;
    windowed(fc.warmup, fc.duration, a);
    if (a.threads > 0)
        fc.threads = a.threads;
    return true;
}

// ---------------------------------------------------------- fleet runs

void
fleetCensus(fleet::FleetSim &fs, const fleet::FleetReport &rep,
            const fleet::FleetConfig &cfg, Rep &r)
{
    const obs::PhaseProfiler &prof = fs.profiler();
    const double route = prof.totalSec(Phase::Route);
    const double advance = prof.totalSec(Phase::Advance);
    const double merge = prof.totalSec(Phase::Merge);
    const double collect = prof.totalSec(Phase::Collect);

    std::uint64_t events = 0, wheel = 0, heap = 0, pool = 0, compact = 0;
    for (std::size_t i = 0; i < fs.numServers(); ++i) {
        const sim::EventQueue &q = fs.server(i).sim().events();
        events += q.executedEvents();
        wheel += q.wheelScheduled();
        heap += q.heapScheduled();
        pool += q.poolCapacity();
        compact += q.compactions();
    }
    std::uint64_t window_reqs = 0, pc1a = 0;
    for (const server::ServerResult &s : rep.perServer) {
        window_reqs += s.requests;
        pc1a += s.pc1aEntries;
    }
    const auto ev = static_cast<double>(events);
    const auto reqs = static_cast<double>(rep.serversCompleted);
    const auto wreqs = static_cast<double>(window_reqs);

    // Replay the run's traffic stream alone: same config and seed, the
    // same simulated span, pulled one epoch at a time.
    fleet::TrafficSource src(cfg.traffic,
                             mixSeed(cfg.seed, kTrafficStream));
    std::vector<fleet::TrafficEvent> scratch;
    std::uint64_t arrivals = 0;
    const sim::Tick end = cfg.warmup + cfg.duration;
    const auto t0 = Clock::now();
    for (sim::Tick t = 0; t < end;) {
        const sim::Tick t1 = std::min(t + cfg.epoch, end);
        src.epoch(t, t1, scratch);
        arrivals += scratch.size();
        t = t1;
    }
    const double traffic_s = secondsSince(t0);
    // Without fabric loss, faults or fanout every arrival is exactly
    // one routed replica, so the replay must see the same stream.
    if (!cfg.fabric.enabled && !cfg.faults.enabled &&
        arrivals != rep.replicasDispatched)
        r.fail("traffic replay saw " + std::to_string(arrivals) +
               " arrivals, the fleet routed " +
               std::to_string(rep.replicasDispatched));

    const auto &attr = rep.attribution;
    r.census = {
        {"fleet.route_s", route},
        {"fleet.advance_s", advance},
        {"fleet.merge_s", merge},
        {"fleet.collect_s", collect},
        {"fleet.unprofiled_s", r.runS - route - advance - merge - collect},
        {"fleet.shard_imbalance", prof.shardImbalance()},
        {"traffic.epoch_s", traffic_s},
        {"sim.events_per_request", ratio(ev, reqs)},
        {"sim.heap_share", ratio(static_cast<double>(heap),
                                 static_cast<double>(wheel + heap))},
        {"sim.ns_per_event", ratio(advance * 1e9, ev)},
        {"sim.pool_records", static_cast<double>(pool)},
        {"sim.compactions", static_cast<double>(compact)},
        {"server.pc1a_entries_per_request",
         ratio(static_cast<double>(pc1a), wreqs)},
        {"server.host_us_per_request", ratio(advance * 1e6, reqs)},
        {"net.nic_irqs_per_request",
         ratio(static_cast<double>(rep.nicInterrupts), wreqs)},
        {"net.fabric_packets",
         static_cast<double>(rep.fabricStats.enqueued)},
        {"net.retransmits", static_cast<double>(rep.netRetransmits)},
        {"cap.samples", static_cast<double>(rep.capSamples)},
        {"cap.budget_epochs", static_cast<double>(rep.budgetLog.size())},
        {"fault.failovers", static_cast<double>(rep.failovers)},
        {"fault.timeouts", static_cast<double>(rep.timeouts)},
        {"fault.lost_to_crash", static_cast<double>(rep.lostToCrash)},
        {"obs.trace_records", static_cast<double>(rep.traceRecords)},
        {"obs.trace_drops", static_cast<double>(rep.traceDrops)},
        // Attributed share of the requests that answered within the
        // trace (complete chains plus wrap-damaged ones).
        {"obs.attr_coverage",
         ratio(static_cast<double>(attr.requests),
               static_cast<double>(attr.requests + attr.incomplete))},
        {"obs.attr_incomplete", static_cast<double>(attr.incomplete)},
        {"obs.audits", static_cast<double>(rep.health.audits)},
        {"obs.metric_samples",
         fs.metrics() ? static_cast<double>(fs.metrics()->numSamples())
                      : 0.0},
        {"sim.events", ev},
        {"server.requests", reqs},
    };
    r.shardS = prof.shardTimesSec();
}

Rep
runFleet(const fleet::FleetConfig &cfg, const Args &a, SpanLog &spans,
         std::vector<double> &epoch_us)
{
    Rep r;
    const auto t0 = Clock::now();
    const long setup = spans.open("FleetSim()", t0);
    fleet::FleetSim fs(cfg);
    r.setupS = secondsSince(t0);
    const auto t1 = Clock::now();
    spans.close(setup, t1);
    const long run = spans.open("FleetSim::run()", t1);
    const fleet::FleetReport rep = fs.run();
    r.runS = secondsSince(t1);
    spans.close(run, Clock::now());
    r.simS = sim::toSeconds(cfg.warmup + cfg.duration);

    // Host time per epoch: gaps between consecutive route-stage starts,
    // so each gap also holds the epoch's metrics/health/recovery work.
    double prev = -1.0;
    for (const auto &s : fs.profiler().spans()) {
        if (s.phase != Phase::Route)
            continue;
        if (prev >= 0)
            epoch_us.push_back(s.startUs - prev);
        prev = s.startUs;
    }
    if (fs.profiler().droppedSpans() > 0)
        r.fail("engine profiler dropped spans; epoch gaps incomplete");

    r.digest = hex(fnv1a(rep.csvRow()));

    // Request conservation: every measured request completed or was
    // counted lost, and nothing is left in flight after the drain.
    if (rep.dispatched == 0)
        r.fail("no requests dispatched");
    if (rep.inFlightAtEnd != 0 ||
        rep.dispatched !=
            rep.completed + rep.lostRequests + rep.lostToCrash)
        r.fail("request conservation: dispatched " +
               std::to_string(rep.dispatched) + " != completed " +
               std::to_string(rep.completed) + " + lost " +
               std::to_string(rep.lostRequests) + " + lost_to_crash " +
               std::to_string(rep.lostToCrash) + " + in_flight " +
               std::to_string(rep.inFlightAtEnd));
    if (rep.fabricStats.enqueued !=
        rep.fabricStats.delivered + rep.fabricStats.dropped)
        r.fail("fabric packet conservation");
    if (!cfg.fabric.enabled && !cfg.faults.enabled &&
        (rep.replicasDispatched != rep.serversAccepted ||
         rep.serversOutstanding != 0))
        r.fail("replica conservation");
    if (rep.health.auditViolations != 0)
        r.fail(std::to_string(rep.health.auditViolations) +
               " audit violations");
    if (rep.attribution.violations != 0)
        r.fail(std::to_string(rep.attribution.violations) +
               " attribution violations");

    if (a.trace)
        fleetCensus(fs, rep, cfg, r);
    return r;
}

// ------------------------------------------------------ paper_fig7 runs

/** The headline fields of one server result, round-trip exact. */
std::string
headline(const server::ServerResult &s)
{
    return std::to_string(s.requests) + "," + exact(s.pkgPowerW) + "," +
        exact(s.dramPowerW) + "," + exact(s.avgLatencyUs) + "," +
        exact(s.p50LatencyUs) + "," + exact(s.p95LatencyUs) + "," +
        exact(s.p99LatencyUs) + "," + exact(s.maxLatencyUs) + "," +
        exact(s.pc1aResidency()) + "," + exact(s.utilization) + "," +
        std::to_string(s.pc1aEntries) + ";";
}

/** One server of the paper's Fig. 7 comparison. */
struct Fig7Cell
{
    double qps;
    soc::PackagePolicy policy;
};
constexpr Fig7Cell kFig7Cells[] = {{4e3, soc::PackagePolicy::Cshallow},
                                   {4e3, soc::PackagePolicy::Cpc1a},
                                   {50e3, soc::PackagePolicy::Cshallow},
                                   {50e3, soc::PackagePolicy::Cpc1a}};

server::ServerConfig
fig7Config(const Fig7Cell &c, const Args &a)
{
    server::ServerConfig sc;
    sc.policy = c.policy;
    sc.workload = workload::WorkloadConfig::memcachedEtc(c.qps);
    sc.warmup = 20 * sim::kMs;
    sc.duration = 1 * sim::kSec;
    sc.seed = a.seed;
    windowed(sc.warmup, sc.duration, a);
    return sc;
}

/**
 * One server per Fig. 7 cell, each stepped through the phased API one
 * engine epoch at a time (the server's own arrival process drives it).
 */
Rep
runFig7(const Args &a, SpanLog &spans, std::vector<double> &epoch_us)
{
    Rep r;
    server::ServerResult res[std::size(kFig7Cells)];
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    std::uint64_t events = 0, wheel = 0, heap = 0, pool = 0, compact = 0;
    std::uint64_t reqs = 0, window_reqs = 0, pc1a = 0;
    double advance_s = 0;
    for (std::size_t ci = 0; ci < std::size(kFig7Cells); ++ci) {
        server::ServerConfig sc = fig7Config(kFig7Cells[ci], a);
        const sim::Tick warmup = sc.warmup;
        const sim::Tick end = sc.warmup + sc.duration;
        r.simS += sim::toSeconds(end);

        const auto t0 = Clock::now();
        const long setup = spans.open("ServerSim()", t0);
        server::ServerSim s(std::move(sc));
        r.setupS += secondsSince(t0);
        const auto t1 = Clock::now();
        spans.close(setup, t1);
        const long run = spans.open("ServerSim run", t1);
        s.start();
        for (sim::Tick t = 0; t < end;) {
            if (t == warmup)
                s.beginMeasurement();
            t = std::min(t + kEpoch, t < warmup ? warmup : end);
            const auto ts = Clock::now();
            const long step = spans.open("advanceTo", ts, run);
            s.advanceTo(t);
            const auto te = Clock::now();
            spans.close(step, te);
            const double us =
                std::chrono::duration<double, std::micro>(te - ts).count();
            advance_s += us * 1e-6;
            epoch_us.push_back(us);
        }
        res[ci] = s.collect();
        r.runS += secondsSince(t1);
        spans.close(run, Clock::now());

        digest = fnv1a(headline(res[ci]), digest);
        if (res[ci].requests == 0 || !(res[ci].totalPowerW() > 0) ||
            !std::isfinite(res[ci].avgLatencyUs))
            r.fail("empty or non-finite server result");
        if (s.completed() + s.aborted() > s.accepted() ||
            res[ci].requests > s.completed())
            r.fail("server request conservation");
        const sim::EventQueue &q = s.sim().events();
        events += q.executedEvents();
        wheel += q.wheelScheduled();
        heap += q.heapScheduled();
        pool += q.poolCapacity();
        compact += q.compactions();
        reqs += s.completed();
        window_reqs += res[ci].requests;
        pc1a += res[ci].pc1aEntries;
    }
    r.digest = hex(digest);

    namespace ref = analysis::paper;
    const double sav4k =
        1.0 - res[1].totalPowerW() / res[0].totalPowerW();
    const double sav50k =
        1.0 - res[3].totalPowerW() / res[2].totalPowerW();
    const double err_pp =
        100.0 * std::max(std::fabs(sav4k - ref::kPowerSavingsAt4k),
                         std::fabs(sav50k - ref::kPowerSavingsAt50k));
    r.fidelity = {
        {"savings_4k", sav4k},
        {"paper_savings_4k", ref::kPowerSavingsAt4k},
        {"savings_50k", sav50k},
        {"paper_savings_50k", ref::kPowerSavingsAt50k},
        {"pc1a_residency_4k", res[1].pc1aResidency()},
        {"paper_pc1a_residency_4k", ref::kPc1aResidencyAt4k},
        {"pc1a_residency_50k", res[3].pc1aResidency()},
        {"paper_pc1a_residency_50k", ref::kPc1aResidencyAt50k},
        {"paper_savings_err_pp", err_pp},
    };
    if (a.trace) {
        const auto r_all = static_cast<double>(reqs);
        r.census = {
            {"sim.events_per_request",
             ratio(static_cast<double>(events), r_all)},
            {"sim.heap_share", ratio(static_cast<double>(heap),
                                     static_cast<double>(wheel + heap))},
            {"sim.ns_per_event",
             ratio(advance_s * 1e9, static_cast<double>(events))},
            {"sim.pool_records", static_cast<double>(pool)},
            {"sim.compactions", static_cast<double>(compact)},
            {"server.pc1a_entries_per_request",
             ratio(static_cast<double>(pc1a),
                   static_cast<double>(window_reqs))},
            {"server.host_us_per_request", ratio(advance_s * 1e6, r_all)},
            {"analysis.savings_4k", sav4k},
            {"analysis.savings_50k", sav50k},
            {"analysis.paper_savings_err_pp", err_pp},
            {"sim.events", static_cast<double>(events)},
            {"server.requests", r_all},
            {"server.advance_s", advance_s},
        };
    }
    return r;
}

// ---------------------------------------------------------------- main

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--trace") {
            a.trace = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const char *v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v);
        else if (k == "--ablate")
            a.ablate = v;
        else if (k == "--threads")
            a.threads = static_cast<unsigned>(std::atoi(v));
        else if (k == "--window-ms")
            a.windowMs = std::atof(v);
        else if (k == "--spans")
            a.spans = v;
        else
            return false;
    }
    return !a.workload.empty();
}

void
printPairs(const std::vector<std::pair<std::string, double>> &kv)
{
    std::printf("{");
    for (std::size_t i = 0; i < kv.size(); ++i)
        std::printf("%s\"%s\":%s", i ? "," : "", kv[i].first.c_str(),
                    exact(kv[i].second).c_str());
    std::printf("}");
}

/** Runs per invocation: as many as fill --seconds at the nominal
 *  speed, and never fewer than kMinRuns. */
std::size_t
runCount(const Args &a)
{
    for (const Nominal &n : kNominalRunS)
        if (a.workload == n.workload)
            return std::max(kMinRuns,
                            static_cast<std::size_t>(a.seconds / n.runS));
    return kMinRuns;
}

/** @return host seconds to construct the workload's simulators, which
 *  are destroyed after the clock has stopped. */
double
setupOnly(bool fig7, const fleet::FleetConfig &fc, const Args &a)
{
    std::vector<std::unique_ptr<server::ServerSim>> servers;
    std::unique_ptr<fleet::FleetSim> fleet;
    const auto t0 = Clock::now();
    if (fig7) {
        for (const Fig7Cell &c : kFig7Cells)
            servers.push_back(
                std::make_unique<server::ServerSim>(fig7Config(c, a)));
    } else {
        fleet = std::make_unique<fleet::FleetSim>(fc);
    }
    return secondsSince(t0);
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload NAME [--seed N] "
                     "[--seconds S] [--trace] [--ablate OBSERVER] "
                     "[--threads N] [--window-ms MS] [--spans PATH]\n");
        return 2;
    }
    const bool fig7 = a.workload == "paper_fig7";
    fleet::FleetConfig fc;
    if (!fig7 && !fleetConfig(a, fc)) {
        std::fprintf(stderr, "perfbench: unknown workload '%s' or "
                             "ablation '%s'\n",
                     a.workload.c_str(), a.ablate.c_str());
        return 2;
    }

    SpanLog spans(a.trace);
    std::vector<double> setups;

    // Every run of one seed simulates the same epochs with the same
    // work, and host interference only ever adds time. So each epoch
    // keeps its fastest time over the runs, and the undisturbed run is
    // rebuilt from those: a shared host's slow phases (seconds long,
    // ~1.5x) then move the figures far less than any per-run average.
    std::vector<Rep> reps;
    std::vector<double> epoch_us, best_us;
    double best_rest = 0; ///< fastest run time outside the epoch gaps
    double peak_rss = 0;
    const std::size_t n_reps = runCount(a);
    while (reps.size() < n_reps) {
        for (int i = 0; i < kSetupsPerRun; ++i)
            setups.push_back(setupOnly(fig7, fc, a));
        epoch_us.clear();
        reps.push_back(fig7 ? runFig7(a, spans, epoch_us)
                            : runFleet(fc, a, spans, epoch_us));
        Rep &r = reps.back();
        double in_epochs = 0;
        for (const double us : epoch_us)
            in_epochs += us * 1e-6;
        if (reps.size() == 1) {
            best_us = epoch_us;
            best_rest = r.runS - in_epochs;
        } else if (epoch_us.size() != best_us.size()) {
            r.fail("epoch count differs between runs of one seed");
        } else {
            for (std::size_t i = 0; i < best_us.size(); ++i)
                best_us[i] = std::min(best_us[i], epoch_us[i]);
            best_rest = std::min(best_rest, r.runS - in_epochs);
        }
        // The high-water of one set-up plus one run: later runs reuse
        // freed memory unevenly, so their count must not move it.
        if (reps.size() == 1)
            peak_rss = peakRssMb();
    }
    double best_run = best_rest;
    for (const double us : best_us)
        best_run += us * 1e-6;

    for (const Rep &r : reps)
        setups.push_back(r.setupS);

    bool spans_ok = true;
    if (a.trace && !a.spans.empty())
        spans_ok = spans.write(a.spans);

    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"threads\":%u,",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                fig7 ? 1u : fc.threads);
    std::printf("\"setup_s\":[");
    for (std::size_t i = 0; i < setups.size(); ++i)
        std::printf("%s%s", i ? "," : "", exact(setups[i]).c_str());
    std::printf("],\"epochs\":%zu,\"epoch_p50_us\":%s,\"epoch_p95_us\":%s,"
                "\"best_run_s\":%s,",
                best_us.size(), exact(percentile(best_us, 0.50)).c_str(),
                exact(percentile(best_us, 0.95)).c_str(),
                exact(best_run).c_str());
    std::printf("\"peak_rss_mb\":%s,\"spans\":%zu,\"spans_dropped\":%llu,"
                "\"spans_written\":%s,\"reps\":[",
                exact(peak_rss).c_str(), spans.size(),
                static_cast<unsigned long long>(spans.dropped()),
                spans_ok ? "true" : "false");
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const Rep &r = reps[i];
        std::printf("%s{\"run_s\":%s,\"sim_s\":%s,\"digest\":\"%s\","
                    "\"failure\":\"%s\",\"census\":",
                    i ? "," : "", exact(r.runS).c_str(),
                    exact(r.simS).c_str(), r.digest.c_str(),
                    r.failure.c_str());
        printPairs(r.census);
        std::printf(",\"fidelity\":");
        printPairs(r.fidelity);
        std::printf(",\"shard_s\":[");
        for (std::size_t j = 0; j < r.shardS.size(); ++j)
            std::printf("%s%s", j ? "," : "", exact(r.shardS[j]).c_str());
        std::printf("]}");
    }
    std::printf("]}\n");
    return 0;
}
