/**
 * @file
 * End-to-end server simulation (paper Sec. 6 methodology).
 *
 * Drives a workload against the composed SoC: requests arrive over the
 * NIC link, wait for the fabric (CLM + memory controllers) to be open,
 * are RSS-hashed to a core, wake that core if needed, execute, and
 * respond over the NIC. End-to-end latency adds the constant ~117 µs
 * network round trip the paper reports.
 *
 * This is where APC's transition costs become visible in request latency
 * and where the package residency opportunity (Fig. 6) comes from.
 */

#ifndef APC_SERVER_SERVER_SIM_H
#define APC_SERVER_SERVER_SIM_H

#include <cstdint>
#include <memory>
#include <vector>

#include "cap/power_cap.h"
#include "cpu/pstate.h"
#include "net/nic.h"
#include "obs/attribution.h"
#include "obs/tracer.h"
#include "power/rapl.h"
#include "sim/containers.h"
#include "sim/inline_function.h"
#include "soc/soc.h"
#include "stats/histogram.h"
#include "stats/summary.h"
#include "workload/workload.h"

namespace apc::server {

/**
 * Server lifecycle under fault injection. Healthy servers are `Up`;
 * the fault plan moves them `Up -> Down -> Restarting -> Up` (crash)
 * or `Up -> Draining -> Restarting -> Up` (graceful drain+restart).
 * Only an `Up` server admits new requests; a crash destroys every
 * in-flight request (reported as an `End::Abort` — work is never
 * silently vanished), while a drain lets outstanding work complete and
 * the package descend through its PC states as the queues empty.
 */
enum class Lifecycle : std::uint8_t
{
    Up = 0,
    Draining,
    Down,
    Restarting,
};

/** How an injected request left its server (ServerSim::EndFn). */
enum class End : std::uint8_t
{
    Completion, ///< served; the response left the server
    Drop,       ///< tail-dropped by the NIC RX ring on arrival
    /** Destroyed by a crash, or refused on arrival by a non-Up
     *  server: the fleet counts the loss and fails the request over. */
    Abort,
};

inline constexpr std::size_t kNumEnds = 3;

/**
 * Dual-socket (NUMA) extension: a second, otherwise-idle socket serves
 * a fraction of memory accesses over UPI (memory-expansion / far-NUMA
 * usage). Remote traffic punctures the remote socket's package idle
 * state; APC's IO-wake path bounds that cost at nanoseconds where the
 * legacy PC6 would pay tens of microseconds per touch.
 */
struct NumaConfig
{
    bool enabled = false;
    /** Fraction of requests touching remote memory. */
    double remoteFraction = 0.2;
    /** One-way UPI hop latency. */
    sim::Tick upiHop = 140 * sim::kNs;
    /** Remote memory-controller occupancy per touched request. */
    sim::Tick remoteHold = 1 * sim::kUs;
};

/** One simulated run's setup. */
struct ServerConfig
{
    soc::PackagePolicy policy = soc::PackagePolicy::Cshallow;
    workload::WorkloadConfig workload =
        workload::WorkloadConfig::memcachedEtc(10000);
    sim::Tick networkLatency = 117 * sim::kUs; ///< paper Sec. 7.3
    sim::Tick warmup = 20 * sim::kMs;
    sim::Tick duration = 1 * sim::kSec;
    std::uint64_t seed = 42;
    /** Ondemand-style DVFS (paper Sec. 8 comparison); off by default,
     *  matching the paper's pinned-frequency configurations. */
    cpu::DvfsConfig dvfs{};
    sim::Tick dvfsInterval = 10 * sim::kMs;
    /** Dual-socket remote-memory extension. */
    NumaConfig numa{};
    /** When set, overrides the policy-derived SoC config (ablations). */
    std::unique_ptr<soc::SkxConfig> skxOverride;
    /**
     * External-dispatch mode: the internal arrival process is not
     * scheduled; requests enter only via ServerSim::inject() (a fleet
     * load balancer drives the server). workload.qps is then only used
     * for wake/coalesce parameters, not arrivals.
     */
    bool externalArrivals = false;

    /**
     * NIC device model. When enabled, arrivals (internal or injected)
     * land in the NIC RX ring and wait for a moderated interrupt whose
     * DMA wakes the PCIe link — and through it the package — instead
     * of touching the wake path per request. Responses leave via NIC
     * TX. The rx-usecs/rx-frames coalescing parameters then supersede
     * the workload's gap-based coalesceWindow heuristic.
     */
    net::NicConfig nic{};

    /**
     * Closed-loop power capping (RAPL limit enforcement). When enabled
     * the server samples its package RAPL counters on the configured
     * cadence and throttles itself — P-state clamp, forced-idle
     * injection, or both — to hold cap.limitW. The limit can be
     * retargeted at runtime via setPowerLimit() (fleet budget
     * allocation, breaker trips).
     */
    cap::CapConfig cap{};
};

/** Aggregated metrics from one run. */
struct ServerResult
{
    std::uint64_t requests = 0;
    double achievedQps = 0.0;

    // Power (RAPL-style averages over the measurement window).
    double pkgPowerW = 0.0;
    double dramPowerW = 0.0;
    double totalPowerW() const { return pkgPowerW + dramPowerW; }

    // End-to-end latency, microseconds.
    double avgLatencyUs = 0.0;
    double p50LatencyUs = 0.0;
    double p95LatencyUs = 0.0;
    double p99LatencyUs = 0.0;
    double maxLatencyUs = 0.0;

    // Package-state residency fractions.
    std::array<double, soc::kNumPkgStates> pkgResidency{};

    // Core C-state residency averaged over cores.
    std::array<double, cpu::kNumCStates> coreResidency{};

    /** Average CC0 fraction — the "processor utilization" the paper
     *  quotes. */
    double utilization = 0.0;

    /** Fraction of time all cores idle simultaneously. */
    double allIdleFraction = 0.0;

    /** Ditto as SoCWatch would see it (≥10 µs periods only): the
     *  paper's "PC1A opportunity" metric (Fig. 6b). */
    double socWatchIdleFraction = 0.0;

    /** Fraction of fully-idle periods with length in [lo, hi) µs. */
    double idlePeriodFraction(double lo_us, double hi_us) const;

    // APC statistics (zero unless the Cpc1a policy ran).
    std::uint64_t pc1aEntries = 0;
    double apmuEntryNsAvg = 0.0;
    double apmuEntryNsMax = 0.0;
    double apmuExitNsAvg = 0.0;
    double apmuExitNsMax = 0.0;

    // Remote socket (only meaningful with NumaConfig::enabled).
    double remotePkgPowerW = 0.0;
    double remoteDramPowerW = 0.0;
    double remotePc1aResidency = 0.0;
    std::uint64_t remoteWakes = 0;

    // Legacy PC6 statistics (Cdeep).
    std::uint64_t pc6Entries = 0;
    double pc6EntryUsAvg = 0.0;
    double pc6ExitUsAvg = 0.0;

    // NIC statistics (zero unless cfg.nic.enabled).
    std::uint64_t nicInterrupts = 0;
    std::uint64_t nicRxPackets = 0;
    std::uint64_t nicRxDrops = 0;
    std::uint64_t nicTxPackets = 0;
    /** NIC device power/energy (Network plane, outside RAPL). */
    double nicPowerW = 0.0;
    double nicEnergyJ = 0.0;
    /** Batch size per interrupt (mergeable across servers). */
    stats::Summary nicPktsPerIrq;
    /** Descriptor wait in the RX ring, µs. */
    stats::Summary nicRingWaitUs;
    /** NIC interrupt -> fabric-ready (package exit included), µs. */
    stats::Summary nicWakeUs;

    // Power capping (zero unless cfg.cap.enabled).
    /** Limit in force when the window closed (0 = uncapped). */
    double capLimitW = 0.0;
    /** Controller's sliding-window package power at collection. */
    double capWindowPowerW = 0.0;
    /** Settled control samples / ones exceeding limit*(1+tol). */
    std::uint64_t capSamples = 0;
    std::uint64_t capViolations = 0;
    /** Mean control authority u over settled samples. */
    double capLevelAvg = 0.0;
    /** Fraction of the window spent admission-gated (idle injection). */
    double capThrottleResidency = 0.0;
    /** Time-weighted compute capacity removed by the P-state clamp:
     *  mean of (1 - f_clamp / f_nominal) over the window. */
    double capDvfsCapacityLoss = 0.0;

    /** Aggregate capping performance loss: fraction of the window's
     *  nominal compute capacity the actuators removed. */
    double
    capPerfLossFraction() const
    {
        const double loss = capThrottleResidency +
            (1.0 - capThrottleResidency) * capDvfsCapacityLoss;
        return loss < 1.0 ? loss : 1.0;
    }

    /** Idle-period length distribution (µs), handed over from the SoC
     *  by ServerSim::collect(); unbinned in a default result. */
    stats::Histogram idlePeriodsUs = stats::Histogram::unbinned();

    /** Full end-to-end latency distribution and running summary (µs) —
     *  mergeable across servers for fleet-level aggregation. The
     *  histogram is handed over like idlePeriodsUs. */
    stats::Histogram latencyHistUs = stats::Histogram::unbinned();
    stats::Summary latencySummary;

    double pc1aResidency() const
    {
        return pkgResidency[static_cast<std::size_t>(soc::PkgState::Pc1a)];
    }
};

/** The server-under-test simulator. */
class ServerSim
{
  public:
    /** Sentinel request id for internally generated arrivals. */
    static constexpr std::uint64_t kNoRequestId = UINT64_MAX;

    /**
     * Called once when an injected request leaves the server, with how
     * it ended (@p how), the request id passed to inject(), the instant
     * on this server's clock, and — with attribution on
     * (enableAttribution()), else null — the latency segments this
     * server measured for the request, valid for the duration of the
     * call (for a refusal, the request leg it arrived with). Runs
     * inside this server's event loop: when a fleet advances servers
     * on worker threads, the hook must only touch state owned by this
     * server (e.g. its shard's staging slot). Inline callable: the hook
     * fires once per request across the whole fleet, so it costs no
     * heap allocation.
     */
    using EndFn =
        sim::InplaceFunction<void(End how, std::uint64_t id, sim::Tick at,
                                  const obs::SegmentSums *segs),
                             32>;

    /**
     * @throws std::invalid_argument for a negative warmup or network
     *         latency, a non-positive duration, a non-positive DVFS
     *         interval with DVFS on, or a NUMA remote fraction outside
     *         [0, 1].
     */
    explicit ServerSim(ServerConfig cfg);
    ~ServerSim();

    /** Run warmup + measurement; collect metrics. With tracing on, the
     *  package-state span open at the end is closed first. */
    ServerResult run();

    // --- phased API (external drivers: fleet load balancers, REPLs) ---

    /**
     * Release cores and schedule background activity (and, unless
     * cfg.externalArrivals, the internal arrival process). Call once
     * before advanceTo()/inject().
     */
    void start();

    /**
     * Start the measurement window at the current simulated time:
     * resets residency stats and latches RAPL counters. run() calls
     * this after cfg.warmup.
     */
    void beginMeasurement();

    /** Advance this server's event loop to absolute time @p t. */
    void advanceTo(sim::Tick t) { sim_.runUntil(t); }

    /**
     * Gather metrics for [beginMeasurement(), now]. Final: the latency
     * and idle-period histograms are handed over to the result, not
     * copied. The server may keep advancing afterwards (a fleet drains
     * its in-flight work), but its histograms record nothing more and
     * the result does not change. Call it once.
     */
    ServerResult collect();

    /**
     * Hand the server one request at the current simulated time (the
     * caller schedules the arrival instant). @p service <= 0 samples
     * the workload's service distribution; a positive value is the
     * dispatcher-determined service demand in ticks. The end hook (if
     * set) fires with @p id when the request leaves the server.
     */
    void inject(std::uint64_t id, sim::Tick service);

    /** Set the end hook for injected requests. */
    void onEnd(EndFn fn) { endFn_ = std::move(fn); }

    // --- fault injection (scheduled from the fleet's route stage) ---

    /** Current lifecycle state. */
    Lifecycle lifecycle() const { return state_; }

    /**
     * Schedule a crash at absolute time @p at: the server goes Down,
     * every in-flight request — RX ring, core queues, on-core work,
     * responses in TX — is destroyed and reported to the end hook as
     * `End::Abort`, and admission is refused until a restart completes. The
     * event runs inside this server's own event loop, so mid-epoch
     * fault instants are honored exactly under parallel advance.
     */
    void scheduleCrash(sim::Tick at);

    /**
     * Schedule a graceful drain at @p at: admission stops (arrivals are
     * refused as `End::Abort`, so the fleet fails them over) but
     * outstanding work runs to completion and the package descends
     * through its PC states as the queues empty.
     */
    void scheduleDrain(sim::Tick at);

    /**
     * Schedule the restart that follows a crash or drain: at @p at the
     * server enters Restarting (still refusing admission) and at
     * @p ready_at it is Up again. The cold package pays its full wake
     * costs on the first post-restart request.
     */
    void scheduleRestart(sim::Tick at, sim::Tick ready_at);

    /** Freeze the NIC moderation unit in [from, to) (NIC mode only):
     *  no interrupts fire, the RX ring fills and tail-drops. */
    void freezeNic(sim::Tick from, sim::Tick to);

    /** Accepted requests destroyed by crashes (never completed). */
    std::uint64_t aborted() const { return aborted_; }

    /** The NIC device; null unless cfg.nic.enabled. */
    net::Nic *nicDevice() { return nic_.get(); }

    /**
     * Retarget the power cap at the current simulated time (no-op
     * without cfg.cap.enabled). Safe to call from a fleet between
     * epochs: the feed-forward actuation applies immediately in this
     * server's event context.
     */
    void setPowerLimit(double watts);

    /** Limit currently enforced; 0 when uncapped or capping is off. */
    double powerLimitW() const;

    /** Controller's sliding-window package power (the fleet budget
     *  allocator's demand signal); 0 without capping. */
    double capPowerW() const;

    /** The cap controller; null unless cfg.cap.enabled. */
    cap::PowerCapController *capController() { return cap_.get(); }

    /**
     * Route this server's telemetry into @p w (call before start()).
     * Installs the writer as the simulation-wide trace sink (NIC
     * events), subscribes package-state tracking, and turns on the
     * request/cap instrumentation. Tracing only appends POD records —
     * it never schedules events or draws randomness, so a traced run's
     * results are identical to an untraced one.
     */
    void enableTracing(obs::TraceWriter *w);

    /**
     * Measure the latency-attribution segments (NIC ring and IRQ hold,
     * wake, queue, gate/DVFS stalls, serve, TX; see obs/attribution.h)
     * of every injected request and hand them back through the end
     * hook. @p writer is the trace
     * writer this server records as (obs::OrderKey). With tracing on,
     * each segment is also written as a span. Pure observation, like
     * tracing.
     */
    void
    enableAttribution(std::uint32_t writer)
    {
        attr_ = true;
        writer_ = writer;
    }

    /**
     * Attribution on: the segments request @p id measured before it
     * reached this server (its request leg). They seed the request's
     * sums when inject() takes it, or ride back with a refusal. Call
     * from the thread that owns this server, before the inject.
     */
    void expect(std::uint64_t id, const obs::SegmentSums &legs);

    /** Visit the sums of every request this server holds or expects
     *  (end of run: replicas still inside a server). */
    template <typename Fn>
    void
    forEachHeld(Fn &&fn) const
    {
        for (const auto &[id, legs] : expected_)
            fn(id, legs);
        for (std::size_t i = 0; i < liveSegs_.size(); ++i)
            fn(liveIds_[i], liveSegs_[i]);
    }

    /** Close the open package-state span (end of run; run() does it
     *  itself, a phased driver calls it). */
    void traceFlush();

    /** Requests handed to the server (injected or internal arrivals). */
    std::uint64_t accepted() const { return accepted_; }

    /** Requests fully served (response sent). */
    std::uint64_t completed() const { return completed_; }

    /** Accepted but not yet completed or destroyed (the LB's
     *  queue-depth signal; drops to zero at a crash). */
    std::uint64_t
    outstanding() const
    {
        return accepted_ - completed_ - aborted_;
    }

    /** The SoC under test (valid after construction). */
    soc::Soc &soc() { return *soc_; }

    /** The remote socket; null unless NUMA is enabled. */
    soc::Soc *remoteSoc() { return remoteSoc_.get(); }

    sim::Simulation &sim() { return sim_; }

    const ServerConfig &config() const { return cfg_; }

  private:
    struct Request
    {
        sim::Tick arrival = 0;
        sim::Tick service = 0;
        std::uint64_t id = kNoRequestId; ///< set for injected requests
        // Attribution boundaries (set at admission; only read when
        // attribution is on).
        sim::Tick admitAt = 0;  ///< fabric open; enters the core queue
        sim::Tick gateBase = 0; ///< gate-closed integral at admission
        /** Server incarnation the request was admitted under; a crash
         *  bumps the incarnation, turning every continuation still in
         *  flight into a ghost that must not complete. */
        std::uint32_t inc = 0;
        bool coalesced = false; ///< arrived within the coalesce window
    };

    struct CoreCtx
    {
        sim::RingFifo<Request> queue;
        /** The core is claimed: by a request from pump() until
         *  finishServe(), or by a kernel task. A crash does not clear
         *  it, so the four serving fields below stay that request's
         *  until finishServe() runs. */
        bool processing = false;
        /** Completions finishServe() still awaits: the local work,
         *  plus a remote memory access under NUMA. */
        int pending = 0;
        Request serving;             ///< the request on the core
        sim::Tick serveStart = 0;    ///< when its service began
        sim::Tick dvfsStall = 0;     ///< its cap-induced DVFS stall
        // DVFS bookkeeping:
        std::size_t pstate = 0;      ///< index into the P-state table
        double slowdown = 1.0;       ///< service-time dilation
        sim::Tick lastCc0Time = 0;   ///< CC0 residency at last sample
    };

    void scheduleNextArrival();
    void onArrival();
    void admit(Request r);
    /** Crash teardown at the current simulated time (see scheduleCrash). */
    void crashNow();
    /** End @p id as a completion unless a crash destroyed it
     *  while the response was still inside the server. */
    void completeInjected(std::uint64_t id);
    /** The expect()ed request leg of @p id, removed (empty if none). */
    obs::SegmentSums takeExpected(std::uint64_t id);
    /** Attribute [@p at, @p at + @p dur) to segment @p s of injected
     *  request @p id (attribution on, @p dur > 0): add it to the
     *  request's sums while the server holds it, and trace it. */
    void segment(std::uint64_t id, obs::Segment s, sim::Tick at,
                 sim::Tick dur);
    /** NIC interrupt batch: shared wake, then per-packet admission. */
    void deliverNicBatch(std::vector<net::Nic::RxPacket> &batch,
                         sim::Tick irq_at);
    void assign(const Request &r);
    void pump(std::size_t idx);
    void serveFront(std::size_t idx, bool was_active);
    /** One of core @p idx's pending completions arrived; the last one
     *  completes the request it serves and frees the core. */
    void finishServe(std::size_t idx);
    /** TX-completion softirq on a core other than @p origin. */
    void scheduleSoftirq(std::size_t origin);
    /** Short kernel-context work (softirq, timer tick) on core @p idx. */
    void runKernelTask(std::size_t idx, sim::Tick work);
    void scheduleTimerTick();
    /** Issue core @p idx's remote memory access chain; it ends in
     *  finishServe(@p idx). */
    void remoteAccess(std::size_t idx);
    /** Periodic ondemand governor evaluation (when DVFS is enabled). */
    void scheduleDvfsSample();
    void recordLatency(sim::Tick end_to_end);
    // --- power capping ---
    /** Periodic RAPL sampling feeding the cap controller. */
    void scheduleCapSample();
    /** Periodic idle-injection cycle (gate for duty * period). */
    void scheduleCapInject();
    /** Push the controller's actuation into clamp/gate state. */
    void applyCapActuation(const cap::CapActuation &act);
    /** Apply min(governor P-state, cap clamp) to core @p idx. */
    void applyCorePower(std::size_t idx);
    /** Restart admission on every core after the gate opens. */
    void pumpAll();
    /** Package state changed to @p s: emit the span of the one left. */
    void tracePkgState(soc::PkgState s);
    /** Monotone closed-gate time integral G(@p t) (attribution). */
    sim::Tick
    gateClosedTotalAt(sim::Tick t) const
    {
        return gatedTotal_ + (capGated_ ? t - gateTotalStart_ : 0);
    }

    ServerConfig cfg_;
    sim::Simulation sim_;
    std::unique_ptr<soc::Soc> soc_;
    std::unique_ptr<soc::Soc> remoteSoc_;
    std::unique_ptr<net::Nic> nic_;
    std::unique_ptr<workload::ArrivalProcess> arrivals_;
    std::unique_ptr<workload::ServiceDist> service_;
    std::vector<CoreCtx> ctx_;
    sim::Tick measureStart_ = 0;
    sim::Tick measureBegan_ = 0; ///< actual beginMeasurement() time
    /** Far in the past so the first arrival never coalesces. */
    sim::Tick lastArrival_ = -(sim::kTickNever / 2);
    std::uint64_t requests_ = 0;
    std::uint64_t accepted_ = 0;
    std::uint64_t completed_ = 0;
    EndFn endFn_;
    // Fault-injection state. All of it is inert (zero-footprint) until
    // a fault is actually scheduled: state_ stays Up, inc_ stays 0, and
    // crashAt_'s sentinel predates every enqueue.
    Lifecycle state_ = Lifecycle::Up;
    std::uint32_t inc_ = 0;     ///< bumped by every crash
    sim::Tick crashAt_ = -1;    ///< last crash instant (-1 = never)
    std::uint64_t aborted_ = 0; ///< accepted requests destroyed
    /** Injected ids currently alive inside the server (ring, queue,
     *  core, TX) — the set a crash must report as destroyed. */
    std::vector<std::uint64_t> liveIds_;
    /** Attribution on: each live id's segment sums, index-parallel to
     *  liveIds_ (empty otherwise). */
    std::vector<obs::SegmentSums> liveSegs_;
    /** Attribution on: request legs of ids not yet injected. */
    std::vector<std::pair<std::uint64_t, obs::SegmentSums>> expected_;
    bool attr_ = false;
    std::uint32_t writer_ = 0; ///< trace writer index (attribution)
    stats::Summary nicWakeUs_;
    double nicEnergy0_ = 0.0; ///< Network-plane energy at measurement start
    // RAPL counters latched at beginMeasurement().
    power::RaplSample pkg0_, dram0_, rpkg0_, rdram0_;
    stats::Summary latencyUs_;
    stats::Histogram latencyHistUs_{0.1, 1e7, 64};
    cpu::PStateTable pstates_ = cpu::PStateTable::skxDefaults();
    // Power capping state.
    std::unique_ptr<cap::PowerCapController> cap_;
    power::RaplSample capPrev_;      ///< last cap-loop RAPL sample
    std::size_t capClamp_ = SIZE_MAX; ///< max P-state index allowed
    double capDuty_ = 0.0;           ///< idle-injection duty in force
    bool capGated_ = false;          ///< admission gate closed
    sim::Tick gateStart_ = 0;
    sim::Tick gatedTime_ = 0;        ///< closed-gate time this window
    /** Monotone closed-gate time integral G(t) since start — never
     *  reset by beginMeasurement(), so the attribution layer can take
     *  exact differences G(t1) - G(t0) across any window. */
    sim::Tick gatedTotal_ = 0;
    sim::Tick gateTotalStart_ = 0; ///< open-interval base for G(t)
    double clampLossRate_ = 0.0;     ///< 1 - f_clamp/f_nom while clamped
    double clampLossIntegral_ = 0.0; ///< ticks * loss rate accumulator
    sim::Tick clampLossSince_ = 0;
    // Telemetry (null/idle unless enableTracing() was called).
    obs::TraceWriter *trace_ = nullptr;
    std::size_t tracePkg_ = 0;      ///< pkg state the open span is in
    sim::Tick tracePkgSince_ = 0;   ///< open pkg-state span start
};

} // namespace apc::server

#endif // APC_SERVER_SERVER_SIM_H
