/**
 * @file
 * Multi-server fleet simulation, sharded execution engine.
 *
 * Instantiates N independent ServerSim instances (each with its own
 * event queue and RNG stream) behind a configurable load balancer and
 * drives them with cluster-level traffic in lockstep epochs. The fleet
 * is partitioned into contiguous **shards** of servers; each epoch runs
 * as a pipeline:
 *
 *   1. *Route* (single-threaded): generate the epoch's arrivals
 *      (TrafficSource), pick a server per replica (O(log n) indexed
 *      dispatch), run fabric transit, and bucket the resulting
 *      injections into per-shard staging slots.
 *   2. *Advance* (parallel, one worker per shard): schedule the shard's
 *      staged injections into its servers' event queues, advance the
 *      shard's servers to the epoch end, and stage how each request
 *      ended (completion, NIC drop, abort) — sorted — into the shard's
 *      slot. Slots are cache-line aligned and single-writer, so
 *      workers never contend.
 *   3. *Merge* (single-threaded): per kind of end, in that order,
 *      k-way-merge the sorted shard outputs into one (time, server,
 *      id)-ordered stream and apply it — response fabric transit,
 *      flight completion, client resends of NIC drops, crash aborts.
 *
 * Because routing and merging are single-threaded and the merge order
 * is a total order independent of the partitioning, reports are
 * **bit-identical across any thread count and any shard size** — the
 * invariant every determinism test enforces. The dispatcher sees
 * outstanding counts refreshed at epoch boundaries plus its own
 * in-epoch dispatches — the slightly stale view a real load balancer
 * has of its backends.
 */

#ifndef APC_FLEET_FLEET_SIM_H
#define APC_FLEET_FLEET_SIM_H

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cap/budget.h"
#include "fault/fault.h"
#include "fleet/dispatch.h"
#include "fleet/flight_table.h"
#include "fleet/shard.h"
#include "fleet/thread_pool.h"
#include "fleet/traffic.h"
#include "net/fabric.h"
#include "obs/critpath.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/tracer.h"
#include "server/server_sim.h"

namespace apc::fleet {

/** Fleet-wide run setup. */
struct FleetConfig
{
    /** Server count. */
    std::size_t numServers = 8;

    /**
     * Per-server template: policy, workload (service distribution and
     * wake costs; its qps is ignored — traffic is fleet-driven), NUMA,
     * DVFS. Each server gets a distinct RNG stream derived from seed.
     */
    soc::PackagePolicy policy = soc::PackagePolicy::Cpc1a;
    workload::WorkloadConfig workload =
        workload::WorkloadConfig::memcachedEtc(0);
    sim::Tick networkLatency = 117 * sim::kUs;

    TrafficConfig traffic;
    DispatchKind dispatch = DispatchKind::LeastOutstanding;

    /**
     * Network fabric between the client side and the servers. When
     * enabled, dispatches, fanout replicas and responses ride lossy
     * finite-buffer links instead of teleporting, per-server
     * networkLatency is zeroed (the fabric carries the real delay),
     * and end-to-end latency is measured at client response delivery.
     */
    net::FabricConfig fabric;

    /** Per-server NIC model (normally enabled together with fabric). */
    net::NicConfig nic;
    /** Latency SLO for violation accounting. */
    double sloUs = 1000.0;

    /**
     * Per-server power-capping template (cap.limitW is the standalone
     * per-server limit; under budget allocation the allocator
     * retargets it every budget epoch).
     */
    cap::CapConfig cap;

    /**
     * Fleet-level budget allocation (rack -> server) with
     * oversubscription and breaker-trip emergencies. Enabling it
     * forces per-server capping on.
     */
    cap::BudgetConfig budget;

    sim::Tick warmup = 20 * sim::kMs;
    sim::Tick duration = 300 * sim::kMs;
    /** Dispatch/advance quantum (load-balancer view staleness). */
    sim::Tick epoch = 200 * sim::kUs;
    /** Extra time allowed after @p duration to drain in-flight work. */
    sim::Tick drainLimit = 2 * sim::kSec;

    std::uint64_t seed = 42;
    /** Worker threads for the per-epoch parallel phase; <=1 = inline. */
    unsigned threads = 1;

    /**
     * Span tracing (obs/tracer.h): request lifecycles, package
     * power-state spans, cap/budget actuations, NIC events, exported
     * as Perfetto JSON via writeTrace(). Pure observation: reports are
     * byte-identical with tracing on or off, at any thread count.
     */
    obs::TraceConfig trace;

    /** Time-series metrics sampled at epoch boundaries
     *  (obs/metrics.h); exported via writeMetricsCsv(). */
    obs::MetricsConfig metrics;

    /**
     * Per-request latency attribution (obs/attribution.h): every layer
     * a request crosses adds its segments into the request's record as
     * they happen, and each closed flight folds into the blame report
     * (FleetReport::attribution). Independent of tracing; with tracing
     * on, the segments are also traced as spans. Pure observation,
     * same contract as `trace`: reports are byte-identical with
     * attribution on or off.
     */
    obs::AttributionConfig attribution;

    /**
     * Online fleet health (obs/health.h): SLO burn-rate alerting over
     * rolling sim-time windows plus the epoch-boundary invariant
     * auditor. Same zero-footprint contract as `trace`/`metrics`:
     * the monitor only reads simulation state from single-threaded
     * engine sections, so reports are byte-identical with health on
     * or off and the alert log is invariant across thread counts.
     * `APC_AUDIT_FAILFAST=1` in the environment forces the auditor on
     * in failFast mode (audit-as-sanitizer).
     */
    obs::HealthConfig health;

    /**
     * Deterministic fault injection (fault/fault.h): scripted and
     * stochastic server crashes, drain/restart cycles, link flaps and
     * NIC ring freezes, materialized per epoch from counter-based RNG
     * substreams and applied at the single-threaded route stage — the
     * same fault schedule at any thread count or shard layout. A
     * disabled plan has zero footprint: reports are byte-identical
     * with the subsystem compiled in and off.
     */
    fault::FaultPlanConfig faults;

    /**
     * Client-side graceful degradation (fault/fault.h): per-request
     * timeouts, capped exponential backoff with deterministic
     * per-request jitter, and failover re-dispatch to a server that
     * has not failed this request yet. Applies to single-replica
     * requests; fanout requests keep all-shards-must-answer semantics
     * (a crashed replica is a lost request).
     */
    fault::RecoveryConfig recovery;

    /**
     * Servers per shard; 0 picks one automatically from the thread
     * count (see ShardLayout::make). Results never depend on it — it
     * only tunes the parallelism grain.
     */
    std::size_t shardSize = 0;
};

/** Aggregated fleet metrics. */
struct FleetReport
{
    std::size_t numServers = 0;

    // Request accounting (fleet level: a fanout request counts once).
    std::uint64_t dispatched = 0; ///< requests routed (measurement window)
    std::uint64_t completed = 0;  ///< requests finished (all replicas)
    std::uint64_t inFlightAtEnd = 0;

    // Replica accounting (matches per-server accepted/completed sums).
    std::uint64_t replicasDispatched = 0; ///< whole run, incl. warmup
    std::uint64_t serversAccepted = 0;
    std::uint64_t serversCompleted = 0;
    std::uint64_t serversOutstanding = 0;

    double achievedQps = 0.0;

    // Fleet power over the measurement window.
    double pkgPowerW = 0.0;
    double dramPowerW = 0.0;
    /** NIC devices + fabric links (zero unless net modeling is on). */
    double nicPowerW = 0.0;
    double fabricPowerW = 0.0;
    double netPowerW() const { return nicPowerW + fabricPowerW; }
    double totalPowerW() const
    {
        return pkgPowerW + dramPowerW + netPowerW();
    }
    double joulesPerRequest = 0.0;

    // Fleet end-to-end latency (fanout = slowest replica), µs.
    double avgLatencyUs = 0.0;
    double p50LatencyUs = 0.0;
    double p95LatencyUs = 0.0;
    double p99LatencyUs = 0.0;
    double p999LatencyUs = 0.0;
    double maxLatencyUs = 0.0;

    // SLO accounting.
    double sloUs = 0.0;
    std::uint64_t sloViolations = 0;
    double sloViolationFraction = 0.0;

    // Network accounting (fabric/NIC enabled runs only).
    /** Measured requests that never completed (drops beyond retry). */
    std::uint64_t lostRequests = 0;
    /** Measured requests destroyed by injected faults — crashed or
     *  refused replicas, mass-outage dispatch failures, and requests
     *  the client abandoned after exhausting failover attempts. Never
     *  silently vanished: the auditor's conservation law counts them. */
    std::uint64_t lostToCrash = 0;
    /** Successful failover re-dispatches (recovery enabled). */
    std::uint64_t failovers = 0;
    /** Per-attempt client timeouts that fired (recovery enabled). */
    std::uint64_t timeouts = 0;
    /** Client resends: fabric retransmits + NIC ring-drop resends. */
    std::uint64_t netRetransmits = 0;
    std::uint64_t nicInterrupts = 0;
    std::uint64_t nicRxDrops = 0;
    /** Pooled per-interrupt batch size across all NICs. */
    stats::Summary nicPktsPerIrq;
    /** Pooled NIC-wake -> fabric-ready latency (µs). */
    stats::Summary nicWakeUs;
    /** Per-link counter sums (conservation: enqueued = delivered +
     *  dropped, exactly). */
    net::FabricStats fabricStats;

    // Power capping / budget accounting (zero unless capping ran).
    bool capEnabled = false;
    /** Rack budget before breaker derating (budget allocation only). */
    double rackBudgetW = 0.0;
    double oversubscription = 0.0;
    /** Mean fleet demand / rack budget over measured epochs. */
    double budgetUtilization = 0.0;
    /** Summed settled control samples and violations across servers. */
    std::uint64_t capSamples = 0;
    std::uint64_t capViolations = 0;
    double
    capViolationRate() const
    {
        return capSamples
            ? static_cast<double>(capViolations) /
                static_cast<double>(capSamples)
            : 0.0;
    }
    /** Fleet-average idle-injection gate residency. */
    double capThrottleResidency = 0.0;
    /** Fleet-average compute capacity removed by the actuators. */
    double capPerfLoss = 0.0;
    /** Allocation epochs where floors had to be emergency-scaled. */
    std::uint64_t emergencyEpochs = 0;
    /** Per-epoch budget/demand/allocation timeline (budget runs). */
    std::vector<cap::BudgetAllocator::EpochRecord> budgetLog;

    // Fleet-average core utilization and package residency.
    double avgUtilization = 0.0;
    std::array<double, soc::kNumPkgStates> pkgResidency{};

    /** Pooled end-to-end latency distribution (µs). */
    stats::Histogram latencyUs{0.1, 1e7, 64};

    /**
     * Replica-level latency pooled across servers (each server's own
     * view, merged): differs from `latencyUs` in that a fanout request
     * contributes one sample per replica here but a single
     * slowest-replica sample there.
     */
    stats::Histogram replicaLatencyUs{0.1, 1e7, 64};
    stats::Summary replicaLatencySummary;

    /** Fleet-wide idle-period length distribution (µs), merged. */
    stats::Histogram idlePeriodsUs{0.01, 1e7, 32};

    /** Per-server breakdown (index = server id). */
    std::vector<server::ServerResult> perServer;

    // Trace-ring health (zero unless tracing ran). Drops > 0 mean the
    // export is missing the oldest records; raise
    // TraceConfig::ringCapacity. Attribution never reads the rings.
    std::uint64_t traceRecords = 0;
    std::uint64_t traceDrops = 0;

    /** Tail-latency blame report (enabled flag false unless
     *  cfg.attribution.enabled). Deliberately not part of csvRow():
     *  the headline row is the byte-identity reference for the
     *  zero-footprint contract. */
    obs::LatencyAttribution attribution;

    /** Fleet health summary: burn-rate alerts fired/resolved,
     *  sim-time-in-violation, worst burn, audit counters and the alert
     *  log (enabled flag false unless cfg.health.enabled). Outside
     *  csvRow() for the same reason as `attribution`. */
    obs::HealthReport health;

    double
    pc1aResidency() const
    {
        return pkgResidency[static_cast<std::size_t>(soc::PkgState::Pc1a)];
    }

    /** Column names matching csvRow(), comma-separated. */
    static std::string csvHeader();

    /** One comma-separated record of the report's headline metrics. */
    std::string csvRow() const;
};

/** Rack-budget allocation cadence: coarser than the fleet epoch so
 *  the per-server control loops settle between retargets. */
inline constexpr sim::Tick kBudgetEpoch = 10 * sim::kMs;

/** Allocation deltas below this are ignored: limits stay stable under
 *  demand noise, so violation accounting can settle. */
inline constexpr double kBudgetDeadbandW = 1.0;

/** The cluster simulator. */
class FleetSim
{
  public:
    explicit FleetSim(FleetConfig cfg);
    ~FleetSim();

    /** Run warmup + measurement + drain; aggregate the fleet report. */
    FleetReport run();

    std::size_t numServers() const { return servers_.size(); }
    server::ServerSim &server(std::size_t i) { return *servers_[i]; }

    /** The shard partitioning in effect (auto or configured). */
    const ShardLayout &shards() const { return layout_; }

    /** The span tracer; null unless cfg.trace.enabled. */
    obs::Tracer *tracer() { return tracer_.get(); }
    const obs::Tracer *tracer() const { return tracer_.get(); }

    /** The metrics sampler; null unless cfg.metrics.enabled (or its
     *  interval was rejected at setup). */
    obs::MetricsSampler *metrics() { return metrics_.get(); }
    const obs::MetricsSampler *metrics() const { return metrics_.get(); }

    /** Engine wall-clock profile of the last run(). */
    const obs::PhaseProfiler &profiler() const { return profiler_; }

    /** Export the merged trace as Perfetto JSON, with the engine's
     *  wall-clock phase spans. @return false when tracing is off or on
     *  IO failure. */
    bool writeTrace(const std::string &path) const;

    /** Export the sampled metrics series. @return false when metrics
     *  are off or on IO failure. */
    bool writeMetricsCsv(const std::string &path) const;

    /** Export the health alert log as JSON. @return false when health
     *  is off or on IO failure. */
    bool writeAlertsJson(const std::string &path) const;

  private:
    static constexpr std::uint32_t kNoExtras = UINT32_MAX;

    /**
     * One client request, from its arrival until every routed replica
     * has drained. One cache line: the merge looks a flight up per
     * completion. The rarely used history lives in FlightExtras.
     */
    struct alignas(64) Flight
    {
        // C++17 bit-fields take no default member initializers.
        Flight()
            : measured(false), resolved(false), answered(false),
              lost(false), crashLoss(false), failover(false),
              retryPending(false)
        {
        }

        sim::Tick arrival = 0;
        sim::Tick service = 0; ///< dispatcher-chosen demand (resends)
        /** Slowest replica completion so far, frozen at resolution: an
         *  answered flight's latency is lastDone - arrival (plus the
         *  teleport RTT). */
        sim::Tick lastDone = 0;
        sim::Tick attemptAt = 0;  ///< latest dispatch instant
        sim::Tick lastFailAt = 0; ///< latest attempt-failure instant
        int remaining = 0;        ///< replicas still running
        /** Dispatch attempts consumed (recovery bookkeeping). */
        int attempts = 0;
        /** Armed, not-yet-fired entries in the timeout queue. */
        int timeoutsArmed = 0;
        std::uint32_t curSrv = 0; ///< latest single-replica target
        /** Index of the flight's FlightExtras, or kNoExtras. */
        std::uint32_t extras = kNoExtras;
        bool measured : 1; ///< arrived inside the measurement window
        /**
         * Client outcome (success or loss) already recorded. The
         * flight stays in the table until every routed replica has
         * drained — late responses and crash aborts from superseded
         * attempts land here instead of in an accounting hole.
         */
        bool resolved : 1;
        bool answered : 1; ///< resolved with a response, not a loss
        bool lost : 1;     ///< a replica was dropped beyond retry
        /** A fault caused the loss: crash/refusal abort, mass-outage
         *  dispatch failure, or failover-attempt exhaustion. Splits
         *  lostToCrash from lostRequests at resolution. */
        bool crashLoss : 1;
        /** Recovery on and a single replica: a failed attempt fails
         *  over instead of losing the request. Fixed at creation. */
        bool failover : 1;
        /** A failover re-dispatch is scheduled but not yet routed. */
        bool retryPending : 1;
    };
    static_assert(sizeof(Flight) == 64, "one cache line");

    /** The history only some flights need, kept in a side pool (see
     *  extrasOf) so the common flight never allocates. */
    struct FlightExtras
    {
        /**
         * Per-replica send attempts, keyed by server (fanout replicas
         * land on distinct servers; resends target the same one).
         * Absent entry = one attempt so far. NIC-drop resends only.
         */
        std::vector<std::pair<std::uint32_t, int>> triesBySrv;
        /** Servers whose attempt failed; failover never reuses one. */
        std::vector<std::uint32_t> failedSrv;
        /** Timeout/backoff windows accumulated across attempts; the
         *  whole history is re-attributed to each failover target so
         *  the final server's chain sums from the original dispatch. */
        struct Gap
        {
            sim::Tick at = 0;
            sim::Tick dur = 0;
            bool backoff = false; ///< failover gap vs. timeout wait
        };
        std::vector<Gap> gaps; ///< attribution runs only
        /** Attribution runs only: the sums of replicas that ended while
         *  the flight stayed open. */
        obs::RequestChains chains;

        /** Empty every list, keeping the capacity for the next user. */
        void
        clear()
        {
            triesBySrv.clear();
            failedSrv.clear();
            gaps.clear();
            chains.clear();
        }
    };

    /** Rack->server budget reallocation at a budget-epoch boundary. */
    void allocateBudgets(sim::Tick now);
    /** Phase 1: route the epoch's arrivals into per-shard buckets. */
    void dispatchEpoch(sim::Tick from, sim::Tick to);
    /** Route one replica to @p srv at @p at. @p legs (attribution on)
     *  holds what the replica carries into the send, e.g. a failover
     *  target's gap history; the transit adds to it, and the sums ride
     *  with the replica to its server. @return false if the replica
     *  was lost in the fabric. */
    bool routeReplica(std::uint64_t id, const Flight &fl, sim::Tick at,
                      std::size_t srv, obs::ReplicaSums *legs);
    /** Fabric transit for one replica send; shared by first sends and
     *  NIC-drop resends. @return false if lost, else sets @p deliver
     *  and the RTO share of the transit (@p rto_wait). */
    bool transit(sim::Tick at, std::size_t srv, sim::Tick &deliver,
                 sim::Tick &rto_wait);
    /** Attribute a spine segment of request @p id to the replica whose
     *  sums are @p legs (null when attribution is off: a no-op), and
     *  trace it on the fleet writer (server in `value`). */
    void segment(std::uint64_t id, obs::ReplicaSums *legs, obs::Segment s,
                 sim::Tick at, sim::Tick dur);
    /** The segments of one fabric transit: the RTO wait and the wire
     *  time. */
    void sendSegments(std::uint64_t id, obs::ReplicaSums *legs,
                      sim::Tick at, sim::Tick deliver, sim::Tick rto_wait,
                      bool response);
    /** Schedule one injection directly into @p srv's event queue. */
    void scheduleInject(std::size_t srv, sim::Tick deliver,
                        std::uint64_t id, sim::Tick service);
    /** Phase 2: per shard (parallel) — schedule staged injections,
     *  advance the shard's servers to @p to, sort staged outputs. */
    void advanceShards(sim::Tick to);
    /** Phase 3 merges: apply the staged @p how stream across all
     *  shards in (time, server, id) order; consumed streams are
     *  cleared. */
    template <typename Apply>
    void mergeStaged(server::End how, Apply &&apply);
    void drainCompletions();
    /** Client-side retransmission of NIC ring drops. */
    void drainNicDrops(sim::Tick now_floor);
    /** Merge-phase crash/refusal abort stream: replicas destroyed by
     *  a server crash or refused by a non-Up server. */
    void drainAborts();
    /** Fire due per-attempt timeouts and execute due failover
     *  re-dispatches, in deterministic (time, id) order, floored at
     *  the quiescent epoch edge @p t1. */
    void processRecovery(sim::Tick t1);
    /** Route-stage fault application for the epoch [from, to):
     *  materialize the plan's events, flip server lifecycles, mask the
     *  dispatcher, retarget the budget allocator, and reinsert
     *  recovered servers whose restart completed. */
    void applyFaults(sim::Tick from, sim::Tick to);
    /** Send a single-replica flight's current attempt to the picked
     *  server @p srv at @p at with request-leg sums @p legs; arms its
     *  timeout (failover flights). */
    void sendAttempt(std::uint64_t id, Flight &fl, std::size_t srv,
                     sim::Tick at, obs::ReplicaSums *legs);
    /** Arm the per-attempt client timeout for a just-routed attempt
     *  (failover flights only). */
    void armTimeout(std::uint64_t id, Flight &fl, sim::Tick at);
    /** One dispatch attempt failed at @p at: give the request up
     *  (crash-class loss) or schedule the backoff retry. */
    void failAttempt(std::uint64_t id, Flight &fl, sim::Tick at);
    /**
     * The one replica-outcome rule: a routed replica ended on @p srv
     * at @p at without answering — lost in the fabric, out of NIC
     * resends, or destroyed by a crash (@p crash). The live attempt of
     * an unresolved failover flight with no retry pending fails over,
     * unless the loss is @p silent (a lost response, which the client
     * learns of only from the attempt's timeout). Any other replica
     * counts lost, and the flight finishes once nothing is pending.
     * @p ended carries the replica's attribution sums (or null).
     */
    void replicaFailed(std::uint64_t id, Flight &fl, std::uint32_t srv,
                       sim::Tick at, bool crash, bool silent,
                       const obs::ReplicaSums *ended);
    /** One-time client outcome accounting + request trace record. */
    void resolveFlight(std::uint64_t id, Flight &fl, sim::Tick done,
                       bool lost);
    /** Resolve when nothing can still make progress, then erase the
     *  shell once every routed replica has drained. @p ended is the
     *  attribution sums of a replica that just ended (or null): kept
     *  with the flight while it stays open. */
    void finishFlight(std::uint64_t id, Flight &fl,
                      const obs::ReplicaSums *ended = nullptr);
    /** @p fl's extras, created on first use. */
    FlightExtras &extrasOf(Flight &fl);
    /** @p fl's extras, or null if it never needed any. */
    FlightExtras *
    extrasIfAny(const Flight &fl)
    {
        return fl.extras == kNoExtras ? nullptr : &extras_[fl.extras];
    }
    /** Keep the sums of a replica that ended while @p fl stays open
     *  (attribution on; sums with no segment are not kept). */
    void keepChain(Flight &fl, const obs::ReplicaSums *ended);
    /** Fold a resolved flight's replicas — its kept chains plus
     *  @p ended — into the attribution result. Runs when the shell is
     *  erased, so the replica set is final. */
    void foldAttribution(std::uint64_t id, Flight &fl,
                         const obs::ReplicaSums *ended);
    /** The attribution sums staged with @p ev, or null. */
    obs::ReplicaSums *stagedSums(const StagedEvent &ev);
    /** Parallel per-shard ServerSim::collect into perServerResults_. */
    void collectServers();
    FleetReport aggregate();
    /** Record one metrics row at epoch boundary @p t (single-threaded,
     *  servers quiescent). */
    void sampleMetrics(sim::Tick t);
    /** Feed the health monitor at the quiescent boundary closing the
     *  epoch [t0, t1): SLO window roll + due invariant audits. */
    void healthEpoch(sim::Tick t0, sim::Tick t1);
    /** Gather the auditor's view of the fleet at quiescent @p now
     *  into auditSnap_. */
    const obs::AuditSnapshot &buildAuditSnapshot(sim::Tick now);

    FleetConfig cfg_;
    ShardLayout layout_;
    std::vector<std::unique_ptr<server::ServerSim>> servers_;
    std::unique_ptr<TrafficSource> traffic_;
    Dispatcher dispatcher_;
    std::unique_ptr<net::Fabric> fabric_;
    std::unique_ptr<cap::BudgetAllocator> allocator_;
    sim::Tick nextAllocAt_ = 0;
    ThreadPool pool_;

    // --- fault injection + recovery (null/empty when disabled) ---
    std::unique_ptr<fault::FaultPlan> faultPlan_;
    /** Reused event scratch for FaultPlan::epoch. */
    std::vector<fault::FaultEvent> faultScratch_;
    /** Restarted servers awaiting dispatcher reinsertion at the next
     *  route stage: (ready instant, server). */
    std::vector<std::pair<sim::Tick, std::uint32_t>> pendingUp_;
    /** One armed client timeout (single-replica attempts). */
    struct PendingTimeout
    {
        sim::Tick deadline = 0;
        std::uint64_t id = 0;
        int attempt = 0; ///< stale once the flight moved past it
    };
    /** Armed timeouts in push order, which is deadline order: every
     *  attempt is sent at an arrival or at an epoch edge past all
     *  routed arrivals, and the timeout interval is fixed. */
    sim::RingFifo<PendingTimeout> timeoutQueue_;
    /** Scheduled failover re-dispatches: (due instant, flight id). Not
     *  in due order (backoffs are jittered); few per run. */
    using PendingRetry = std::pair<sim::Tick, std::uint64_t>;
    std::vector<PendingRetry> retryQueue_;
    /** Reused due-batch scratch of processRecovery. */
    std::vector<PendingTimeout> timeoutsDue_;
    std::vector<PendingRetry> retriesDue_;
    std::uint64_t lostToCrash_ = 0;
    std::uint64_t failovers_ = 0;
    std::uint64_t timeoutsFired_ = 0;

    /** Epoch-boundary outstanding counts (dispatcher refresh source). */
    std::vector<std::uint32_t> lbView_;

    /** Per-shard staging slots (stable addresses: server hooks point
     *  into them). */
    std::vector<ShardSlot> slots_;

    /** Reused arrival scratch for TrafficSource::epoch. */
    std::vector<TrafficEvent> trafficScratch_;

    /** Reused k-way-merge cursor heap: (stream, position). */
    using MergeCursor = std::pair<std::vector<StagedEvent> *, std::size_t>;
    std::vector<MergeCursor> mergeScratch_;

    /** Per-server results collected at the end of the measurement
     *  window (before the drain tail, so power windows line up). */
    std::vector<server::ServerResult> perServerResults_;

    /** Live flights by id; endId() is the number created so far. */
    FlightTable<Flight> inFlight_;
    /** Side pool behind Flight::extras. */
    sim::SlotPool<FlightExtras> extras_;
    /** Flights fully resolved (finishFlight calls); with endId() and
     *  inFlight_.size() this is the flight-conservation identity. */
    std::uint64_t flightsFinished_ = 0;

    sim::Tick measureStart_ = 0;
    bool measuring_ = false;
    std::uint64_t dispatched_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t replicasDispatched_ = 0;
    std::uint64_t sloViolations_ = 0;
    std::uint64_t lostRequests_ = 0;
    std::uint64_t netRetransmits_ = 0;
    /** Fabric power latched when the measurement window closes (the
     *  drain tail must not smear the per-window average). */
    double fabricPowerW_ = 0.0;
    stats::Summary latencyUs_;
    stats::Histogram latencyHistUs_{0.1, 1e7, 64};

    // --- telemetry (all pure observers of the simulation) ---
    /** Attribution on: segments accounted, blame report built. */
    bool attr_ = false;
    /** Folded attribution records (attribution on). */
    obs::AttributionResult attribution_;
    /** Spine segments attributed so far: orders same-tick spine
     *  segments as the fleet writer's ring sequence would. */
    std::uint64_t segSeq_ = 0;
    std::unique_ptr<obs::Tracer> tracer_;
    /** Writer 0: fleet-spine events (request spans, budget counters). */
    obs::TraceWriter *fleetTrace_ = nullptr;
    std::unique_ptr<obs::MetricsSampler> metrics_;
    /** Health on: SLO burn-rate monitor and invariant auditor
     *  (obs/health.h). */
    std::optional<obs::SloMonitor> slo_;
    std::optional<obs::Auditor> auditor_;
    /** The auditor's view, rebuilt in place at every audit: its
     *  vectors are sized at construction and keep their capacity. */
    obs::AuditSnapshot auditSnap_;
    /** Budget-allocator log records already audited. */
    std::size_t auditLogPos_ = 0;
    /** Per server: whether the budget epoch that issued its enforced
     *  limit counted it active (budget runs). */
    std::vector<std::uint8_t> grantActive_;
    obs::PhaseProfiler profiler_;
    /** Per-server RAPL counters latched at the previous sample. */
    std::vector<power::RaplSample> metricsPrev_;
    /** Registered series ids (valid when metrics_ is set). */
    struct MetricSeries
    {
        obs::SeriesId fleetPowerW = 0, outstanding = 0, dispatched = 0,
                      completed = 0, retransmits = 0, lost = 0;
        obs::SeriesId fabricEnqueued = 0, fabricDelivered = 0,
                      fabricDropped = 0;
        obs::SeriesId rackBudgetW = 0;
        std::vector<obs::SeriesId> srvPowerW, srvOutstanding,
            srvCapLimitW;
    } series_;
};

} // namespace apc::fleet

#endif // APC_FLEET_FLEET_SIM_H
