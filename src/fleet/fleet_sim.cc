#include "fleet/fleet_sim.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <tuple>

#include "obs/fmt.h"
#include "stats/reduce.h"

namespace apc::fleet {

namespace {

/** SplitMix64 step: decorrelates per-server RNG streams. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + (stream + 1) * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/** Leaf width of the report's histogram reduction. A constant (never
 *  the thread or shard count) so the reduction shape — and with it
 *  every merged statistic — is identical for any parallelism. */
constexpr std::size_t kReduceLeaf = 64;

/** PowerAwarePacking's per-server outstanding budget: ~70% of the
 *  cores keeps queueing (and therefore the p99) bounded while still
 *  emptying the rest of the fleet. */
std::uint32_t
packBudget(soc::PackagePolicy policy)
{
    const int cores = soc::SkxConfig::forPolicy(policy).numCores;
    return static_cast<std::uint32_t>(
        std::max(1, static_cast<int>(0.7 * cores)));
}

/** @p cfg, or std::invalid_argument if the engine cannot run it. */
FleetConfig
checked(FleetConfig cfg)
{
    if (cfg.numServers == 0)
        throw std::invalid_argument("FleetConfig: numServers must be > 0");
    if (cfg.epoch <= 0)
        // t1 = t + epoch would never advance the run.
        throw std::invalid_argument("FleetConfig: epoch must be > 0");
    if (cfg.epoch > cfg.warmup + cfg.duration)
        throw std::invalid_argument(
            "FleetConfig: epoch must not exceed warmup + duration");
    if (cfg.trace.enabled && cfg.trace.ringCapacity == 0)
        throw std::invalid_argument(
            "FleetConfig: trace.ringCapacity must be > 0 with tracing on");
    if (cfg.metrics.enabled && cfg.metrics.interval <= 0)
        // due() is `now >= next_`: a non-positive interval would sample
        // every epoch forever.
        throw std::invalid_argument(
            "FleetConfig: metrics.interval must be > 0 with metrics on");
    if (cfg.recovery.enabled) {
        const fault::RecoveryConfig &r = cfg.recovery;
        if (r.requestTimeout <= 0)
            // A deadline at or before its own send would fire the
            // timeout of every attempt on the spot.
            throw std::invalid_argument(
                "FleetConfig: recovery.requestTimeout must be > 0");
        if (r.maxAttempts < 1)
            throw std::invalid_argument(
                "FleetConfig: recovery.maxAttempts must be >= 1");
        if (r.backoffBase < 0)
            throw std::invalid_argument(
                "FleetConfig: recovery.backoffBase must be >= 0");
        if (r.backoffCap < r.backoffBase)
            throw std::invalid_argument(
                "FleetConfig: recovery.backoffCap must be >= backoffBase");
        if (!(r.jitterFrac >= 0.0 && r.jitterFrac < 1.0))
            throw std::invalid_argument(
                "FleetConfig: recovery.jitterFrac must be in [0, 1)");
    }
    if (cfg.faults.enabled) {
        // applyFaults indexes servers_ by entity, and a flap or freeze
        // without its device would only write a trace span.
        const fault::FaultPlanConfig &f = cfg.faults;
        bool flaps = f.flap.ratePerSec > 0.0;
        bool freezes = f.freeze.ratePerSec > 0.0;
        for (const fault::FaultEvent &ev : f.scripted) {
            const bool flap = ev.kind == fault::FaultKind::LinkFlap;
            if (ev.entity >= cfg.numServers &&
                !(flap && ev.entity == fault::kCoreLinkEntity))
                throw std::invalid_argument(
                    "FleetConfig: faults.scripted entity must be a server "
                    "index (or kCoreLinkEntity for a LinkFlap)");
            flaps |= flap;
            freezes |= ev.kind == fault::FaultKind::NicFreeze;
        }
        if (flaps && !cfg.fabric.enabled)
            throw std::invalid_argument(
                "FleetConfig: LinkFlap faults need fabric.enabled");
        if (freezes && !cfg.nic.enabled)
            throw std::invalid_argument(
                "FleetConfig: NicFreeze faults need nic.enabled");
    }
    return cfg;
}

/** Take the entries of @p queue due by @p t1 out of it (into the
 *  scratch @p due) and apply them in @p key order (a tuple led by the
 *  due instant): a canonical firing order, whatever the queueing
 *  order. @return whether any was due. */
template <typename Entry, typename Key, typename Apply>
bool
applyDue(std::vector<Entry> &queue, sim::Tick t1, Key key,
         std::vector<Entry> &due, Apply &&apply)
{
    due.clear();
    std::size_t kept = 0;
    for (const Entry &e : queue) {
        if (std::get<0>(key(e)) <= t1)
            due.push_back(e);
        else
            queue[kept++] = e;
    }
    queue.resize(kept);
    std::sort(due.begin(), due.end(),
              [&key](const Entry &a, const Entry &b) {
                  return key(a) < key(b);
              });
    for (const Entry &e : due)
        apply(e);
    return !due.empty();
}

} // namespace

std::string
FleetReport::csvHeader()
{
    return "num_servers,dispatched,completed,lost,retransmits,"
           "achieved_qps,pkg_w,dram_w,nic_w,fabric_w,total_w,"
           "j_per_req,avg_us,p50_us,p95_us,p99_us,p999_us,max_us,"
           "slo_us,slo_violation_frac,utilization,pc1a_residency,"
           "nic_irqs,nic_rx_drops,pkts_per_irq_avg,"
           "rack_budget_w,budget_util,cap_violation_rate,"
           "cap_throttle_res,cap_perf_loss,emergency_epochs,"
           "lost_crash,failovers";
}

std::string
FleetReport::csvRow() const
{
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "%zu,%llu,%llu,%llu,%llu,%.1f,%.3f,%.3f,%.3f,%.3f,%.3f,"
        "%.6f,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f,%.1f,%.6f,%.4f,%.4f,"
        "%llu,%llu,%.2f,%.2f,%.4f,%.6f,%.4f,%.4f,%llu,%llu,%llu",
        numServers, static_cast<unsigned long long>(dispatched),
        static_cast<unsigned long long>(completed),
        static_cast<unsigned long long>(lostRequests),
        static_cast<unsigned long long>(netRetransmits), achievedQps,
        pkgPowerW, dramPowerW, nicPowerW, fabricPowerW, totalPowerW(),
        joulesPerRequest, avgLatencyUs, p50LatencyUs, p95LatencyUs,
        p99LatencyUs, p999LatencyUs, maxLatencyUs, sloUs,
        sloViolationFraction, avgUtilization, pc1aResidency(),
        static_cast<unsigned long long>(nicInterrupts),
        static_cast<unsigned long long>(nicRxDrops),
        nicPktsPerIrq.mean(), rackBudgetW, budgetUtilization,
        capViolationRate(), capThrottleResidency, capPerfLoss,
        static_cast<unsigned long long>(emergencyEpochs),
        static_cast<unsigned long long>(lostToCrash),
        static_cast<unsigned long long>(failovers));
    return buf;
}

FleetSim::FleetSim(FleetConfig cfg)
    : cfg_(checked(std::move(cfg))),
      layout_(ShardLayout::make(
          cfg_.numServers, cfg_.shardSize,
          std::min<unsigned>(cfg_.threads,
                             static_cast<unsigned>(cfg_.numServers)))),
      dispatcher_(cfg_.dispatch, cfg_.numServers, packBudget(cfg_.policy)),
      pool_(std::min<unsigned>(cfg_.threads,
                               static_cast<unsigned>(cfg_.numServers)))
{
    attr_ = cfg_.attribution.enabled;
    servers_.reserve(cfg_.numServers);
    // Slots are sized once and never reallocated: the server hooks
    // installed below keep raw pointers into this vector.
    slots_ = std::vector<ShardSlot>(layout_.numShards);
    for (std::size_t i = 0; i < cfg_.numServers; ++i) {
        server::ServerConfig sc;
        sc.policy = cfg_.policy;
        sc.workload = cfg_.workload;
        sc.networkLatency =
            cfg_.fabric.enabled ? 0 : cfg_.networkLatency;
        sc.seed = mixSeed(cfg_.seed, i);
        sc.externalArrivals = true;
        sc.nic = cfg_.nic;
        sc.cap = cfg_.cap;
        if (cfg_.budget.enabled)
            sc.cap.enabled = true; // the allocator needs enforcement
        servers_.push_back(
            std::make_unique<server::ServerSim>(std::move(sc)));
        if (attr_)
            // Server i records as trace writer i + 1.
            servers_[i]->enableAttribution(static_cast<std::uint32_t>(i + 1));
        ShardSlot *slot = &slots_[layout_.shardOf(i)];
        const auto srv = static_cast<std::uint32_t>(i);
        // The hook fires inside advanceTo(), i.e. on the worker that
        // owns this slot for the phase — claim the writer role.
        servers_[i]->onEnd([slot, srv](server::End how, std::uint64_t id,
                                       sim::Tick at,
                                       const obs::SegmentSums *segs) {
            sim::RoleGuard own(slot->writer);
            slot->ended[static_cast<std::size_t>(how)].push_back(
                {at, srv, slot->stageSums(srv, segs), id});
        });
    }
    if (cfg_.faults.enabled)
        faultPlan_ = std::make_unique<fault::FaultPlan>(
            cfg_.faults, cfg_.seed, cfg_.numServers);
    // Tracing attaches before the allocator's initial allocation so
    // the first setPowerLimit lands in the trace too.
    if (cfg_.trace.enabled) {
        tracer_ =
            std::make_unique<obs::Tracer>(cfg_.trace, cfg_.numServers + 1);
        fleetTrace_ = tracer_->writer(0);
        tracer_->setEntityLabel(0, "fleet");
        for (std::size_t i = 0; i < servers_.size(); ++i) {
            tracer_->setEntityLabel(i + 1,
                                    "server " + std::to_string(i));
            servers_[i]->enableTracing(tracer_->writer(i + 1));
        }
    }
    if (cfg_.metrics.enabled) {
        metrics_ = std::make_unique<obs::MetricsSampler>(cfg_.metrics);
        series_.fleetPowerW = metrics_->addSeries("fleet.pkg_power_w");
        series_.outstanding = metrics_->addSeries("fleet.outstanding");
        series_.dispatched = metrics_->addSeries("fleet.dispatched");
        series_.completed = metrics_->addSeries("fleet.completed");
        series_.retransmits = metrics_->addSeries("fleet.retransmits");
        series_.lost = metrics_->addSeries("fleet.lost");
        if (cfg_.fabric.enabled) {
            series_.fabricEnqueued =
                metrics_->addSeries("fabric.enqueued");
            series_.fabricDelivered =
                metrics_->addSeries("fabric.delivered");
            series_.fabricDropped =
                metrics_->addSeries("fabric.dropped");
        }
        if (cfg_.budget.enabled)
            series_.rackBudgetW = metrics_->addSeries("rack.budget_w");
        const bool capped = cfg_.cap.enabled || cfg_.budget.enabled;
        for (std::size_t i = 0; i < servers_.size(); ++i) {
            const int e = static_cast<int>(i);
            series_.srvPowerW.push_back(
                metrics_->addSeries("server.power_w", e));
            series_.srvOutstanding.push_back(
                metrics_->addSeries("server.outstanding", e));
            if (capped)
                series_.srvCapLimitW.push_back(
                    metrics_->addSeries("server.cap_limit_w", e));
        }
    }
    // Audit-as-sanitizer: the environment can force the invariant
    // auditor on (failFast) for every fleet run — CI runs the whole
    // test suite this way. Health only reads simulation state, so
    // forcing it on cannot change any result.
    if (const char *env = std::getenv("APC_AUDIT_FAILFAST");
        env && *env && *env != '0') {
        cfg_.health.enabled = true;
        cfg_.health.audit.failFast = true;
    }
    if (cfg_.health.enabled) {
        // The SLO monitor's sample buffers fit the busiest rate.
        const std::vector<DiurnalProfile::Point> &day =
            cfg_.traffic.diurnal.points;
        double peak = day.empty() ? 1.0 : 0.0;
        for (const DiurnalProfile::Point &p : day)
            peak = std::max(peak, p.multiplier);
        slo_.emplace(cfg_.health.slo, cfg_.sloUs, cfg_.epoch,
                     cfg_.traffic.qps * peak);
        auditor_.emplace(cfg_.health.audit);
        slo_->setTrace(fleetTrace_);
        auditor_->setTrace(fleetTrace_);
        // Size the reused snapshot and the auditor's baselines once,
        // so audits allocate nothing during the run.
        const std::size_t n = cfg_.numServers;
        const std::size_t planes = 2 * n; // package + DRAM per server
        auditSnap_.servers.reserve(n);
        auditSnap_.energy.reserve(planes);
        if (cfg_.fabric.enabled)
            auditSnap_.links.reserve(2 * n + 2);
        if (cfg_.budget.enabled) {
            auditSnap_.serverLimitW.reserve(n);
            auditSnap_.grantActive.reserve(n);
        }
        auditor_->reserve(n, planes);
    }
    traffic_ = std::make_unique<TrafficSource>(
        cfg_.traffic, mixSeed(cfg_.seed, 0xF1EE7));
    if (cfg_.fabric.enabled)
        fabric_ = std::make_unique<net::Fabric>(cfg_.fabric,
                                                cfg_.numServers);
    if (cfg_.budget.enabled) {
        allocator_ = std::make_unique<cap::BudgetAllocator>(
            cfg_.budget, cfg_.numServers);
        allocator_->setTrace(fleetTrace_);
        // Initial allocation with zero demand: floors plus an even
        // (weighted) split of the surplus.
        const auto initial = allocator_->allocate(
            0, std::vector<double>(cfg_.numServers, 0.0));
        for (std::size_t i = 0; i < servers_.size(); ++i)
            servers_[i]->setPowerLimit(initial[i]);
        grantActive_.assign(cfg_.numServers, 1);
        nextAllocAt_ = kBudgetEpoch;
    }
    lbView_.assign(cfg_.numServers, 0);
}

FleetSim::~FleetSim() = default;

bool
FleetSim::transit(sim::Tick at, std::size_t srv, sim::Tick &deliver,
                  sim::Tick &rto_wait)
{
    deliver = at;
    rto_wait = 0;
    if (fabric_) {
        const auto tr = fabric_->toServer(at, srv);
        netRetransmits_ += static_cast<std::uint64_t>(tr.retransmits);
        if (tr.lost)
            return false;
        deliver = tr.deliverAt;
        // The fabric accumulates the exact (exponentially backed-off)
        // RTO share of the transit; the remainder is wire time.
        rto_wait = tr.rtoWait;
    }
    return true;
}

void
FleetSim::segment(std::uint64_t id, obs::ReplicaSums *legs,
                  obs::Segment s, sim::Tick at, sim::Tick dur)
{
    if (!legs)
        return;
    if (fleetTrace_)
        fleetTrace_->span(at, dur, obs::segmentTraceName(s),
                          obs::Track::Segments, id,
                          static_cast<double>(legs->srv));
    legs->sums.add(s, at, dur, 0, segSeq_++);
}

void
FleetSim::sendSegments(std::uint64_t id, obs::ReplicaSums *legs,
                       sim::Tick at, sim::Tick deliver, sim::Tick rto_wait,
                       bool response)
{
    if (rto_wait > 0)
        segment(id, legs, obs::Segment::Rto, at, rto_wait);
    const sim::Tick wire = deliver - at - rto_wait;
    if (wire > 0)
        segment(id, legs,
                response ? obs::Segment::XmitResp : obs::Segment::XmitReq,
                at + rto_wait, wire);
}

void
FleetSim::scheduleInject(std::size_t srv, sim::Tick deliver,
                         std::uint64_t id, sim::Tick service)
{
    server::ServerSim *s = servers_[srv].get();
    s->sim().at(deliver, [s, id, service] { s->inject(id, service); });
}

bool
FleetSim::routeReplica(std::uint64_t id, const Flight &fl, sim::Tick at,
                       std::size_t srv, obs::ReplicaSums *legs)
{
    ++replicasDispatched_;
    sim::Tick deliver, rto_wait;
    if (!transit(at, srv, deliver, rto_wait))
        return false;
    if (fabric_) {
        sendSegments(id, legs, at, deliver, rto_wait, false);
    } else if (cfg_.networkLatency > 1) {
        // Teleport mode: the constant RTT stands in for both transits.
        // Split it so request + response halves sum to exactly
        // networkLatency (integer additivity).
        segment(id, legs, obs::Segment::XmitReq, at,
                cfg_.networkLatency / 2);
    }
    {
        // Route stage runs single-threaded before the parallel phase.
        ShardSlot &slot = slots_[layout_.shardOf(srv)];
        sim::RoleGuard own(slot.writer);
        std::uint32_t li = kNoSums;
        if (legs) {
            // The request leg rides with the replica to its server.
            li = static_cast<std::uint32_t>(slot.legs.size());
            slot.legs.push_back(legs->sums);
        }
        slot.injects.push_back({deliver, fl.service,
                                static_cast<std::uint32_t>(srv), li, id});
    }
    return true;
}

void
FleetSim::allocateBudgets(sim::Tick now)
{
    // Demand = each server's sliding-window draw, read single-threaded
    // at the epoch boundary (every server is quiescent at `now`).
    std::vector<double> demand(servers_.size(), 0.0);
    for (std::size_t i = 0; i < servers_.size(); ++i)
        demand[i] = servers_[i]->capPowerW();
    const auto alloc = allocator_->allocate(now, demand);
    for (std::size_t i = 0; i < servers_.size(); ++i) {
        const double cur = servers_[i]->powerLimitW();
        // Deadband damps allocation chatter so the per-server
        // controllers can settle; real cuts (breaker trips, big demand
        // shifts) exceed it by construction.
        if (std::abs(alloc[i] - cur) > kBudgetDeadbandW) {
            servers_[i]->setPowerLimit(alloc[i]);
            grantActive_[i] = allocator_->isActive(i) ? 1 : 0;
        }
    }
}

void
FleetSim::applyFaults(sim::Tick from, sim::Tick to)
{
    if (!faultPlan_)
        return;
    // Recovered servers rejoin the pick set at the first route stage
    // after their restart completed (the lifecycle flipped Up inside
    // the server's own advance). Entries are appended in plan order,
    // so the reinsertion order is layout-invariant.
    if (!pendingUp_.empty()) {
        std::size_t kept = 0;
        for (const auto &pu : pendingUp_) {
            if (pu.first > from) {
                pendingUp_[kept++] = pu;
                continue;
            }
            const std::uint32_t srv = pu.second;
            // A newer fault may have taken the server down again
            // before this reinsertion came due; its own pending entry
            // revives it later.
            if (servers_[srv]->lifecycle() != server::Lifecycle::Up)
                continue;
            dispatcher_.reinsert(
                srv, static_cast<std::uint32_t>(std::min<std::uint64_t>(
                         servers_[srv]->outstanding(), UINT32_MAX)));
            if (allocator_)
                allocator_->setActive(srv, true);
        }
        pendingUp_.resize(kept);
    }
    faultPlan_->epoch(from, to, faultScratch_);
    for (const fault::FaultEvent &ev : faultScratch_) {
        switch (ev.kind) {
        case fault::FaultKind::ServerCrash:
        case fault::FaultKind::ServerDrain: {
            const bool crash = ev.kind == fault::FaultKind::ServerCrash;
            const std::uint32_t srv = ev.entity;
            server::ServerSim &s = *servers_[srv];
            const sim::Tick up_at = ev.at + ev.duration;
            const sim::Tick ready_at = up_at + cfg_.faults.restartCost;
            if (crash)
                s.scheduleCrash(ev.at);
            else
                s.scheduleDrain(ev.at);
            s.scheduleRestart(up_at, ready_at);
            // Removal takes effect for the whole epoch's dispatches:
            // faults apply before routing, at epoch granularity.
            dispatcher_.remove(srv);
            if (allocator_)
                allocator_->setActive(srv, false);
            pendingUp_.push_back({ready_at, srv});
            if (fleetTrace_) {
                fleetTrace_->instant(ev.at,
                                     crash ? obs::Name::SrvCrash
                                           : obs::Name::SrvDrain,
                                     obs::Track::Health, srv);
                fleetTrace_->span(ev.at, ready_at - ev.at,
                                  obs::Name::SrvDown, obs::Track::Health,
                                  srv);
                fleetTrace_->instant(ready_at, obs::Name::SrvRestart,
                                     obs::Track::Health, srv);
            }
            break;
        }
        case fault::FaultKind::LinkFlap:
            // checked(): flaps only run with the fabric on.
            if (ev.entity == fault::kCoreLinkEntity)
                fabric_->flapCore(ev.at, ev.at + ev.duration);
            else
                fabric_->flapServer(ev.entity, ev.at, ev.at + ev.duration);
            if (fleetTrace_)
                fleetTrace_->span(ev.at, ev.duration,
                                  obs::Name::LinkFlap,
                                  obs::Track::Health, ev.entity);
            break;
        case fault::FaultKind::NicFreeze:
            servers_[ev.entity]->freezeNic(ev.at, ev.at + ev.duration);
            if (fleetTrace_)
                fleetTrace_->span(ev.at, ev.duration,
                                  obs::Name::NicFreeze,
                                  obs::Track::Health, ev.entity);
            break;
        case fault::FaultKind::kCount:
            break;
        }
    }
}

void
FleetSim::dispatchEpoch(sim::Tick from, sim::Tick to)
{
    applyFaults(from, to);
    // Fresh backend view at the epoch boundary; in-epoch dispatches are
    // layered on top (onDispatch) as they happen.
    for (std::size_t i = 0; i < servers_.size(); ++i)
        lbView_[i] = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(servers_[i]->outstanding(),
                                    UINT32_MAX));
    dispatcher_.refresh(lbView_);

    traffic_->epoch(from, to, trafficScratch_);
    for (const TrafficEvent &ev : trafficScratch_) {
        const std::uint64_t id = inFlight_.endId();
        Flight &f = inFlight_.emplace();
        f.arrival = ev.at;
        f.service = ev.service;
        f.measured = measuring_ && ev.at >= measureStart_;
        f.failover = cfg_.recovery.enabled && ev.fanout <= 1;
        if (f.measured)
            ++dispatched_;
        if (ev.fanout <= 1) {
            const std::size_t srv = dispatcher_.pick();
            if (srv == Dispatcher::kNone) {
                // Every server is out of the pick set (mass outage):
                // fail the zeroth attempt — recovery backs off and
                // retries, otherwise the request is lost to the fault.
                failAttempt(id, f, ev.at);
            } else {
                f.attempts = 1;
                obs::ReplicaSums legs{static_cast<std::uint32_t>(srv), {}};
                sendAttempt(id, f, srv, ev.at, attr_ ? &legs : nullptr);
            }
            continue;
        }
        // Fanout replicas land on distinct servers (capped at the
        // fleet size): the slowest replica gates completion, and all
        // shards must answer — a destroyed replica is a lost request,
        // not a failover (the shard's data is gone).
        const int replicas =
            std::min<int>(ev.fanout, static_cast<int>(servers_.size()));
        for (int k = 0; k < replicas; ++k) {
            const std::size_t srv = dispatcher_.pick();
            if (srv == Dispatcher::kNone) {
                f.lost = true;
                f.crashLoss = true;
                continue;
            }
            dispatcher_.onDispatch(srv);
            dispatcher_.exclude(srv);
            obs::ReplicaSums legs{static_cast<std::uint32_t>(srv), {}};
            // A replica lost on its way out measured no segment.
            if (routeReplica(id, f, ev.at, srv, attr_ ? &legs : nullptr))
                ++f.remaining;
            else
                f.lost = true;
        }
        dispatcher_.clearExclusions();
        if (f.remaining == 0)
            finishFlight(id, f); // nothing routed (fabric loss / outage)
    }
}

void
FleetSim::advanceShards(sim::Tick to)
{
    const auto sc = profiler_.scope(obs::PhaseProfiler::Phase::Advance);
    pool_.parallelForRanges(
        layout_.numShards,
        [this, to](std::size_t b, std::size_t e) {
            for (std::size_t sh = b; sh < e; ++sh) {
                // Per-shard wall-clock feeds the imbalance metric; one
                // writer per shard index, so no synchronization.
                const auto t0 = obs::PhaseProfiler::Clock::now();
                ShardSlot &slot = slots_[sh];
                // This worker owns the shard for the whole phase.
                sim::RoleGuard own(slot.writer);
                // The last merge consumed every staged event these
                // attribution sums belonged to.
                slot.sums.clear();
                // Scheduling the staged injections here — instead of
                // at route time — pulls each server's event queue into
                // cache exactly once per epoch, right before this same
                // worker advances it.
                for (const PendingInject &pi : slot.injects) {
                    if (pi.legs != kNoSums)
                        servers_[pi.srv]->expect(pi.id, slot.legs[pi.legs]);
                    scheduleInject(pi.srv, pi.deliverAt, pi.id,
                                   pi.service);
                }
                slot.injects.clear();
                slot.legs.clear();
                const std::size_t end = layout_.end(sh);
                for (std::size_t i = layout_.begin(sh); i < end; ++i)
                    servers_[i]->advanceTo(to);
                // Pre-sort the shard's outputs so the single-threaded
                // merge only pays O(m log shards), not a global sort.
                for (std::vector<StagedEvent> &stream : slot.ended)
                    std::sort(stream.begin(), stream.end(), stagedBefore);
                profiler_.addShardTime(
                    sh, std::chrono::duration<double>(
                            obs::PhaseProfiler::Clock::now() - t0)
                            .count());
            }
        });
}

template <typename Apply>
void
FleetSim::mergeStaged(server::End how, Apply &&apply)
{
    // K-way merge of the sorted shard streams into one time-ordered
    // stream: the shared fabric response links (and the flight table)
    // see events in a total order independent of the shard layout —
    // the same (time, server, id) order the pre-shard engine got from
    // globally sorting per-server buffers. The cursor heap is member
    // scratch: a quiet drain (e.g. drops with NIC off, every epoch)
    // costs no allocation at all.
    const auto k = static_cast<std::size_t>(how);
    const auto later = [](const MergeCursor &a, const MergeCursor &b) {
        return stagedBefore((*b.first)[b.second], (*a.first)[a.second]);
    };

    std::vector<MergeCursor> &heap = mergeScratch_;
    heap.clear();
    for (ShardSlot &slot : slots_) {
        // Single-threaded merge: the workers have quiesced, so the
        // drain claims each slot's writer role in turn.
        sim::RoleGuard own(slot.writer);
        if (!slot.ended[k].empty())
            heap.push_back({&slot.ended[k], 0});
    }
    if (heap.empty())
        return;

    if (heap.size() == 1) {
        for (const StagedEvent &ev : *heap[0].first)
            apply(ev);
        heap[0].first->clear();
        return;
    }

    std::make_heap(heap.begin(), heap.end(), later);
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), later);
        MergeCursor &c = heap.back();
        apply((*c.first)[c.second]);
        if (++c.second < c.first->size())
            std::push_heap(heap.begin(), heap.end(), later);
        else {
            c.first->clear();
            heap.pop_back();
        }
    }
}

void
FleetSim::resolveFlight(std::uint64_t id, Flight &fl, sim::Tick done,
                        bool lost)
{
    assert(!fl.resolved);
    fl.resolved = true;
    fl.answered = !lost;
    fl.lastDone = done;
    // End-to-end: winning response at the client. Without a fabric the
    // constant network RTT stands in.
    const sim::Tick e2e =
        done - fl.arrival + (fabric_ ? 0 : cfg_.networkLatency);
    if (fleetTrace_) {
        // Client-observed request lifecycle (warmup included): span to
        // the winning response, or a loss marker.
        if (lost)
            fleetTrace_->instant(fl.arrival, obs::Name::Lost,
                                 obs::Track::Requests, id);
        else
            fleetTrace_->span(fl.arrival, e2e, obs::Name::Request,
                              obs::Track::Requests, id);
    }
    if (fl.measured) {
        if (lost) {
            // A request that never answers the client counts lost and
            // against the SLO; fault-caused losses (crash aborts,
            // refusals, outage dispatch failures, failover exhaustion)
            // are split out so a crash can't hide in drop accounting.
            if (fl.crashLoss)
                ++lostToCrash_;
            else
                ++lostRequests_;
            ++sloViolations_;
            if (slo_)
                slo_->recordLost();
        } else {
            const double us = sim::toMicros(e2e);
            ++completed_;
            latencyUs_.record(us);
            latencyHistUs_.record(us);
            if (us > cfg_.sloUs)
                ++sloViolations_;
            if (slo_)
                slo_->recordLatency(us);
        }
    }
}

FleetSim::FlightExtras &
FleetSim::extrasOf(Flight &fl)
{
    if (fl.extras == kNoExtras)
        fl.extras = extras_.acquire(); // emptied by its last user
    return extras_[fl.extras];
}

void
FleetSim::keepChain(Flight &fl, const obs::ReplicaSums *ended)
{
    if (ended && !ended->sums.empty())
        extrasOf(fl).chains.add(*ended);
}

void
FleetSim::finishFlight(std::uint64_t id, Flight &fl,
                       const obs::ReplicaSums *ended)
{
    // The shell persists until every routed replica delivered or
    // aborted and no retry is scheduled: late responses and crash
    // aborts from superseded attempts must find their flight. (Stale
    // timeout entries look the flight up by id and tolerate absence.)
    if (fl.remaining > 0 || fl.retryPending ||
        (!fl.resolved && fl.timeoutsArmed > 0)) {
        keepChain(fl, ended);
        return;
    }
    if (!fl.resolved)
        resolveFlight(id, fl, fl.lastDone, fl.lost);
    if (attr_)
        foldAttribution(id, fl, ended);
    if (FlightExtras *ex = extrasIfAny(fl)) {
        ex->clear();
        extras_.release(fl.extras);
    }
    ++flightsFinished_;
    inFlight_.erase(id);
}

void
FleetSim::foldAttribution(std::uint64_t id, Flight &fl,
                          const obs::ReplicaSums *ended)
{
    if (!fl.resolved)
        return; // still unanswered at the drain deadline
    // The common flight had one replica, which just ended: fold it
    // straight from its sums, without keeping a chain.
    FlightExtras *ex = extrasIfAny(fl);
    const obs::ReplicaSums *replicas = ex ? ex->chains.data() : nullptr;
    std::size_t n = ex ? ex->chains.size() : 0;
    if (ended && !ended->sums.empty()) {
        if (n == 0) {
            replicas = ended;
            n = 1;
        } else {
            ex->chains.add(*ended);
            replicas = ex->chains.data();
            n = ex->chains.size();
        }
    }
    if (!fl.answered)
        attribution_.lost(n);
    else
        attribution_.answered(
            id, fl.arrival,
            fl.lastDone - fl.arrival + (fabric_ ? 0 : cfg_.networkLatency),
            replicas, n);
}

obs::ReplicaSums *
FleetSim::stagedSums(const StagedEvent &ev)
{
    if (ev.sums == kNoSums)
        return nullptr;
    ShardSlot &slot = slots_[layout_.shardOf(ev.srv)];
    sim::RoleGuard own(slot.writer);
    return &slot.sums[ev.sums];
}

void
FleetSim::sendAttempt(std::uint64_t id, Flight &fl, std::size_t srv,
                      sim::Tick at, obs::ReplicaSums *legs)
{
    dispatcher_.onDispatch(srv);
    fl.curSrv = static_cast<std::uint32_t>(srv);
    fl.attemptAt = at;
    ++fl.remaining;
    if (routeReplica(id, fl, at, srv, legs))
        armTimeout(id, fl, at);
    else
        replicaFailed(id, fl, fl.curSrv, at, false, false, legs);
}

void
FleetSim::armTimeout(std::uint64_t id, Flight &fl, sim::Tick at)
{
    if (!fl.failover)
        return;
    const sim::Tick deadline = at + cfg_.recovery.requestTimeout;
    // Attempts go out at arrivals (in time order) or at an epoch edge
    // past every routed arrival, so the FIFO stays in deadline order.
    assert(timeoutQueue_.empty() ||
           timeoutQueue_.back().deadline <= deadline);
    timeoutQueue_.push({deadline, id, fl.attempts - 1});
    ++fl.timeoutsArmed;
}

void
FleetSim::failAttempt(std::uint64_t id, Flight &fl, sim::Tick at)
{
    if (fl.resolved) {
        finishFlight(id, fl);
        return;
    }
    if (fl.attempts > 0) {
        std::vector<std::uint32_t> &failed = extrasOf(fl).failedSrv;
        if (std::find(failed.begin(), failed.end(), fl.curSrv) ==
            failed.end())
            failed.push_back(fl.curSrv);
    }
    if (!fl.failover || fl.attempts >= cfg_.recovery.maxAttempts) {
        // Out of attempts (or no recovery): the client gives up now.
        // Anything still physically in flight drains into the shell.
        fl.lost = true;
        fl.crashLoss = true;
        resolveFlight(id, fl, at, true);
        finishFlight(id, fl);
        return;
    }
    // Record the abandoned window for the blame report; the whole gap
    // history is re-emitted to each failover target at re-dispatch.
    if (attr_ && fl.attempts > 0 && at > fl.attemptAt)
        extrasOf(fl).gaps.push_back({fl.attemptAt, at - fl.attemptAt,
                                     false});
    fl.lastFailAt = at;
    fl.retryPending = true;
    retryQueue_.push_back(
        {at + fault::backoffDelay(cfg_.recovery, cfg_.seed, id,
                                  std::max(fl.attempts - 1, 0)),
         id});
}

void
FleetSim::replicaFailed(std::uint64_t id, Flight &fl, std::uint32_t srv,
                        sim::Tick at, bool crash, bool silent,
                        const obs::ReplicaSums *ended)
{
    --fl.remaining;
    if (fl.failover && !silent && !fl.resolved && !fl.retryPending &&
        srv == fl.curSrv) {
        keepChain(fl, ended);
        failAttempt(id, fl, at);
        return;
    }
    // A failover flight only resolves through a success or
    // failAttempt, which sets the loss fields itself, so counting a
    // superseded attempt's replica here never reaches a report.
    if (!fl.resolved) {
        fl.lost = true;
        if (crash)
            fl.crashLoss = true;
    }
    finishFlight(id, fl, ended);
}

void
FleetSim::drainAborts()
{
    mergeStaged(server::End::Abort, [this](const StagedEvent &ev) {
        Flight *fl = inFlight_.find(ev.id);
        assert(fl);
        replicaFailed(ev.id, *fl, ev.srv, ev.at, true, false,
                      stagedSums(ev));
    });
}

void
FleetSim::processRecovery(sim::Tick t1)
{
    const auto fireTimeout = [this](const PendingTimeout &pt) {
        Flight *fl = inFlight_.find(pt.id);
        if (!fl)
            return; // shell already drained
        --fl->timeoutsArmed;
        if (fl->resolved || fl->retryPending ||
            pt.attempt != fl->attempts - 1) {
            // Stale: the flight resolved or moved to a newer attempt
            // before this deadline came up.
            finishFlight(pt.id, *fl);
            return;
        }
        ++timeoutsFired_;
        failAttempt(pt.id, *fl, pt.deadline);
    };
    const auto redispatch = [this, t1](const PendingRetry &rt) {
        const std::uint64_t id = rt.second;
        Flight *found = inFlight_.find(id);
        assert(found); // retryPending pins the shell
        Flight &fl = *found;
        fl.retryPending = false;
        // Re-dispatch at the quiescent epoch edge (the servers already
        // advanced past the nominal due instant).
        const sim::Tick at = std::max(rt.first, t1);
        ++fl.attempts;
        // The backoff window closes here even if no server is left: an
        // attempt that finds none fails at once, with no timeout wait.
        if (attr_ && at > fl.lastFailAt)
            extrasOf(fl).gaps.push_back(
                {fl.lastFailAt, at - fl.lastFailAt, true});
        fl.attemptAt = at;
        const FlightExtras *ex = extrasIfAny(fl);
        if (ex)
            for (const std::uint32_t s : ex->failedSrv)
                dispatcher_.exclude(s);
        const std::size_t srv = dispatcher_.pick();
        dispatcher_.clearExclusions();
        if (srv == Dispatcher::kNone) {
            // No server this request hasn't already failed on.
            failAttempt(id, fl, at);
            return;
        }
        ++failovers_;
        // Attribute the full gap history to the new target: its
        // replica chain then sums from the original dispatch, keeping
        // the blame report additive.
        obs::ReplicaSums legs{static_cast<std::uint32_t>(srv), {}};
        obs::ReplicaSums *lp = attr_ ? &legs : nullptr;
        if (ex)
            for (const FlightExtras::Gap &g : ex->gaps)
                segment(id, lp,
                        g.backoff ? obs::Segment::Failover
                                  : obs::Segment::TimeoutWait,
                        g.at, g.dur);
        sendAttempt(id, fl, srv, at, lp);
    };
    const auto timeoutKey = [](const PendingTimeout &pt) {
        return std::tie(pt.deadline, pt.id, pt.attempt);
    };
    // Fixpoint over this epoch: a fired timeout can schedule a retry
    // due before t1, and so can a re-dispatch that fails at once (lost
    // in the fabric, or no server left). A re-dispatch's own timeout
    // is never due yet: it is armed at t1 with a positive interval.
    // Attempts are capped, so each round strictly consumes attempt
    // budget and the loop terminates.
    for (bool progress = true; progress;) {
        takeDue(timeoutQueue_, t1, timeoutKey, timeoutsDue_);
        for (const PendingTimeout &pt : timeoutsDue_)
            fireTimeout(pt);
        progress = applyDue(retryQueue_, t1,
                            [](const PendingRetry &rt) { return rt; },
                            retriesDue_, redispatch) ||
            !timeoutsDue_.empty();
    }
}

void
FleetSim::drainCompletions()
{
    mergeStaged(server::End::Completion, [this](const StagedEvent &ev) {
        Flight *found = inFlight_.find(ev.id);
        assert(found);
        Flight &fl = *found;
        obs::ReplicaSums *legs = stagedSums(ev);
        sim::Tick done = ev.at;
        if (fabric_) {
            const auto tr = fabric_->toClient(ev.at, ev.srv);
            netRetransmits_ +=
                static_cast<std::uint64_t>(tr.retransmits);
            if (tr.lost) {
                // Silent: under failover the armed timeout notices the
                // missing response and drives the failover.
                replicaFailed(ev.id, fl, ev.srv, ev.at, false, true, legs);
                return;
            }
            sendSegments(ev.id, legs, ev.at, tr.deliverAt, tr.rtoWait,
                         true);
            done = tr.deliverAt;
        } else {
            // The response half of the teleport RTT (see routeReplica).
            const sim::Tick resp =
                cfg_.networkLatency - cfg_.networkLatency / 2;
            if (resp > 0)
                segment(ev.id, legs, obs::Segment::XmitResp, ev.at, resp);
        }
        // First successful response resolves a failover flight
        // immediately — even one from a timed-out attempt that beat
        // its own failover (the client takes whichever answer lands
        // first; the accounting happens exactly once).
        if (!fl.resolved) {
            fl.lastDone = std::max(fl.lastDone, done);
            if (fl.failover)
                resolveFlight(ev.id, fl, done, false);
        }
        --fl.remaining;
        finishFlight(ev.id, fl, legs);
    });
}

void
FleetSim::drainNicDrops(sim::Tick now_floor)
{
    mergeStaged(server::End::Drop, [this,
                                     now_floor](const StagedEvent &ev) {
        Flight *found = inFlight_.find(ev.id);
        assert(found);
        Flight &fl = *found;
        // The dropped replica's sums ride on with its resend.
        obs::ReplicaSums *legs = stagedSums(ev);
        // This replica's attempt count (missing entry = the first send
        // already happened).
        auto &tries = extrasOf(fl).triesBySrv;
        auto entry = std::find_if(
            tries.begin(), tries.end(),
            [&ev](const auto &e) { return e.first == ev.srv; });
        if (entry == tries.end()) {
            tries.emplace_back(ev.srv, 1);
            entry = tries.end() - 1;
        }
        if (entry->second < cfg_.fabric.maxTries) {
            // Client resend of the tail-dropped replica to the same
            // server after the RTO (floored at the fleet's current
            // epoch edge: the drop was only observed at the drain
            // point). The resend schedules straight into the server's
            // event queue: the servers are quiescent between epochs.
            ++entry->second;
            ++netRetransmits_;
            const sim::Tick at =
                std::max(ev.at + cfg_.fabric.rto, now_floor);
            // The drop-to-resend gap is pure retransmit penalty in the
            // request's timeline; the fresh transit then adds its own
            // RTO/wire spans.
            if (at > ev.at)
                segment(ev.id, legs, obs::Segment::Rto, ev.at, at - ev.at);
            sim::Tick deliver, rto_wait;
            if (transit(at, ev.srv, deliver, rto_wait)) {
                sendSegments(ev.id, legs, at, deliver, rto_wait, false);
                if (legs)
                    servers_[ev.srv]->expect(ev.id, legs->sums);
                scheduleInject(ev.srv, deliver, ev.id, fl.service);
                return;
            }
        }
        // Out of resends, or the resend was lost in transit.
        replicaFailed(ev.id, fl, ev.srv, ev.at, false, false, legs);
    });
}

FleetReport
FleetSim::run()
{
    using Phase = obs::PhaseProfiler::Phase;
    profiler_.beginRun(layout_.numShards);

    for (auto &s : servers_)
        s->start();
    if (metrics_) {
        metricsPrev_.resize(servers_.size());
        for (std::size_t i = 0; i < servers_.size(); ++i)
            metricsPrev_[i] = servers_[i]->soc().rapl().readCounter(
                power::Plane::Package);
    }

    const sim::Tick measure_at = cfg_.warmup;
    const sim::Tick end = cfg_.warmup + cfg_.duration;
    const sim::Tick deadline = end + cfg_.drainLimit;
    sim::Tick t = 0;
    bool routing = true; // inside [0, end): arrivals are routed
    for (;;) {
        if (routing && t >= end) {
            routing = false;
            // Freeze per-server metrics at the end of the measurement
            // window so every server's power average covers exactly
            // [warmup, end]; latch fabric power on the same boundary
            // (drain traffic would otherwise smear busy time into a
            // fixed-length window).
            const auto sc = profiler_.scope(Phase::Collect);
            collectServers();
            if (fabric_)
                fabricPowerW_ = fabric_->averagePowerW(cfg_.duration);
        }
        // Past the window: no new arrivals; let in-flight work drain.
        if (!routing && (inFlight_.empty() || t >= deadline))
            break;
        if (routing && !measuring_ && t >= measure_at) {
            for (auto &s : servers_)
                s->beginMeasurement();
            if (fabric_)
                fabric_->beginWindow();
            measuring_ = true;
            measureStart_ = t;
        }
        // Epoch boundaries align with the start of measurement so RAPL
        // windows begin at a quiescent, single-threaded instant.
        const sim::Tick limit =
            !routing ? deadline : measuring_ ? end : measure_at;
        const sim::Tick t1 = std::min(t + cfg_.epoch, limit);
        if (routing) {
            const auto sc = profiler_.scope(Phase::Route);
            if (allocator_ && t >= nextAllocAt_) {
                allocateBudgets(t);
                nextAllocAt_ = t + kBudgetEpoch;
            }
            dispatchEpoch(t, t1);
        }
        advanceShards(t1);
        {
            const auto sc = profiler_.scope(Phase::Merge);
            drainCompletions();
            drainNicDrops(t1);
            drainAborts();
            processRecovery(t1);
        }
        if (metrics_ && metrics_->due(t1))
            sampleMetrics(t1);
        if (slo_ && measuring_)
            healthEpoch(t, t1);
        t = t1;
    }

    if (attr_ && !inFlight_.empty()) {
        // Flights the drain deadline left open: the answered ones are
        // attributed with the replicas they have, including those
        // still inside a server.
        for (std::size_t i = 0; i < servers_.size(); ++i)
            servers_[i]->forEachHeld(
                [this, i](std::uint64_t id, const obs::SegmentSums &sums) {
                    if (Flight *fl = inFlight_.find(id)) {
                        const obs::ReplicaSums held{
                            static_cast<std::uint32_t>(i), sums};
                        keepChain(*fl, &held);
                    }
                });
        inFlight_.forEach([this](std::uint64_t id, Flight &fl) {
            foldAttribution(id, fl, nullptr);
        });
    }

    // Close the open package-state spans so the trace's power tracks
    // cover the whole run.
    if (tracer_)
        for (auto &s : servers_)
            s->traceFlush();

    if (slo_) {
        // Resolve still-active alerts and audit the final quiescent
        // state (the drain may leave flights in the map; conservation
        // must account for them exactly).
        slo_->finish(t);
        auditor_->audit(buildAuditSnapshot(t));
    }

    return aggregate();
}

void
FleetSim::sampleMetrics(sim::Tick t)
{
    metrics_->beginSample(t);
    double fleet_w = 0.0;
    std::uint64_t outstanding = 0;
    const bool capped = !series_.srvCapLimitW.empty();
    for (std::size_t i = 0; i < servers_.size(); ++i) {
        auto &s = *servers_[i];
        const auto cur =
            s.soc().rapl().readCounter(power::Plane::Package);
        const double w =
            s.soc().rapl().averagePower(metricsPrev_[i], cur);
        metricsPrev_[i] = cur;
        // lint:allow(float-accum) fixed server-index order on the
        // single-threaded spine; layout-invariant by construction
        fleet_w += w;
        outstanding += s.outstanding();
        metrics_->set(series_.srvPowerW[i], w);
        metrics_->set(series_.srvOutstanding[i],
                      static_cast<double>(s.outstanding()));
        if (capped)
            metrics_->set(series_.srvCapLimitW[i], s.powerLimitW());
    }
    metrics_->set(series_.fleetPowerW, fleet_w);
    metrics_->set(series_.outstanding,
                  static_cast<double>(outstanding));
    metrics_->set(series_.dispatched,
                  static_cast<double>(dispatched_));
    metrics_->set(series_.completed, static_cast<double>(completed_));
    metrics_->set(series_.retransmits,
                  static_cast<double>(netRetransmits_));
    metrics_->set(series_.lost, static_cast<double>(lostRequests_));
    if (fabric_) {
        const auto fs = fabric_->stats();
        metrics_->set(series_.fabricEnqueued,
                      static_cast<double>(fs.enqueued));
        metrics_->set(series_.fabricDelivered,
                      static_cast<double>(fs.delivered));
        metrics_->set(series_.fabricDropped,
                      static_cast<double>(fs.dropped));
    }
    if (allocator_)
        metrics_->set(series_.rackBudgetW, allocator_->rackBudgetW(t));
}

void
FleetSim::healthEpoch(sim::Tick t0, sim::Tick t1)
{
    if (cfg_.cap.enabled || cfg_.budget.enabled) {
        // Cumulative settled-sample counters; the monitor takes the
        // per-epoch delta for the power SLI.
        std::uint64_t cs = 0, cv = 0;
        for (auto &s : servers_)
            if (cap::PowerCapController *c = s->capController()) {
                cs += c->samples();
                cv += c->violations();
            }
        slo_->setCapCounters(cs, cv);
    }
    slo_->onEpoch(t0, t1);
    if (auditor_->due(t1))
        auditor_->audit(buildAuditSnapshot(t1));
}

const obs::AuditSnapshot &
FleetSim::buildAuditSnapshot(sim::Tick now)
{
    obs::AuditSnapshot &snap = auditSnap_;
    snap.servers.clear();
    snap.links.clear();
    snap.energy.clear();
    snap.newEpochs.clear();
    snap.serverLimitW.clear();
    snap.measuredInFlight = 0;
    snap.now = now;
    snap.flightsCreated = inFlight_.endId();
    snap.flightsFinished = flightsFinished_;
    snap.flightsInFlight = inFlight_.size();
    snap.dispatched = dispatched_;
    snap.completed = completed_;
    snap.lost = lostRequests_;
    snap.lostToCrash = lostToCrash_;
    // A resolved shell was already counted (completed or lost); only
    // unresolved flights are conservation's "in flight".
    inFlight_.forEach([&snap](std::uint64_t, const Flight &fl) {
        if (fl.measured && !fl.resolved)
            ++snap.measuredInFlight;
    });

    for (const auto &s : servers_)
        snap.servers.push_back(
            {s->accepted(), s->completed(), s->aborted()});

    if (fabric_) {
        const auto add = [&snap](const net::DropTailLink &l) {
            snap.links.push_back(
                {l.offered(), l.delivered(), l.dropped()});
        };
        add(fabric_->coreIngress());
        add(fabric_->coreEgress());
        for (std::size_t i = 0; i < servers_.size(); ++i) {
            add(fabric_->downlink(i));
            add(fabric_->uplink(i));
        }
    }

    for (std::size_t i = 0; i < servers_.size(); ++i) {
        auto &soc = servers_[i]->soc();
        const auto &meter = soc.meter();
        for (const power::Plane pl :
             {power::Plane::Package, power::Plane::Dram}) {
            obs::AuditEnergy e;
            e.server = static_cast<int>(i);
            e.plane = static_cast<int>(pl);
            e.energyJ = meter.planeEnergy(pl);
            double sum = 0.0;
            for (const power::PowerLoad *ld : meter.loads())
                if (ld->plane() == pl)
                    // lint:allow(float-accum) loads() is the fixed
                    // registration-order vector; spine-only reader
                    sum += ld->energyJoules();
            e.loadSumJ = sum;
            e.counter = soc.rapl().readCounter(pl).counter;
            e.unitJ = soc.rapl().energyUnit();
            snap.energy.push_back(e);
        }
    }

    if (allocator_) {
        snap.budgetEnabled = true;
        snap.floorW = cfg_.budget.minServerW;
        snap.deadbandW = kBudgetDeadbandW;
        snap.numServers = servers_.size();
        snap.anyEmergencyEver = allocator_->emergencyEpochs() > 0;
        const auto &log = allocator_->log();
        for (std::size_t i = auditLogPos_; i < log.size(); ++i)
            snap.newEpochs.push_back({log[i].at, log[i].budgetW,
                                      log[i].allocatedW,
                                      log[i].emergency, log[i].active});
        auditLogPos_ = log.size();
        if (!log.empty())
            snap.lastBudgetW = log.back().budgetW;
        for (const auto &s : servers_)
            snap.serverLimitW.push_back(s->powerLimitW());
        snap.grantActive = grantActive_;
    }
    return snap;
}

bool
FleetSim::writeTrace(const std::string &path) const
{
    if (!tracer_)
        return false;
    if (const std::uint64_t drops = tracer_->totalDropped())
        std::fprintf(stderr,
                     "fleet: warning: trace rings wrapped, %llu oldest "
                     "records dropped; export is incomplete (raise "
                     "TraceConfig::ringCapacity)\n",
                     static_cast<unsigned long long>(drops));
    if (attr_) {
        // Flow arrows (client -> critical server -> client) ride along
        // when attribution ran.
        const std::vector<obs::FlowEvent> flows =
            obs::buildFlows(attribution_, obs::kFlowLimit);
        return tracer_->writePerfettoJson(path, &profiler_, &flows);
    }
    return tracer_->writePerfettoJson(path, &profiler_);
}

bool
FleetSim::writeMetricsCsv(const std::string &path) const
{
    return metrics_ && obs::writeFile(path, [this](std::FILE *f) {
               return metrics_->writeCsv(f);
           });
}

bool
FleetSim::writeAlertsJson(const std::string &path) const
{
    return slo_ && obs::writeFile(path, [this](std::FILE *f) {
               return obs::healthReport(*slo_, *auditor_).writeAlertsJson(f);
           });
}

void
FleetSim::collectServers()
{
    // collect() only touches its own server's state, so shards can
    // gather in parallel — at 10k servers the sequential gather
    // (residency walks) serialized the end of every sweep. A default
    // ServerResult holds unbinned histograms, so the placeholders cost
    // no heap block; collect() hands each server's histograms over.
    perServerResults_.resize(servers_.size());
    pool_.parallelForRanges(
        layout_.numShards, [this](std::size_t b, std::size_t e) {
            const std::size_t end = layout_.end(e - 1);
            for (std::size_t i = layout_.begin(b); i < end; ++i)
                perServerResults_[i] = servers_[i]->collect();
        });
}

FleetReport
FleetSim::aggregate()
{
    FleetReport rep;
    rep.numServers = servers_.size();
    rep.dispatched = dispatched_;
    rep.completed = completed_;
    rep.inFlightAtEnd = inFlight_.size();
    rep.replicasDispatched = replicasDispatched_;
    for (const auto &s : servers_) {
        rep.serversAccepted += s->accepted();
        rep.serversCompleted += s->completed();
        rep.serversOutstanding += s->outstanding();
    }

    const double window_s = sim::toSeconds(cfg_.duration);
    rep.achievedQps = window_s > 0
        ? static_cast<double>(completed_) / window_s : 0.0;

    const double n = static_cast<double>(servers_.size());
    rep.capEnabled = cfg_.cap.enabled || cfg_.budget.enabled;
    // Scalar folds stay sequential and in server order: they are O(1)
    // per server, and keeping the old summation order keeps every
    // floating-point total bit-identical to the unsharded engine.
    for (const auto &r : perServerResults_) {
        rep.pkgPowerW += r.pkgPowerW;
        rep.dramPowerW += r.dramPowerW;
        rep.nicPowerW += r.nicPowerW;
        rep.capSamples += r.capSamples;
        rep.capViolations += r.capViolations;
        rep.capThrottleResidency += r.capThrottleResidency / n;
        rep.capPerfLoss += r.capPerfLossFraction() / n;
        rep.avgUtilization += r.utilization / n;
        for (std::size_t s = 0; s < soc::kNumPkgStates; ++s)
            rep.pkgResidency[s] += r.pkgResidency[s] / n;
        rep.replicaLatencySummary.merge(r.latencySummary);
        rep.nicInterrupts += r.nicInterrupts;
        rep.nicRxDrops += r.nicRxDrops;
        rep.nicPktsPerIrq.merge(r.nicPktsPerIrq);
        rep.nicWakeUs.merge(r.nicWakeUs);
    }
    // The O(servers x buckets) histogram merges run as a fixed-shape
    // parallel tree reduction: leaves of kReduceLeaf servers (a
    // constant, so the shape — and the merged result — is independent
    // of thread and shard count), folded in leaf order.
    struct HistAcc
    {
        stats::Histogram replica{0.1, 1e7, 64};
        stats::Histogram idle{0.01, 1e7, 32};
    };
    HistAcc acc = stats::reduceFixed(
        perServerResults_.size(), kReduceLeaf, HistAcc{},
        [this](HistAcc &a, std::size_t i) {
            a.replica.merge(perServerResults_[i].latencyHistUs);
            a.idle.merge(perServerResults_[i].idlePeriodsUs);
        },
        [](HistAcc &a, const HistAcc &b) {
            a.replica.merge(b.replica);
            a.idle.merge(b.idle);
        },
        [this](std::size_t m, auto &&fn) { pool_.parallelFor(m, fn); });
    rep.replicaLatencyUs = std::move(acc.replica);
    rep.idlePeriodsUs = std::move(acc.idle);
    // Everything that reads the per-server results has run; aggregate()
    // runs once, so hand the vector over instead of copying it.
    rep.perServer = std::move(perServerResults_);

    if (fabric_) {
        rep.fabricStats = fabric_->stats();
        rep.fabricPowerW = fabricPowerW_;
    }
    if (allocator_) {
        rep.rackBudgetW = allocator_->nominalRackBudgetW();
        rep.oversubscription = cfg_.budget.oversubscription;
        rep.budgetUtilization =
            allocator_->budgetUtilization(measureStart_);
        rep.emergencyEpochs = allocator_->emergencyEpochs();
        rep.budgetLog = allocator_->log();
    }
    rep.joulesPerRequest = completed_ > 0
        ? rep.totalPowerW() * window_s / static_cast<double>(completed_)
        : 0.0;

    rep.avgLatencyUs = latencyUs_.mean();
    rep.maxLatencyUs = latencyUs_.max();
    rep.p50LatencyUs = latencyHistUs_.p50();
    rep.p95LatencyUs = latencyHistUs_.p95();
    rep.p99LatencyUs = latencyHistUs_.p99();
    rep.p999LatencyUs = latencyHistUs_.quantile(0.999);
    rep.latencyUs = latencyHistUs_;

    rep.sloUs = cfg_.sloUs;
    rep.sloViolations = sloViolations_;
    rep.lostRequests = lostRequests_;
    rep.lostToCrash = lostToCrash_;
    rep.failovers = failovers_;
    rep.timeouts = timeoutsFired_;
    rep.netRetransmits = netRetransmits_;
    const std::uint64_t answered =
        completed_ + lostRequests_ + lostToCrash_;
    rep.sloViolationFraction = answered > 0
        ? static_cast<double>(sloViolations_) /
            static_cast<double>(answered)
        : 0.0;

    if (tracer_) {
        rep.traceRecords = tracer_->totalRecorded();
        rep.traceDrops = tracer_->totalDropped();
    }
    if (attr_)
        rep.attribution = obs::LatencyAttribution::build(
            attribution_, cfg_.attribution.sampleLimit);
    if (slo_)
        rep.health = obs::healthReport(*slo_, *auditor_);
    return rep;
}

} // namespace apc::fleet
