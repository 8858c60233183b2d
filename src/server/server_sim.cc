#include "server/server_sim.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

namespace apc::server {

namespace {

/** @p cfg, or std::invalid_argument naming the first field that makes
 *  no sense (a silently clamped config would run a different model). */
ServerConfig
checked(ServerConfig cfg)
{
    if (cfg.warmup < 0)
        throw std::invalid_argument("ServerConfig: warmup must be >= 0");
    if (cfg.duration <= 0)
        // An empty window divides every rate by zero.
        throw std::invalid_argument("ServerConfig: duration must be > 0");
    if (cfg.networkLatency < 0)
        throw std::invalid_argument(
            "ServerConfig: networkLatency must be >= 0");
    if (cfg.dvfs.enabled && cfg.dvfsInterval <= 0)
        // The governor re-arms itself every interval: zero would loop
        // at one instant forever.
        throw std::invalid_argument(
            "ServerConfig: dvfsInterval must be > 0 with DVFS on");
    if (!(cfg.numa.remoteFraction >= 0.0 && cfg.numa.remoteFraction <= 1.0))
        throw std::invalid_argument(
            "ServerConfig: numa.remoteFraction must be in [0, 1]");
    return cfg;
}

} // namespace

double
ServerResult::idlePeriodFraction(double lo_us, double hi_us) const
{
    return idlePeriodsUs.fractionBetween(lo_us, hi_us);
}

ServerSim::ServerSim(ServerConfig cfg)
    : cfg_(checked(std::move(cfg))), sim_(cfg_.seed)
{
    const soc::SkxConfig skx = cfg_.skxOverride
        ? *cfg_.skxOverride
        : soc::SkxConfig::forPolicy(cfg_.policy);
    soc_ = std::make_unique<soc::Soc>(sim_, skx, cfg_.policy);
    if (cfg_.numa.enabled)
        remoteSoc_ = std::make_unique<soc::Soc>(sim_, skx, cfg_.policy);
    arrivals_ = cfg_.workload.makeArrivals();
    service_ = cfg_.workload.makeService();
    ctx_.resize(soc_->numCores());
    if (cfg_.cap.enabled)
        cap_ = std::make_unique<cap::PowerCapController>(
            cfg_.cap, pstates_.size(), pstates_.nominalIndex());
    if (cfg_.nic.enabled) {
        nic_ = std::make_unique<net::Nic>(sim_, soc_->meter(),
                                          soc_->nic(), cfg_.nic);
        nic_->onDeliver(
            [this](std::vector<net::Nic::RxPacket> &batch,
                   sim::Tick irq_at) { deliverNicBatch(batch, irq_at); });
        nic_->onDrop([this](std::uint64_t id, sim::Tick at) {
            if (id == kNoRequestId)
                return;
            // The ring tail-dropped the request inject() just recorded
            // as live: it never entered the server, so a later crash
            // must not report it destroyed as well.
            assert(!liveIds_.empty() && liveIds_.back() == id);
            if (endFn_)
                endFn_(End::Drop, id, at,
                       attr_ ? &liveSegs_.back() : nullptr);
            liveIds_.pop_back();
            if (attr_)
                liveSegs_.pop_back();
        });
    }
}

ServerSim::~ServerSim() = default;

void
ServerSim::recordLatency(sim::Tick end_to_end)
{
    if (sim_.now() < measureStart_)
        return;
    ++requests_;
    const double us = sim::toMicros(end_to_end);
    latencyUs_.record(us);
    latencyHistUs_.record(us);
}

void
ServerSim::scheduleNextArrival()
{
    if (cfg_.externalArrivals || cfg_.workload.qps <= 0)
        return;
    sim_.after(arrivals_->nextGap(sim_.rng()), [this] { onArrival(); });
}

void
ServerSim::onArrival()
{
    scheduleNextArrival();
    if (state_ != Lifecycle::Up)
        return; // internal arrivals to a refusing server just vanish
    const sim::Tick svc = service_->sample(sim_.rng());
    if (nic_)
        nic_->rxEnqueue(kNoRequestId, svc);
    else
        admit({sim_.now(), svc, kNoRequestId});
}

void
ServerSim::expect(std::uint64_t id, const obs::SegmentSums &legs)
{
    expected_.emplace_back(id, legs);
}

obs::SegmentSums
ServerSim::takeExpected(std::uint64_t id)
{
    obs::SegmentSums legs;
    const auto it =
        std::find_if(expected_.begin(), expected_.end(),
                     [id](const auto &e) { return e.first == id; });
    if (it != expected_.end()) {
        legs = it->second;
        *it = expected_.back();
        expected_.pop_back();
    }
    return legs;
}

void
ServerSim::inject(std::uint64_t id, sim::Tick service)
{
    if (state_ != Lifecycle::Up) {
        // Admission refused: a Draining/Down/Restarting server
        // destroys the request on arrival — an End::Abort tells the
        // owner so it can count the loss and fail the request over.
        if (id != kNoRequestId) {
            const obs::SegmentSums legs =
                attr_ ? takeExpected(id) : obs::SegmentSums{};
            if (endFn_)
                endFn_(End::Abort, id, sim_.now(), attr_ ? &legs : nullptr);
        }
        return;
    }
    if (id != kNoRequestId) {
        liveIds_.push_back(id);
        if (attr_)
            liveSegs_.push_back(takeExpected(id));
    }
    const sim::Tick svc =
        service > 0 ? service : service_->sample(sim_.rng());
    if (nic_)
        nic_->rxEnqueue(id, svc);
    else
        admit({sim_.now(), svc, id});
}

void
ServerSim::completeInjected(std::uint64_t id)
{
    const auto it = std::find(liveIds_.begin(), liveIds_.end(), id);
    if (it == liveIds_.end())
        return; // destroyed by a crash while the response was in flight
    const auto i = it - liveIds_.begin();
    if (endFn_)
        endFn_(End::Completion, id, sim_.now(),
               attr_ ? &liveSegs_[i] : nullptr);
    liveIds_.erase(it);
    if (attr_)
        liveSegs_.erase(liveSegs_.begin() + i);
}

void
ServerSim::segment(std::uint64_t id, obs::Segment s, sim::Tick at,
                   sim::Tick dur)
{
    if (trace_)
        trace_->span(at, dur, obs::segmentTraceName(s),
                     obs::Track::Segments, id);
    // A crash ghost (its DMA was in flight when the server went down)
    // is no longer live: the abort already carried its sums.
    const auto it = std::find(liveIds_.begin(), liveIds_.end(), id);
    if (it != liveIds_.end())
        liveSegs_[it - liveIds_.begin()].add(s, at, dur, writer_);
}

void
ServerSim::scheduleCrash(sim::Tick at)
{
    sim_.at(at, [this] { crashNow(); });
}

void
ServerSim::scheduleDrain(sim::Tick at)
{
    sim_.at(at, [this] {
        if (state_ == Lifecycle::Up)
            state_ = Lifecycle::Draining;
    });
}

void
ServerSim::scheduleRestart(sim::Tick at, sim::Tick ready_at)
{
    sim_.at(at, [this, ready_at] {
        state_ = Lifecycle::Restarting;
        sim_.at(ready_at, [this] { state_ = Lifecycle::Up; });
    });
}

void
ServerSim::freezeNic(sim::Tick from, sim::Tick to)
{
    if (!nic_)
        return;
    sim_.at(from, [this, to] { nic_->freeze(to); });
}

void
ServerSim::crashNow()
{
    state_ = Lifecycle::Down;
    ++inc_;
    crashAt_ = sim_.now();
    // Tear down the RX ring; its ids are already in liveIds_, so the
    // sweep below reports them (internal arrivals carry no id).
    if (nic_)
        nic_->crashAbort();
    // Queued work dies where it waits. On-core and in-TX work is
    // ghosted by the incarnation bump: its continuations still run the
    // physical machinery (MC release, core release) but never complete.
    for (auto &c : ctx_)
        c.queue.clear();
    // Every accepted-but-unfinished request dies with the crash — the
    // LB's queue-depth signal drops to zero.
    aborted_ += outstanding();
    // Report the destroyed ids in id order: the fleet's merge re-sorts
    // anyway, but a deterministic emission order keeps any direct
    // consumer reproducible too.
    std::vector<std::size_t> order(liveIds_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [this](std::size_t a, std::size_t b) {
                  return liveIds_[a] < liveIds_[b];
              });
    if (endFn_)
        for (const std::size_t i : order)
            endFn_(End::Abort, liveIds_[i], sim_.now(),
                   attr_ ? &liveSegs_[i] : nullptr);
    liveSegs_.clear();
    liveIds_.clear();
}

void
ServerSim::deliverNicBatch(std::vector<net::Nic::RxPacket> &batch,
                           sim::Tick irq_at)
{
    // The DMA burst already woke the PCIe link; once the fabric (CLM +
    // memory controllers) reopens, the whole batch is admitted behind
    // the one shared package exit — which is exactly the wake-sharing
    // the moderation window buys.
    // `now` here is the DMA completion — the attribution boundary
    // between the IRQ hold and the package wake the fabric wait below
    // represents. Each injected packet waited in the RX ring from its
    // enqueue to the moderated interrupt (nic_ring), then rode the
    // IRQ's DMA hold to completion (irq_hold).
    const sim::Tick dma_done = sim_.now();
    if (attr_)
        for (const net::Nic::RxPacket &p : batch) {
            if (p.id == kNoRequestId)
                continue; // internal arrival, not fleet-attributed
            if (irq_at > p.enqueuedAt)
                segment(p.id, obs::Segment::NicRing, p.enqueuedAt,
                        irq_at - p.enqueuedAt);
            if (dma_done > irq_at)
                segment(p.id, obs::Segment::IrqHold, irq_at,
                        dma_done - irq_at);
        }
    const std::uint32_t inc = inc_;
    soc_->whenFabricReady([this, batch = std::move(batch), irq_at,
                           dma_done, inc]() mutable {
        if (inc != inc_) {
            // The crash already reported every id this carries.
            nic_->recycle(std::move(batch));
            return;
        }
        if (sim_.now() >= measureStart_)
            nicWakeUs_.record(sim::toMicros(sim_.now() - irq_at));
        const sim::Tick adm = sim_.now();
        const sim::Tick gate_base = gateClosedTotalAt(adm);
        bool first = true;
        for (const net::Nic::RxPacket &p : batch) {
            // A batch whose DMA was in flight when the server crashed
            // arrives as a ghost: everything enqueued at or before the
            // crash instant was aborted with the ring.
            if (p.enqueuedAt <= crashAt_)
                continue;
            ++accepted_;
            if (attr_ && p.id != kNoRequestId && adm > dma_done)
                // Every coalesced request pays the one shared package
                // exit in its own timeline — that sharing is exactly
                // what the moderation window buys.
                segment(p.id, obs::Segment::Wake, dma_done,
                        adm - dma_done);
            // Latency counts from RX-ring arrival: the coalescing wait
            // is part of the request's end-to-end cost. Followers of
            // the batch share the leader's wake.
            assign({p.enqueuedAt, p.service, p.id, adm, gate_base, inc_,
                    !first});
            first = false;
        }
        nic_->recycle(std::move(batch));
    });
}

void
ServerSim::admit(Request r)
{
    ++accepted_;
    r.inc = inc_;
    r.coalesced = sim_.now() - lastArrival_ <= cfg_.workload.coalesceWindow;
    lastArrival_ = sim_.now();
    // RX over the NIC link (wakes it from L0s/L1 as needed), then wait
    // for the path to memory before the request can be dispatched.
    soc_->nic().transfer(cfg_.workload.nicTransfer, [this, r] {
        soc_->whenFabricReady([this, r]() mutable {
            if (r.inc != inc_)
                return; // crashed while waking; already reported
            const sim::Tick adm = sim_.now();
            if (attr_ && r.id != kNoRequestId && adm > r.arrival)
                // No NIC model: the whole link transfer + fabric wait
                // is the wake segment.
                segment(r.id, obs::Segment::Wake, r.arrival,
                        adm - r.arrival);
            r.admitAt = adm;
            r.gateBase = gateClosedTotalAt(adm);
            assign(r);
        });
    });
}

void
ServerSim::assign(const Request &r)
{
    // RSS-style hashing: connections spread ~uniformly across cores.
    const auto idx = static_cast<std::size_t>(sim_.rng().uniformInt(
        0, static_cast<std::int64_t>(soc_->numCores()) - 1));
    ctx_[idx].queue.push(r);
    pump(idx);
}

void
ServerSim::pump(std::size_t idx)
{
    auto &ctx = ctx_[idx];
    // A closed injection gate holds queued work back so the cores
    // drain and the package can drop into PC1A; pumpAll() restarts
    // admission when the gate opens.
    if (ctx.processing || ctx.queue.empty() || capGated_)
        return;
    ctx.processing = true;
    const bool was_active = soc_->core(idx).isActive();
    soc_->core(idx).requestWake([this, idx, was_active] {
        serveFront(idx, was_active);
    });
}

void
ServerSim::serveFront(std::size_t idx, bool was_active)
{
    auto &ctx = ctx_[idx];
    assert(ctx.processing);
    if (ctx.queue.empty()) {
        // A crash emptied the queue while this core's wake was in
        // flight; the work it was woken for no longer exists.
        ctx.processing = false;
        soc_->core(idx).release();
        return;
    }
    const Request r = ctx.queue.front();
    ctx.queue.pop();

    const sim::Tick t0 = sim_.now();
    if (trace_)
        trace_->span(r.arrival, t0 - r.arrival, obs::Name::Wait,
                     obs::Track::Requests,
                     r.id == kNoRequestId ? 0 : r.id);
    const bool seg = attr_ && r.id != kNoRequestId;
    if (seg) {
        // Split the admission -> serve-start wait into pure queueing
        // and idle-injection gate overlap via the monotone gate
        // integral: G(t0) - G(admit) is exactly the closed-gate time
        // inside the wait, whatever the interleaving.
        const sim::Tick gated = gateClosedTotalAt(t0) - r.gateBase;
        const sim::Tick queued = t0 - r.admitAt - gated;
        if (queued > 0)
            segment(r.id, obs::Segment::Queue, r.admitAt, queued);
        if (gated > 0)
            segment(r.id, obs::Segment::StallGate, r.admitAt + queued,
                    gated);
    }

    const sim::Tick base = r.service
        + (was_active ? 0
                      : (r.coalesced ? cfg_.workload.wakeOverheadCoalesced
                                     : cfg_.workload.wakeOverhead));
    // CPU-bound work dilates when DVFS has lowered the frequency.
    sim::Tick work = static_cast<sim::Tick>(static_cast<double>(base)
                                            * ctx.slowdown);
    // Cap-induced DVFS stall: the dilation beyond what the governor
    // alone would have chosen (the clamp only ever slows further).
    sim::Tick dvfs_stall = 0;
    if (seg) {
        const sim::Tick gov = static_cast<sim::Tick>(
            static_cast<double>(base) * pstates_.slowdown(ctx.pstate));
        if (work > gov)
            dvfs_stall = work - gov;
    }
    soc_->mc(idx % soc_->numMcs()).beginAccess();

    // The request completes when the local work has run *and* any
    // remote memory access has returned over UPI.
    ctx.serving = r;
    ctx.serveStart = t0;
    ctx.dvfsStall = dvfs_stall;
    ctx.pending = 1;
    if (cfg_.numa.enabled &&
        sim_.rng().bernoulli(cfg_.numa.remoteFraction)) {
        ++ctx.pending;
        remoteAccess(idx);
    }
    sim_.after(work, [this, idx] { finishServe(idx); });
}

void
ServerSim::finishServe(std::size_t idx)
{
    auto &ctx = ctx_[idx];
    if (--ctx.pending > 0)
        return;
    const Request r = ctx.serving;
    const sim::Tick t0 = ctx.serveStart;
    soc_->mc(idx % soc_->numMcs()).endAccess();
    if (r.inc != inc_) {
        // The crash destroyed this request on-core: its abort was
        // already reported, so only the physical bookkeeping runs.
        ctx.processing = false;
        if (!ctx.queue.empty() && !capGated_)
            pump(idx);
        else
            soc_->core(idx).release();
        return;
    }
    ++completed_;
    recordLatency(sim_.now() - r.arrival + cfg_.networkLatency);
    if (trace_)
        trace_->span(t0, sim_.now() - t0, obs::Name::Serve,
                     obs::Track::Requests,
                     r.id == kNoRequestId ? 0 : r.id);
    if (attr_ && r.id != kNoRequestId) {
        const sim::Tick serve = sim_.now() - t0 - ctx.dvfsStall;
        if (serve > 0)
            segment(r.id, obs::Segment::Serve, t0, serve);
        if (ctx.dvfsStall > 0)
            segment(r.id, obs::Segment::StallDvfs, t0 + serve,
                    ctx.dvfsStall);
    }
    if (nic_) {
        // Response TX through the NIC: the request completes (and the
        // fleet's response enters the fabric) when the packet has left
        // the device, not when the core finished.
        const std::uint64_t rid = r.id;
        const std::uint32_t rinc = r.inc;
        const sim::Tick serve_end = sim_.now();
        nic_->txSend([this, rid, rinc, serve_end] {
            if (rid == kNoRequestId)
                return;
            if (rinc != inc_)
                return; // crashed while the response was in TX
            if (attr_ && sim_.now() > serve_end)
                segment(rid, obs::Segment::XmitResp, serve_end,
                        sim_.now() - serve_end);
            completeInjected(rid);
        });
    } else {
        if (r.id != kNoRequestId)
            completeInjected(r.id);
        // Response TX (fire-and-forget; keeps the NIC link busy).
        soc_->nic().transfer(cfg_.workload.nicTransfer, nullptr);
    }
    // TX-completion softirq: IRQ affinity spreads the network stack's
    // completion work onto another core.
    scheduleSoftirq(idx);
    ctx.processing = false;
    if (!ctx.queue.empty() && !capGated_)
        pump(idx);
    else
        soc_->core(idx).release();
}

void
ServerSim::remoteAccess(std::size_t idx)
{
    // Local UPI lanes stay busy for the round trip; the remote socket's
    // UPI link wake doubles as its package wake (APMU IO-wake path).
    soc_->link(4).beginTransaction();
    remoteSoc_->link(4).transfer(cfg_.numa.upiHop, [this, idx] {
        remoteSoc_->whenFabricReady([this, idx] {
            const auto mc_idx = static_cast<std::size_t>(
                sim_.rng().uniformInt(0, 1));
            remoteSoc_->mc(mc_idx).access(cfg_.numa.remoteHold,
                                          [this, idx] {
                // Response hop back over UPI.
                sim_.after(cfg_.numa.upiHop, [this, idx] {
                    soc_->link(4).endTransaction();
                    finishServe(idx);
                });
            });
        });
    });
}

void
ServerSim::scheduleSoftirq(std::size_t origin)
{
    const sim::Tick work = cfg_.workload.softirqWork;
    if (work <= 0 || soc_->numCores() < 2)
        return;
    // Pick a core other than the application thread's.
    auto idx = static_cast<std::size_t>(sim_.rng().uniformInt(
        0, static_cast<std::int64_t>(soc_->numCores()) - 2));
    if (idx >= origin)
        ++idx;
    runKernelTask(idx, work);
}

void
ServerSim::runKernelTask(std::size_t idx, sim::Tick work)
{
    auto &ctx = ctx_[idx];
    if (ctx.processing)
        return; // absorbed into ongoing work on that core
    if (capGated_)
        return; // forced idle outranks housekeeping (play_idle)
    ctx.processing = true;
    soc_->core(idx).requestWake([this, idx, work] {
        sim_.after(work, [this, idx] {
            auto &c = ctx_[idx];
            c.processing = false;
            if (!c.queue.empty() && !capGated_)
                pump(idx);
            else
                soc_->core(idx).release();
        });
    });
}

void
ServerSim::scheduleTimerTick()
{
    const auto &noise = cfg_.workload.noise;
    if (!noise.enabled)
        return;
    sim_.after(noise.tickPeriod, [this] {
        scheduleTimerTick();
        runKernelTask(0, cfg_.workload.noise.tickWork);
    });
}

void
ServerSim::scheduleDvfsSample()
{
    if (!cfg_.dvfs.enabled)
        return;
    sim_.after(cfg_.dvfsInterval, [this] {
        scheduleDvfsSample();
        const sim::Tick now = sim_.now();
        for (std::size_t i = 0; i < soc_->numCores(); ++i) {
            auto &ctx = ctx_[i];
            auto &core = soc_->core(i);
            const sim::Tick cc0 = core.residency().timeIn(
                static_cast<std::size_t>(cpu::CState::CC0), now);
            const double util =
                static_cast<double>(cc0 - ctx.lastCc0Time) /
                static_cast<double>(cfg_.dvfsInterval);
            ctx.lastCc0Time = cc0;
            ctx.pstate = cpu::dvfsNextPState(pstates_, cfg_.dvfs,
                                             ctx.pstate, util);
            applyCorePower(i);
        }
    });
}

void
ServerSim::applyCorePower(std::size_t idx)
{
    auto &ctx = ctx_[idx];
    auto &core = soc_->core(idx);
    // The cap clamp caps the governor's choice, never raises it.
    const std::size_t eff = std::min(ctx.pstate, capClamp_);
    ctx.slowdown = pstates_.slowdown(eff);
    core.setActivePower(pstates_.activePowerWatts(
        core.config().cstates[0].powerWatts, eff));
}

void
ServerSim::applyCapActuation(const cap::CapActuation &act)
{
    if (trace_ && act.idleDuty != capDuty_)
        trace_->counter(sim_.now(), obs::Name::CapDuty, obs::Track::Cap,
                        act.idleDuty);
    capDuty_ = act.idleDuty;
    if (act.pstateClamp == capClamp_)
        return;
    if (trace_)
        trace_->counter(sim_.now(), obs::Name::CapClamp, obs::Track::Cap,
                        act.pstateClamp >= pstates_.size()
                            ? -1.0
                            : static_cast<double>(act.pstateClamp));
    const sim::Tick now = sim_.now();
    clampLossIntegral_ +=
        static_cast<double>(now - clampLossSince_) * clampLossRate_;
    clampLossSince_ = now;
    capClamp_ = act.pstateClamp;
    const std::size_t eff = std::min(capClamp_, pstates_.nominalIndex());
    clampLossRate_ =
        1.0 - pstates_.point(eff).freqGhz / pstates_.nominal().freqGhz;
    for (std::size_t i = 0; i < soc_->numCores(); ++i)
        applyCorePower(i);
}

void
ServerSim::scheduleCapSample()
{
    sim_.after(cfg_.cap.sampleInterval, [this] {
        scheduleCapSample();
        const auto s = soc_->rapl().readCounter(power::Plane::Package);
        const double w = soc_->rapl().averagePower(capPrev_, s);
        capPrev_ = s;
        if (trace_)
            trace_->counter(sim_.now(), obs::Name::CapPowerW,
                            obs::Track::Cap, w);
        applyCapActuation(cap_->onSample(sim_.now(), w));
    });
}

void
ServerSim::scheduleCapInject()
{
    sim_.after(cfg_.cap.injectPeriod, [this] {
        scheduleCapInject();
        if (capDuty_ <= 0 || capGated_)
            return;
        capGated_ = true;
        gateStart_ = sim_.now();
        gateTotalStart_ = sim_.now();
        const auto gate = std::min(
            cfg_.cap.injectPeriod,
            std::max<sim::Tick>(
                1, static_cast<sim::Tick>(
                       capDuty_ *
                       static_cast<double>(cfg_.cap.injectPeriod))));
        sim_.after(gate, [this] {
            capGated_ = false;
            gatedTime_ += sim_.now() - gateStart_;
            gatedTotal_ += sim_.now() - gateTotalStart_;
            pumpAll();
        });
    });
}

void
ServerSim::pumpAll()
{
    for (std::size_t i = 0; i < soc_->numCores(); ++i)
        pump(i);
}

void
ServerSim::setPowerLimit(double watts)
{
    if (!cap_)
        return;
    if (trace_)
        trace_->counter(sim_.now(), obs::Name::CapLimitW,
                        obs::Track::Cap, watts);
    cap_->setLimit(watts, sim_.now());
    applyCapActuation(cap_->actuation());
}

double
ServerSim::powerLimitW() const
{
    return cap_ ? cap_->limitW() : 0.0;
}

double
ServerSim::capPowerW() const
{
    return cap_ ? cap_->windowPowerW() : 0.0;
}

void
ServerSim::enableTracing(obs::TraceWriter *w)
{
    trace_ = w;
    // Components inside this simulation (the NIC) find the sink here.
    sim_.setTrace(w);
    // Package power-state spans, one per change.
    tracePkg_ = static_cast<std::size_t>(soc_->pkgState());
    tracePkgSince_ = sim_.now();
    soc_->onPkgStateChange(
        [this](soc::PkgState s) { tracePkgState(s); });
}

void
ServerSim::tracePkgState(soc::PkgState s)
{
    const sim::Tick now = sim_.now();
    if (now > tracePkgSince_)
        trace_->span(tracePkgSince_, now - tracePkgSince_,
                     obs::pkgStateTraceName(tracePkg_),
                     obs::Track::Power);
    tracePkg_ = static_cast<std::size_t>(s);
    tracePkgSince_ = now;
}

void
ServerSim::traceFlush()
{
    if (!trace_)
        return;
    const sim::Tick now = sim_.now();
    if (now > tracePkgSince_)
        trace_->span(tracePkgSince_, now - tracePkgSince_,
                     obs::pkgStateTraceName(tracePkg_),
                     obs::Track::Power);
    tracePkgSince_ = now;
}

void
ServerSim::start()
{
    // All cores start idle; the workload wakes them. The remote socket
    // (if any) has no runnable work at all.
    for (std::size_t i = 0; i < soc_->numCores(); ++i)
        soc_->core(i).release();
    if (remoteSoc_)
        for (std::size_t i = 0; i < remoteSoc_->numCores(); ++i)
            remoteSoc_->core(i).release();

    // DVFS (when enabled) starts from the nominal point.
    for (auto &ctx : ctx_)
        ctx.pstate = pstates_.nominalIndex();

    scheduleNextArrival();
    scheduleTimerTick();
    scheduleDvfsSample();
    if (cap_) {
        capPrev_ = soc_->rapl().readCounter(power::Plane::Package);
        clampLossSince_ = sim_.now();
        scheduleCapSample();
        if (cfg_.cap.actuator != cap::CapActuator::DvfsOnly)
            scheduleCapInject();
    }
}

void
ServerSim::beginMeasurement()
{
    measureStart_ = measureBegan_ = sim_.now();
    // Drop anything recorded during warmup (external drivers inject
    // before this point; run() pre-gates via measureStart_, so this is
    // a no-op there).
    requests_ = 0;
    latencyUs_.clear();
    latencyHistUs_.clear();
    soc_->resetStats();
    if (nic_) {
        nic_->resetStats();
        nicWakeUs_.clear();
        nicEnergy0_ = soc_->meter().planeEnergy(power::Plane::Network);
    }
    if (cap_) {
        cap_->resetStats();
        gatedTime_ = 0;
        if (capGated_)
            gateStart_ = sim_.now();
        clampLossIntegral_ = 0.0;
        clampLossSince_ = sim_.now();
    }
    pkg0_ = soc_->rapl().readCounter(power::Plane::Package);
    dram0_ = soc_->rapl().readCounter(power::Plane::Dram);
    if (remoteSoc_) {
        remoteSoc_->resetStats();
        rpkg0_ = remoteSoc_->rapl().readCounter(power::Plane::Package);
        rdram0_ = remoteSoc_->rapl().readCounter(power::Plane::Dram);
    }
}

ServerResult
ServerSim::run()
{
    start();

    measureStart_ = sim_.now() + cfg_.warmup;
    sim_.at(measureStart_, [this] { beginMeasurement(); });

    const sim::Tick end = measureStart_ + cfg_.duration;
    sim_.runUntil(end);
    traceFlush();
    return collect();
}

ServerResult
ServerSim::collect()
{
    assert(latencyHistUs_.binned() && "ServerSim::collect() is final");
    const auto pkg1 = soc_->rapl().readCounter(power::Plane::Package);
    const auto dram1 = soc_->rapl().readCounter(power::Plane::Dram);
    const double window_s = sim::toSeconds(sim_.now() - measureBegan_);

    ServerResult res;
    res.requests = requests_;
    res.achievedQps = window_s > 0
        ? static_cast<double>(requests_) / window_s : 0.0;
    res.pkgPowerW = soc_->rapl().averagePower(pkg0_, pkg1);
    res.dramPowerW = soc_->rapl().averagePower(dram0_, dram1);
    res.avgLatencyUs = latencyUs_.mean();
    res.p50LatencyUs = latencyHistUs_.p50();
    res.p95LatencyUs = latencyHistUs_.p95();
    res.p99LatencyUs = latencyHistUs_.p99();
    res.maxLatencyUs = latencyUs_.max();

    const sim::Tick now = sim_.now();
    for (std::size_t s = 0; s < soc::kNumPkgStates; ++s)
        res.pkgResidency[s] = soc_->pkgResidency().residency(s, now);
    for (std::size_t s = 0; s < cpu::kNumCStates; ++s) {
        double acc = 0.0;
        for (std::size_t i = 0; i < soc_->numCores(); ++i)
            acc += soc_->core(i).residency().residency(s, now);
        res.coreResidency[s] = acc / static_cast<double>(soc_->numCores());
    }
    res.utilization =
        res.coreResidency[static_cast<std::size_t>(cpu::CState::CC0)];
    const double window = window_s > 0 ? window_s : 1.0;
    res.allIdleFraction =
        sim::toSeconds(soc_->fullIdleTime()) / window;
    res.socWatchIdleFraction =
        sim::toSeconds(soc_->socWatchIdleTime()) / window;
    res.idlePeriodsUs = soc_->takeIdlePeriodsUs();
    res.latencyHistUs = std::move(latencyHistUs_);
    res.latencySummary = latencyUs_;

    if (auto *apmu = soc_->apmu()) {
        res.pc1aEntries = apmu->pc1aEntries();
        res.apmuEntryNsAvg = apmu->entryLatencyNs().mean();
        res.apmuEntryNsMax = apmu->entryLatencyNs().max();
        res.apmuExitNsAvg = apmu->exitLatencyNs().mean();
        res.apmuExitNsMax = apmu->exitLatencyNs().max();
    }
    if (remoteSoc_) {
        const auto rpkg1 =
            remoteSoc_->rapl().readCounter(power::Plane::Package);
        const auto rdram1 =
            remoteSoc_->rapl().readCounter(power::Plane::Dram);
        res.remotePkgPowerW =
            remoteSoc_->rapl().averagePower(rpkg0_, rpkg1);
        res.remoteDramPowerW =
            remoteSoc_->rapl().averagePower(rdram0_, rdram1);
        res.remotePc1aResidency = remoteSoc_->pkgResidency().residency(
            static_cast<std::size_t>(soc::PkgState::Pc1a), now);
        res.remoteWakes = remoteSoc_->link(4).shallowWakes();
    }
    if (cap_) {
        res.capLimitW = cap_->limitW();
        res.capWindowPowerW = cap_->windowPowerW();
        res.capSamples = cap_->samples();
        res.capViolations = cap_->violations();
        res.capLevelAvg = cap_->levelSummary().mean();
        const sim::Tick gated =
            gatedTime_ + (capGated_ ? now - gateStart_ : 0);
        const double window_ticks =
            static_cast<double>(now - measureBegan_);
        if (window_ticks > 0) {
            res.capThrottleResidency =
                static_cast<double>(gated) / window_ticks;
            res.capDvfsCapacityLoss =
                (clampLossIntegral_ +
                 static_cast<double>(now - clampLossSince_) *
                     clampLossRate_) /
                window_ticks;
        }
    }
    res.pc6Entries = soc_->gpmu().pc6Entries();
    res.pc6EntryUsAvg = soc_->gpmu().entryLatencyUs().mean();
    res.pc6ExitUsAvg = soc_->gpmu().exitLatencyUs().mean();
    if (nic_) {
        const auto &ns = nic_->stats();
        res.nicInterrupts = ns.interrupts;
        res.nicRxPackets = ns.rxPackets;
        res.nicRxDrops = ns.rxDropped;
        res.nicTxPackets = ns.txPackets;
        res.nicPktsPerIrq = ns.pktsPerIrq;
        res.nicRingWaitUs = ns.ringWaitUs;
        res.nicWakeUs = nicWakeUs_;
        res.nicEnergyJ =
            soc_->meter().planeEnergy(power::Plane::Network) -
            nicEnergy0_;
        res.nicPowerW = window_s > 0 ? res.nicEnergyJ / window_s : 0.0;
    }
    return res;
}

} // namespace apc::server
