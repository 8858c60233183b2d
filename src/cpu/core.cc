#include "cpu/core.h"

#include <cassert>
#include <utility>

namespace apc::cpu {

CoreConfig
CoreConfig::skxDefaults()
{
    CoreConfig c;
    auto set = [&](CState s, sim::Tick exit, sim::Tick target, double w) {
        auto &p = c.cstates[static_cast<std::size_t>(s)];
        p.exitLatency = exit;
        p.entryLatency = exit / 4;
        p.targetResidency = target;
        p.powerWatts = w;
    };
    set(CState::CC0, 0, 0, 5.30);
    set(CState::CC1, 2 * sim::kUs, 2 * sim::kUs, 1.21);
    set(CState::CC1E, 10 * sim::kUs, 20 * sim::kUs, 0.80);
    set(CState::CC6, 133 * sim::kUs, 600 * sim::kUs, 0.01);
    return c;
}

Core::Core(sim::Simulation &sim, power::EnergyMeter &meter, int id,
           const CoreConfig &cfg, std::unique_ptr<IdleGovernor> governor)
    : sim_(sim), cfg_(cfg), governor_(std::move(governor)),
      inCc1_(sim, false),
      inCc6_(sim, false),
      load_(meter, "core", power::Plane::Package,
            cfg.cstates[0].powerWatts),
      residency_(static_cast<std::size_t>(CState::CC0), sim.now()),
      id_(id), activePowerWatts_(cfg.cstates[0].powerWatts)
{
    assert(governor_ && "core requires an idle governor");
}

void
Core::setActivePower(double watts)
{
    activePowerWatts_ = watts;
    if (phase_ == Phase::Active || phase_ == Phase::Exiting)
        load_.setPower(watts);
}

void
Core::release()
{
    assert(phase_ == Phase::Active && "release() outside Active");
    idleStart_ = sim_.now();
    beginEntry(governor_->initialState());
}

void
Core::beginEntry(CState s)
{
    assert(s != CState::CC0);
    phase_ = Phase::Entering;
    state_ = s;
    // During the entry transition the core still burns close to its
    // previous level; model it as the pre-entry power (CC0 on first
    // entry, the shallower state's power on a promotion).
    const sim::Tick lat = params(s).entryLatency;
    transitionEvent_ = sim_.after(lat, [this] { finishEntry(); });
}

void
Core::finishEntry()
{
    phase_ = Phase::Idle;
    residency_.transitionTo(static_cast<std::size_t>(state_), sim_.now());
    load_.setPower(params(state_).powerWatts);
    if (state_ >= CState::CC1)
        inCc1_.write(true);
    if (state_ == CState::CC6)
        inCc6_.write(true);
    if (wakePending_) {
        // An interrupt arrived while the entry was in flight; turn
        // around immediately.
        beginExit();
        return;
    }
    armPromotion();
}

void
Core::armPromotion()
{
    CState next;
    const sim::Tick after = governor_->promoteAfter(state_, next);
    if (after == sim::kTickNever)
        return;
    promotionEvent_ = sim_.after(after, [this, next] {
        // Promote: leave the shallow state for a deeper one. Residency
        // counting of the transition stays with the shallow state via
        // Entering (counted as CC0 only for the brief entry window).
        residency_.transitionTo(static_cast<std::size_t>(CState::CC0),
                                sim_.now());
        beginEntry(next);
    });
}

void
Core::requestWake(sim::WaitList::Fn on_active)
{
    switch (phase_) {
      case Phase::Active:
        on_active();
        return;
      case Phase::Exiting:
        if (on_active)
            wakeCallbacks_.push(std::move(on_active));
        return;
      case Phase::Entering:
        if (on_active)
            wakeCallbacks_.push(std::move(on_active));
        wakePending_ = true;
        // The PMA reports the wake immediately so package-level exit can
        // start concurrently with the core's own transition.
        inCc1_.write(false);
        inCc6_.write(false);
        return;
      case Phase::Idle:
        if (on_active)
            wakeCallbacks_.push(std::move(on_active));
        wakePending_ = true;
        beginExit();
        return;
    }
}

void
Core::beginExit()
{
    assert(phase_ == Phase::Idle);
    phase_ = Phase::Exiting;
    promotionEvent_.cancel();
    inCc1_.write(false);
    inCc6_.write(false);
    residency_.transitionTo(static_cast<std::size_t>(CState::CC0),
                            sim_.now());
    // Wake transitions burn roughly active power (state restore etc.).
    load_.setPower(activePowerWatts_);
    transitionEvent_ = sim_.after(params(state_).exitLatency,
                                  [this] { finishExit(); });
}

void
Core::finishExit()
{
    phase_ = Phase::Active;
    state_ = CState::CC0;
    wakePending_ = false;
    ++wakeups_;
    governor_->recordIdle(sim_.now() - idleStart_);
    wakeCallbacks_.drain();
}

} // namespace apc::cpu
