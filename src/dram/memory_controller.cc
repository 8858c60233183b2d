#include "dram/memory_controller.h"

#include <cassert>
#include <utility>

namespace apc::dram {

MemoryController::MemoryController(sim::Simulation &sim,
                                   power::EnergyMeter &meter,
                                   const MemoryControllerConfig &cfg)
    : sim_(sim), cfg_(cfg),
      allowCkeOff_(sim, false),
      active_(sim, true),
      mcLoad_(meter, "mc", power::Plane::Package, cfg.mcActiveWatts),
      dramLoad_(meter, "mc.dram", power::Plane::Dram,
                cfg.dramIdleWatts),
      residency_(static_cast<std::size_t>(McState::Active), sim.now())
{
    allowCkeOff_.subscribe([this](bool allowed) {
        if (allowed) {
            maybePowerDown();
        } else {
            downEvent_.cancel();
            if (state_ == McState::CkeOff && !transitioning_)
                beginWake();
        }
    });
}

void
MemoryController::setState(McState s)
{
    state_ = s;
    residency_.transitionTo(static_cast<std::size_t>(s), sim_.now());
    updatePower();
    active_.write(s == McState::Active && !transitioning_);
}

void
MemoryController::updatePower()
{
    switch (state_) {
      case McState::Active:
        mcLoad_.setPower(cfg_.mcActiveWatts);
        dramLoad_.setPower(cfg_.dramIdleWatts +
                           (transactions_ > 0 ? cfg_.dramBusyExtraWatts
                                              : 0.0));
        break;
      case McState::CkeOff:
        mcLoad_.setPower(cfg_.mcCkeOffWatts);
        dramLoad_.setPower(cfg_.dramCkeOffWatts);
        break;
      case McState::SelfRefresh:
        mcLoad_.setPower(cfg_.mcSelfRefreshWatts);
        dramLoad_.setPower(cfg_.dramSelfRefreshWatts);
        break;
    }
}

void
MemoryController::maybePowerDown()
{
    if (state_ != McState::Active || transitioning_ || transactions_ > 0 ||
        !allowCkeOff_.read()) {
        return;
    }
    downEvent_.cancel();
    // "The memory controller enters CKE off mode as soon as it completes
    // all outstanding memory transactions" — entry takes ~10 ns.
    downEvent_ = sim_.after(cfg_.ckeOffEntry, [this] {
        if (transactions_ > 0 || !allowCkeOff_.read())
            return;
        setState(McState::CkeOff);
    });
}

void
MemoryController::beginWake()
{
    assert(!transitioning_ && state_ != McState::Active);
    transitioning_ = true;
    active_.write(false);
    const sim::Tick exit_lat = state_ == McState::CkeOff
        ? cfg_.ckeOffExit : cfg_.selfRefreshExit;
    // Wake burns active-level power (DLL / interface re-enable).
    mcLoad_.setPower(cfg_.mcActiveWatts);
    transitionEvent_ = sim_.after(exit_lat, [this] {
        transitioning_ = false;
        if (state_ == McState::CkeOff)
            ++ckeWakes_;
        setState(McState::Active);
        waiters_.drain();
        // If the wake was spurious (e.g. Allow_CKE_OFF still set and no
        // traffic arrived), drop straight back down.
        maybePowerDown();
    });
}

void
MemoryController::access(sim::Tick hold_time, SmallDone on_ready)
{
    ++transactions_;
    downEvent_.cancel();

    auto serve = [this, hold_time, on_ready = std::move(on_ready)] {
        updatePower();
        on_ready();
        sim_.after(hold_time, [this] {
            --transactions_;
            assert(transactions_ >= 0);
            updatePower();
            maybePowerDown();
        });
    };

    if (state_ == McState::Active && !transitioning_) {
        serve();
        return;
    }
    waiters_.push(std::move(serve));
    if (!transitioning_)
        beginWake();
}

void
MemoryController::beginAccess()
{
    ++transactions_;
    downEvent_.cancel();
    if (state_ == McState::Active && !transitioning_)
        updatePower();
    else if (!transitioning_)
        beginWake();
}

void
MemoryController::endAccess()
{
    --transactions_;
    assert(transactions_ >= 0);
    if (state_ == McState::Active)
        updatePower();
    maybePowerDown();
}

void
MemoryController::enterSelfRefresh(SmallDone done)
{
    assert(transactions_ == 0 && !transitioning_ &&
           "self-refresh entry requires a quiesced controller");
    if (state_ == McState::SelfRefresh) {
        done();
        return;
    }
    downEvent_.cancel();
    transitioning_ = true;
    active_.write(false);
    transitionEvent_ = sim_.after(cfg_.selfRefreshEntry,
                               [this, done = std::move(done)] {
        transitioning_ = false;
        setState(McState::SelfRefresh);
        done();
    });
}

void
MemoryController::exitSelfRefresh(Done done)
{
    assert(state_ == McState::SelfRefresh);
    waiters_.push(std::move(done));
    if (!transitioning_)
        beginWake();
}

} // namespace apc::dram
