#include "io/io_link.h"

#include <cassert>
#include <utility>

namespace apc::io {

IoLinkConfig
IoLinkConfig::pcie(int index)
{
    IoLinkConfig c;
    c.name = "pcie" + std::to_string(index);
    c.shallowState = LState::L0s;
    c.shallowExitLatency = 64 * sim::kNs;
    c.powerL0 = 1.50;
    c.powerShallow = 0.750;
    c.powerL1 = 0.180;
    return c;
}

IoLinkConfig
IoLinkConfig::dmi()
{
    IoLinkConfig c;
    c.name = "dmi";
    c.shallowState = LState::L0s;
    c.shallowExitLatency = 64 * sim::kNs;
    c.powerL0 = 1.00;
    c.powerShallow = 0.500;
    c.powerL1 = 0.120;
    return c;
}

IoLinkConfig
IoLinkConfig::upi(int index)
{
    IoLinkConfig c;
    c.name = "upi" + std::to_string(index);
    // UPI supports L0p rather than L0s (paper footnote 3): ~10 ns exit,
    // shallower savings (half the lanes stay awake).
    c.shallowState = LState::L0p;
    c.shallowExitLatency = 10 * sim::kNs;
    c.powerL0 = 1.00;
    c.powerShallow = 0.750;
    c.powerL1 = 0.120;
    return c;
}

IoLink::IoLink(sim::Simulation &sim, power::EnergyMeter &meter,
               const IoLinkConfig &cfg)
    : sim_(sim), cfg_(cfg),
      allowL0s_(sim, false),
      inL0s_(sim, false),
      load_(meter, cfg.name.c_str(), power::Plane::Package, cfg.powerL0),
      residency_(static_cast<std::size_t>(LState::L0), sim.now())
{
    allowL0s_.subscribe([this](bool allowed) {
        if (allowed) {
            updateIdleTimer();
        } else {
            idleTimer_.cancel();
            // Return to the active state when standby is disallowed.
            if (state_ == cfg_.shallowState && !exiting_)
                beginWake();
        }
    });
}

void
IoLink::setState(LState s)
{
    state_ = s;
    residency_.transitionTo(static_cast<std::size_t>(s), sim_.now());
    switch (s) {
      case LState::L0:
        load_.setPower(cfg_.powerL0);
        break;
      case LState::L0s:
      case LState::L0p:
        load_.setPower(cfg_.powerShallow);
        break;
      case LState::L1:
        load_.setPower(cfg_.powerL1);
        break;
    }
}

void
IoLink::updateIdleTimer()
{
    idleTimer_.cancel();
    if (state_ != LState::L0 || transactions_ > 0 || exiting_ ||
        enteringL1_ || !allowL0s_.read()) {
        return;
    }
    idleTimer_ = sim_.after(cfg_.entryWindow(), [this] { enterShallow(); });
}

void
IoLink::enterShallow()
{
    assert(state_ == LState::L0 && transactions_ == 0);
    setState(cfg_.shallowState);
    inL0s_.write(true);
}

void
IoLink::beginWake()
{
    assert(state_ != LState::L0 && !exiting_);
    exiting_ = true;
    // The wake event is visible to the APMU immediately (paper: the link
    // unsets InL0s as soon as the L0s exit starts).
    inL0s_.write(false);
    // Wake burns active-level power while lanes retrain.
    load_.setPower(cfg_.powerL0);
    const sim::Tick exit_lat = state_ == LState::L1
        ? cfg_.l1ExitLatency : cfg_.shallowExitLatency;
    wakeEvent_ = sim_.after(exit_lat, [this] {
        exiting_ = false;
        if (state_ != LState::L1)
            ++shallowWakes_;
        setState(LState::L0);
        wakeWaiters_.drain();
        updateIdleTimer();
    });
}

void
IoLink::transfer(sim::Tick payload_time, Done done)
{
    ++transactions_;
    ++transfers_;
    idleTimer_.cancel();

    const std::uint32_t slot = transferDone_.acquire();
    transferDone_[slot] = std::move(done);
    auto start_payload = [this, payload_time, slot] {
        sim_.after(payload_time, [this, slot] {
            --transactions_;
            assert(transactions_ >= 0);
            // Out of the pool first: the completion may start another
            // transfer, which can grow the pool.
            const Done fn = std::move(transferDone_[slot]);
            transferDone_.release(slot);
            fn();
            updateIdleTimer();
        });
    };

    switch (state_) {
      case LState::L0:
        if (exiting_) {
            // A wake is already in flight; queue behind it. (Unreachable
            // in practice: exiting_ implies a non-L0 state.)
            wakeWaiters_.push(std::move(start_payload));
        } else {
            start_payload();
        }
        break;
      case LState::L0s:
      case LState::L0p:
      case LState::L1:
        wakeWaiters_.push(std::move(start_payload));
        if (!exiting_)
            beginWake();
        break;
    }
}

void
IoLink::beginTransaction()
{
    ++transactions_;
    idleTimer_.cancel();
}

void
IoLink::endTransaction()
{
    --transactions_;
    assert(transactions_ >= 0);
    updateIdleTimer();
}

void
IoLink::enterL1(EntryDone done)
{
    assert(!exiting_ && transactions_ == 0 &&
           "enterL1 requires a quiesced link");
    if (state_ == LState::L1) {
        done();
        return;
    }
    enteringL1_ = true;
    idleTimer_.cancel();
    entryEvent_ = sim_.after(cfg_.l1EntryLatency,
                             [this, done = std::move(done)] {
        enteringL1_ = false;
        setState(LState::L1);
        // InL0s means "L0s or deeper" (paper Sec. 4.2.1): L1 qualifies.
        inL0s_.write(true);
        done();
    });
}

void
IoLink::exitL1(Done done)
{
    // Traffic may have beaten the GPMU to the wake: queue behind an
    // exit already in flight, abort a not-yet-completed entry (the
    // link never left L0), and treat an awake link as a no-op.
    if (exiting_) {
        wakeWaiters_.push(std::move(done));
        return;
    }
    if (enteringL1_) {
        entryEvent_.cancel();
        enteringL1_ = false;
        done();
        updateIdleTimer();
        return;
    }
    if (state_ != LState::L1) {
        done();
        return;
    }
    wakeWaiters_.push(std::move(done));
    beginWake();
}

} // namespace apc::io
