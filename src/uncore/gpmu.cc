#include "uncore/gpmu.h"

#include <cassert>

namespace apc::uncore {

Gpmu::Gpmu(sim::Simulation &sim, const GpmuConfig &cfg,
           std::vector<cpu::Core *> cores, std::vector<io::IoLink *> links,
           std::vector<dram::MemoryController *> mcs, Clm *clm,
           PllFarm *plls)
    : sim_(sim), cfg_(cfg), cores_(std::move(cores)),
      links_(std::move(links)), mcs_(std::move(mcs)), clm_(clm),
      plls_(plls), wakeUp_(sim, false)
{
    if (!cfg_.pc6Enabled)
        return;
    allCc6_ = std::make_unique<sim::AndTree>(sim, 2 * sim::kNs);
    for (auto *c : cores_)
        allCc6_->addInput(c->inCc6());
    allCc6_->output().subscribe([this](bool v) { onAllCc6(v); });
    // Traffic hitting a sleeping link (its L1 exit starts, dropping
    // InL0s) is a wake event for the package.
    for (auto *l : links_) {
        l->inL0s().subscribe([this](bool v) {
            if (!v &&
                (state_ == State::Pc6 || state_ == State::EnteringPc6)) {
                triggerWake();
            }
        });
    }
}

void
Gpmu::setState(State s)
{
    if (s == state_)
        return;
    state_ = s;
    observer_(s);
}

void
Gpmu::onAllCc6(bool level)
{
    if (!level) {
        demotionEvent_.cancel();
        // A core waking is a wake event for any in-flight or resident
        // deep package state.
        if (state_ == State::EnteringPc6 || state_ == State::Pc6)
            triggerWake();
        return;
    }
    if (state_ != State::Pc0)
        return;
    demotionEvent_ = sim_.after(cfg_.demotionDelay, [this] {
        if (allCc6_->output().read() && state_ == State::Pc0)
            startEntry();
    });
}

void
Gpmu::triggerWake()
{
    switch (state_) {
      case State::Pc0:
        return; // nothing to wake from
      case State::EnteringPc6:
        wakePending_ = true; // entry steps check at boundaries
        return;
      case State::Pc6:
        startExit();
        return;
      case State::ExitingPc6:
        return; // already on the way out
    }
}

template <typename Range, typename Op>
void
Gpmu::forAll(Range &range, Op op, Step done)
{
    if (range.empty()) {
        done();
        return;
    }
    // Flow steps run one at a time, so one join serves them all; the
    // completions of a step a newer flow abandoned are ignored.
    joinsPending_ = static_cast<int>(range.size());
    joinDone_ = std::move(done);
    const auto gen = flowGen_;
    for (auto *item : range) {
        op(item, [this, gen] {
            if (flowGen_ != gen || --joinsPending_ > 0)
                return;
            const Step next = std::move(joinDone_);
            next();
        });
    }
}

void
Gpmu::startEntry()
{
    assert(state_ == State::Pc0);
    flowStart_ = sim_.now();
    wakePending_ = false;
    doneIoL1_ = doneDramSr_ = doneClkPll_ = doneVRet_ = false;
    setState(State::EnteringPc6); // the transient PC2 window
    const auto gen = ++flowGen_;
    sim_.after(cfg_.ioL1Msg, [this, gen] {
        if (flowGen_ != gen)
            return;
        entryIoL1();
    });
}

void
Gpmu::entryIoL1()
{
    if (wakePending_) {
        startExit();
        return;
    }
    const auto gen = flowGen_;
    forAll(links_,
           [](io::IoLink *l, auto done) {
               l->enterL1(std::move(done));
           },
           [this, gen] {
               doneIoL1_ = true;
               sim_.after(cfg_.dramSrMsg, [this, gen] {
                   if (flowGen_ != gen)
                       return;
                   entryDramSr();
               });
           });
}

void
Gpmu::entryDramSr()
{
    if (wakePending_) {
        startExit();
        return;
    }
    const auto gen = flowGen_;
    forAll(mcs_,
           [](dram::MemoryController *m, auto done) {
               m->enterSelfRefresh(std::move(done));
           },
           [this, gen] {
               doneDramSr_ = true;
               sim_.after(cfg_.clkPllMsg, [this, gen] {
                   if (flowGen_ != gen)
                       return;
                   entryClkPll();
               });
           });
}

void
Gpmu::entryClkPll()
{
    if (wakePending_) {
        startExit();
        return;
    }
    if (clm_)
        clm_->gateClocks();
    if (plls_)
        plls_->powerOffAll();
    doneClkPll_ = true;
    const auto gen = flowGen_;
    sim_.after(cfg_.vRetMsg, [this, gen] {
        if (flowGen_ != gen)
            return;
        entryVRet();
    });
}

void
Gpmu::entryVRet()
{
    if (wakePending_) {
        startExit();
        return;
    }
    if (clm_)
        clm_->setRetention(true);
    doneVRet_ = true;
    finishEntry();
}

void
Gpmu::finishEntry()
{
    setState(State::Pc6);
    ++pc6Entries_;
    entryLatencyUs_.record(sim::toMicros(sim_.now() - flowStart_));
    if (wakePending_)
        startExit();
}

void
Gpmu::startExit()
{
    assert(state_ == State::EnteringPc6 || state_ == State::Pc6);
    ++flowGen_; // invalidate any in-flight entry steps
    wakePending_ = false;
    flowStart_ = sim_.now();
    setState(State::ExitingPc6);
    exitVNom();
}

void
Gpmu::exitVNom()
{
    const auto gen = flowGen_;
    if (!doneVRet_ || !clm_) {
        exitPllUngate();
        return;
    }
    sim_.after(cfg_.vNomMsg, [this, gen] {
        if (flowGen_ != gen)
            return;
        clm_->setRetention(false);
        // Wait for the rails to settle (PwrOk) before touching clocks.
        const sim::Tick settle = clm_->settleTimeRemaining();
        sim_.after(settle, [this, gen] {
            if (flowGen_ != gen)
                return;
            doneVRet_ = false;
            exitPllUngate();
        });
    });
}

void
Gpmu::exitPllUngate()
{
    const auto gen = flowGen_;
    if (!doneClkPll_) {
        exitDramSr();
        return;
    }
    auto ungate = [this, gen] {
        if (flowGen_ != gen)
            return;
        sim_.after(cfg_.ungateMsg, [this, gen] {
            if (flowGen_ != gen)
                return;
            if (clm_)
                clm_->ungateClocks();
            doneClkPll_ = false;
            exitDramSr();
        });
    };
    if (plls_)
        plls_->powerOnAll(std::move(ungate));
    else
        ungate();
}

void
Gpmu::exitDramSr()
{
    const auto gen = flowGen_;
    if (!doneDramSr_) {
        exitIoL1();
        return;
    }
    sim_.after(cfg_.dramExitMsg, [this, gen] {
        if (flowGen_ != gen)
            return;
        forAll(mcs_,
               [](dram::MemoryController *m, auto done) {
                   m->exitSelfRefresh(std::move(done));
               },
               [this] {
                   doneDramSr_ = false;
                   exitIoL1();
               });
    });
}

void
Gpmu::exitIoL1()
{
    const auto gen = flowGen_;
    if (!doneIoL1_) {
        finishExit();
        return;
    }
    sim_.after(cfg_.ioExitMsg, [this, gen] {
        if (flowGen_ != gen)
            return;
        forAll(links_,
               [](io::IoLink *l, auto done) {
                   l->exitL1(std::move(done));
               },
               [this] {
                   doneIoL1_ = false;
                   finishExit();
               });
    });
}

void
Gpmu::finishExit()
{
    exitLatencyUs_.record(sim::toMicros(sim_.now() - flowStart_));
    setState(State::Pc0);
    // Pulse the wake wire for the APMU / residency listeners.
    wakeUp_.write(true);
    wakeUp_.write(false);
    // If the wake was spurious and all cores are still in CC6, the
    // demotion path will re-enter PC6 after the demotion delay.
    if (allCc6_ && allCc6_->output().read())
        onAllCc6(true);
}

} // namespace apc::uncore
