#include "core/apmu.h"

#include <algorithm>
#include <cassert>

namespace apc::core {

Apmu::Apmu(sim::Simulation &sim, const ApcConfig &cfg,
           std::vector<cpu::Core *> cores, std::vector<io::IoLink *> links,
           std::vector<dram::MemoryController *> mcs, uncore::Clm *clm,
           uncore::PllFarm *plls, sim::Signal *gpmu_wake)
    : sim_(sim), cfg_(cfg), cores_(std::move(cores)),
      links_(std::move(links)), mcs_(std::move(mcs)), clm_(clm),
      plls_(plls), inPc1a_(sim, false)
{
    // InCC1 of neighbouring cores is combined with AND gates and routed
    // to the APMU (paper Sec. 5.3); likewise InL0s (Sec. 5.1).
    allCc1_ = std::make_unique<sim::AndTree>(sim, cfg_.signalProp);
    for (auto *c : cores_)
        allCc1_->addInput(c->inCc1());
    allCc1_->output().subscribe([this](bool v) { onAllCc1Edge(v); });

    allL0s_ = std::make_unique<sim::AndTree>(sim, cfg_.signalProp);
    for (auto *l : links_)
        allL0s_->addInput(l->inL0s());
    allL0s_->output().subscribe([this](bool v) { onAllL0sEdge(v); });

    if (gpmu_wake) {
        gpmu_wake->subscribe([this](bool v) {
            if (v)
                wake(WakeReason::GpmuEvent);
        });
    }
}

void
Apmu::setState(State s)
{
    if (s == state_)
        return;
    state_ = s;
    observer_(s);
}

void
Apmu::onAllCc1Edge(bool level)
{
    if (level) {
        if (state_ == State::Pc0)
            toAcc1();
        return;
    }
    switch (state_) {
      case State::Acc1:
        toPc0();
        break;
      case State::Entering:
      case State::Pc1a:
        wake(WakeReason::CoreInterrupt);
        break;
      default:
        break;
    }
}

void
Apmu::onAllL0sEdge(bool level)
{
    if (level) {
        if (state_ == State::Acc1)
            maybeBeginEntry();
        return;
    }
    if (state_ == State::Entering || state_ == State::Pc1a)
        wake(WakeReason::IoTraffic);
}

void
Apmu::toAcc1()
{
    assert(state_ == State::Pc0);
    setState(State::Acc1);
    const auto gen = ++flowGen_;
    // One FSM cycle to drive the AllowL0s wires.
    sim_.after(cfg_.cycle(), [this, gen] {
        if (flowGen_ != gen || state_ != State::Acc1)
            return;
        if (cfg_.useShallowLinks) {
            for (auto *l : links_)
                l->allowL0s().write(true);
        } else {
            // Ablation: legacy deep link state instead of L0s/L0p. The
            // links raise InL0s on reaching L1, unblocking the flow.
            for (auto *l : links_)
                l->enterL1(nullptr);
        }
        // The links may already all be idle-resident (e.g. after an
        // IO-only wake); re-check once the wires settle.
        if (allL0s_->output().read())
            maybeBeginEntry();
    });
}

void
Apmu::toPc0()
{
    assert(state_ == State::Acc1);
    setState(State::Pc0);
    ++flowGen_;
    // Bring the IO links back to full L0 (paper: AllowL0s is unset when
    // the flow reaches PC0 on a core interrupt).
    if (cfg_.useShallowLinks) {
        for (auto *l : links_)
            l->allowL0s().write(false);
    } else {
        for (auto *l : links_) {
            if (l->state() == io::LState::L1)
                l->exitL1(nullptr);
        }
    }
}

void
Apmu::maybeBeginEntry()
{
    if (state_ != State::Acc1)
        return;
    const sim::Tick since_exit = sim_.now() - lastExit_;
    if (since_exit < cfg_.entryHysteresis) {
        hysteresisEvent_.cancel();
        hysteresisEvent_ =
            sim_.after(cfg_.entryHysteresis - since_exit, [this] {
                if (state_ == State::Acc1 && allCc1_->output().read() &&
                    allL0s_->output().read()) {
                    beginEntry();
                }
            });
        return;
    }
    beginEntry();
}

void
Apmu::beginEntry()
{
    assert(state_ == State::Acc1);
    setState(State::Entering);
    entryStart_ = sim_.now();
    wakePending_ = false;
    const auto gen = ++flowGen_;
    const sim::Tick cyc = cfg_.cycle();

    // Both branches launch one FSM cycle after &InL0s is observed.
    sim_.after(cyc, [this, gen, cyc] {
        if (flowGen_ != gen)
            return;
        sim::Tick blocking = 0;

        // Branch (i) — CLMR: clock-gate the CLM, then start the
        // (non-blocking) voltage ramp to retention.
        if (cfg_.useClmr && clm_) {
            clm_->gateClocks();
            const sim::Tick gate = clm_->config().clockTree.gateLatency;
            sim_.after(gate, [this, gen] {
                if (flowGen_ != gen)
                    return;
                clm_->setRetention(true);
            });
            blocking = std::max(blocking, gate);
        }

        // Branch (ii) — IOSM: allow the MCs into CKE-off (entry itself
        // is non-blocking; the MCs drop as soon as they are idle).
        if (cfg_.useCkeOff) {
            for (auto *m : mcs_)
                m->allowCkeOff().write(true);
            blocking = std::max(blocking, cyc);
        } else {
            // Ablation: legacy self-refresh instead of CKE-off.
            for (auto *m : mcs_)
                m->enterSelfRefresh(nullptr);
            blocking = std::max(blocking, cyc);
        }

        // Ablation: power the PLLs off as PC6 would.
        if (!cfg_.keepPllsOn && plls_)
            plls_->powerOffAll();

        // One more cycle to latch InPC1A after the blocking work.
        sim_.after(blocking + cyc, [this, gen] {
            if (flowGen_ != gen)
                return;
            finishEntry();
        });
    });
}

void
Apmu::finishEntry()
{
    assert(state_ == State::Entering);
    entryLatencyNs_.record(sim::toNanos(sim_.now() - entryStart_));
    setState(State::Pc1a);
    inPc1a_.write(true);
    ++pc1aEntries_;
    if (wakePending_)
        startExit();
}

void
Apmu::wake(WakeReason reason)
{
    lastWake_ = reason;
    switch (state_) {
      case State::Entering:
        // Entry completes within a few cycles; the turnaround happens in
        // finishEntry(). (The FIVR ramp reverses preemptively from
        // whatever voltage it reached.)
        wakePending_ = true;
        return;
      case State::Pc1a:
        startExit();
        return;
      default:
        return; // Exiting: already on the way out; Pc0/Acc1: no-op
    }
}

void
Apmu::startExit()
{
    assert(state_ == State::Pc1a);
    setState(State::Exiting);
    exitStart_ = sim_.now();
    wakePending_ = false;
    inPc1a_.write(false);
    const auto gen = ++flowGen_;
    const sim::Tick cyc = cfg_.cycle();

    exitJoinsPending_ = 2;
    auto branch_done = [this, gen] {
        if (flowGen_ != gen)
            return;
        if (--exitJoinsPending_ == 0)
            finishExit();
    };

    // Branch (i) — CLMR: unset Ret, wait PwrOk, clock-ungate. With the
    // keep-PLLs-on ablation disabled the relock must also complete
    // before the clocks can be distributed again.
    sim_.after(cyc, [this, gen, branch_done] {
        if (flowGen_ != gen)
            return;
        if (!(cfg_.useClmr && clm_)) {
            branch_done();
            return;
        }
        clm_->setRetention(false);
        auto ungate = [this, gen, branch_done] {
            if (flowGen_ != gen)
                return;
            clm_->ungateClocks();
            sim_.after(clm_->config().clockTree.gateLatency, branch_done);
        };
        auto after_pwrok = [this, gen, ungate] {
            if (flowGen_ != gen)
                return;
            if (!cfg_.keepPllsOn && plls_)
                plls_->powerOnAll(ungate);
            else
                ungate();
        };
        const sim::Tick settle = clm_->settleTimeRemaining();
        if (settle == 0)
            after_pwrok();
        else
            sim_.after(settle, after_pwrok);
    });

    // Branch (ii) — IOSM: unset Allow_CKE_OFF; the MCs exit CKE-off
    // within ~24 ns (or self-refresh within µs for the ablation).
    sim_.after(cyc, [this, gen, branch_done] {
        if (flowGen_ != gen)
            return;
        if (cfg_.useCkeOff) {
            sim::Tick worst = 0;
            for (auto *m : mcs_) {
                m->allowCkeOff().write(false);
                worst = std::max(worst, m->config().ckeOffExit);
            }
            sim_.after(worst, branch_done);
        } else {
            srExitsPending_ = static_cast<int>(mcs_.size());
            if (srExitsPending_ == 0) {
                branch_done();
                return;
            }
            for (auto *m : mcs_) {
                auto cb = [this, gen, branch_done] {
                    if (flowGen_ == gen && --srExitsPending_ == 0)
                        branch_done();
                };
                if (m->state() == dram::McState::SelfRefresh)
                    m->exitSelfRefresh(cb);
                else
                    cb();
            }
        }
    });
}

void
Apmu::finishExit()
{
    assert(state_ == State::Exiting);
    exitLatencyNs_.record(sim::toNanos(sim_.now() - exitStart_));
    lastExit_ = sim_.now();
    setState(State::Acc1);
    evaluate();
}

void
Apmu::evaluate()
{
    if (state_ != State::Acc1)
        return;
    if (!allCc1_->output().read()) {
        // The wake was (or became) a core interrupt: back to PC0.
        toPc0();
        return;
    }
    // IO-only or spurious wake: stay in ACC1; if the links are already
    // all shallow-resident again, re-enter PC1A (subject to the
    // hysteresis gate, which defaults to none).
    if (allL0s_->output().read())
        maybeBeginEntry();
}

} // namespace apc::core
