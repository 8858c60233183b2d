/**
 * @file
 * Agile Power Management Unit (APMU) — the paper's core contribution
 * (Sec. 4.1, Fig. 4).
 *
 * The APMU is a hardware FSM (500 MHz) placed in the north-cap next to
 * the firmware GPMU. It watches two aggregated status wires — `InCC1`
 * (all cores in CC1, AND-tree over the per-core PMA outputs) and `InL0s`
 * (all high-speed IOs resident in their shallow states) — and drives the
 * PC1A entry/exit flow:
 *
 *   PC0 --all cores CC1--> ACC1: assert AllowL0s
 *   ACC1 --&InL0s--> entry: (i) ClkGate CLM, then Ret to the CLM FIVRs
 *                            (non-blocking voltage ramp);
 *                           (ii) assert Allow_CKE_OFF  ==> PC1A (InPC1A)
 *   PC1A --wake (InL0s drop / InCC1 drop / GPMU WakeUp)-->
 *         exit: (i) unset Ret, wait PwrOk, clock-ungate;
 *               (ii) unset Allow_CKE_OFF  ==> ACC1
 *   ACC1 --core interrupt--> PC0: deassert AllowL0s
 *
 * All system PLLs stay locked throughout (unless the keep-PLLs-on
 * ablation is disabled), which is what keeps the exit latency at
 * nanosecond scale. Entry is ~18 ns of blocking work; exit is bounded by
 * the FIVR retention->nominal ramp (≤150 ns); worst-case entry+exit is
 * below the paper's conservative 200 ns bound.
 */

#ifndef APC_CORE_APMU_H
#define APC_CORE_APMU_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/apc_config.h"
#include "cpu/core.h"
#include "dram/memory_controller.h"
#include "io/io_link.h"
#include "sim/inline_function.h"
#include "sim/signal.h"
#include "sim/simulation.h"
#include "stats/summary.h"
#include "uncore/clm.h"
#include "uncore/pll_farm.h"

namespace apc::core {

/** The hardware PC1A controller. */
class Apmu
{
  public:
    /** FSM state (Fig. 4; Entering/Exiting are the flow transients). */
    enum class State : std::size_t
    {
        Pc0 = 0,
        Acc1 = 1,
        Entering = 2,
        Pc1a = 3,
        Exiting = 4,
    };
    static constexpr std::size_t kNumStates = 5;

    using StateFn = sim::InplaceFunction<void(State), 16>;

    /** What ended the last PC1A residency. */
    enum class WakeReason
    {
        None,
        IoTraffic,     ///< a link dropped out of L0s/L0p
        CoreInterrupt, ///< a core left CC1
        GpmuEvent,     ///< explicit GPMU WakeUp (timer, thermal)
    };

    /**
     * Build and wire the APMU.
     *
     * @param gpmu_wake optional GPMU WakeUp wire to subscribe to
     */
    Apmu(sim::Simulation &sim, const ApcConfig &cfg,
         std::vector<cpu::Core *> cores, std::vector<io::IoLink *> links,
         std::vector<dram::MemoryController *> mcs, uncore::Clm *clm,
         uncore::PllFarm *plls, sim::Signal *gpmu_wake = nullptr);

    State state() const { return state_; }

    /** `InPC1A` status wire to the GPMU. */
    sim::Signal &inPc1a() { return inPc1a_; }

    /** Aggregated all-cores-in-CC1 wire (post AND-tree). */
    sim::Signal &allCoresCc1() { return allCc1_->output(); }

    /** Aggregated all-IOs-shallow wire (post AND-tree). */
    sim::Signal &allIosL0s() { return allL0s_->output(); }

    /** Set the state-change observer (the Soc's package tracking). */
    void onStateChange(StateFn fn) { observer_ = std::move(fn); }

    /** Completed PC1A residencies. */
    std::uint64_t pc1aEntries() const { return pc1aEntries_; }

    /** Reason for the most recent wake. */
    WakeReason lastWakeReason() const { return lastWake_; }

    /** Entry-flow latency (ACC1-with-IOs-idle -> PC1A), nanoseconds. */
    const stats::Summary &entryLatencyNs() const { return entryLatencyNs_; }

    /** Exit-flow latency (wake -> fabric restored / ACC1), nanoseconds. */
    const stats::Summary &exitLatencyNs() const { return exitLatencyNs_; }

    const ApcConfig &config() const { return cfg_; }

  private:
    void setState(State s);
    void onAllCc1Edge(bool level);
    void onAllL0sEdge(bool level);
    /** PC0 -> ACC1: allow shallow IO states. */
    void toAcc1();
    /** ACC1 -> PC0 on a core interrupt: disallow shallow IO states. */
    void toPc0();
    /** Entry gate: run beginEntry() now or after the hysteresis. */
    void maybeBeginEntry();
    /** ACC1 + &InL0s: run the two-branch entry flow. */
    void beginEntry();
    void finishEntry();
    /** A wake event: start or queue the exit flow. */
    void wake(WakeReason reason);
    void startExit();
    void finishExit();
    /** Post-exit: settle into ACC1 or PC0 and re-evaluate conditions. */
    void evaluate();

    sim::Simulation &sim_;
    ApcConfig cfg_;
    std::vector<cpu::Core *> cores_;
    std::vector<io::IoLink *> links_;
    std::vector<dram::MemoryController *> mcs_;
    uncore::Clm *clm_;
    uncore::PllFarm *plls_;
    State state_ = State::Pc0;
    sim::Signal inPc1a_;
    std::unique_ptr<sim::AndTree> allCc1_;
    std::unique_ptr<sim::AndTree> allL0s_;
    std::uint64_t flowGen_ = 0; ///< invalidates stale flow events
    bool wakePending_ = false;
    WakeReason lastWake_ = WakeReason::None;
    int exitJoinsPending_ = 0;
    /** Self-refresh exits the exit flow's IOSM branch still awaits
     *  (the legacy self-refresh ablation). */
    int srExitsPending_ = 0;
    sim::Tick entryStart_ = 0;
    sim::Tick exitStart_ = 0;
    /** Far in the past: the first entry is never rate-limited. */
    sim::Tick lastExit_ = -(sim::kTickNever / 2);
    sim::EventHandle hysteresisEvent_;
    std::uint64_t pc1aEntries_ = 0;
    stats::Summary entryLatencyNs_;
    stats::Summary exitLatencyNs_;
    StateFn observer_;
};

} // namespace apc::core

#endif // APC_CORE_APMU_H
