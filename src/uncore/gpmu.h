/**
 * @file
 * Global power management unit (GPMU): the firmware-based package C-state
 * controller of the baseline system (paper Sec. 3.1, Fig. 2).
 *
 * The GPMU implements the legacy PC6 flow: once all cores are in CC6 it
 * moves through the transient PC2 state, places IOs in L1 and DRAM in
 * self-refresh, gates uncore clocks, turns off PLLs, and drops the CLM
 * rails to retention. Every step is a firmware transaction with µs-scale
 * latency, which is why PC6's worst-case entry+exit exceeds 50 µs and why
 * server vendors disable it for latency-critical deployments.
 *
 * Wake events: an explicit triggerWake() (timers, thermal), any IO link
 * starting an L1 exit, or any core dropping out of CC6. The exit flow
 * reverses only the entry steps that actually completed, so aborts
 * mid-entry unwind correctly.
 */

#ifndef APC_UNCORE_GPMU_H
#define APC_UNCORE_GPMU_H

#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/core.h"
#include "dram/memory_controller.h"
#include "io/io_link.h"
#include "sim/inline_function.h"
#include "sim/signal.h"
#include "sim/simulation.h"
#include "stats/summary.h"
#include "uncore/clm.h"
#include "uncore/pll_farm.h"

namespace apc::uncore {

/** Firmware step latencies (mailbox transactions, polling, sequencing). */
struct GpmuConfig
{
    bool pc6Enabled = false;
    sim::Tick demotionDelay = 4 * sim::kUs; ///< all-CC6 -> flow start
    // PC6 entry firmware steps (each precedes the hardware action):
    sim::Tick ioL1Msg = 2 * sim::kUs;
    sim::Tick dramSrMsg = 2 * sim::kUs;
    sim::Tick clkPllMsg = 3 * sim::kUs;
    sim::Tick vRetMsg = 12 * sim::kUs;
    // PC6 exit firmware steps:
    sim::Tick vNomMsg = 12 * sim::kUs;
    sim::Tick ungateMsg = 2 * sim::kUs;
    sim::Tick dramExitMsg = 2 * sim::kUs;
    sim::Tick ioExitMsg = 2 * sim::kUs;
};

/** The firmware package C-state controller. */
class Gpmu
{
  public:
    /** Package FSM state as tracked by the GPMU. */
    enum class State : std::size_t
    {
        Pc0 = 0,      ///< active (or package states disabled)
        EnteringPc6 = 1, ///< PC2 and the stepped entry flow
        Pc6 = 2,
        ExitingPc6 = 3,
    };
    static constexpr std::size_t kNumStates = 4;

    using StateFn = sim::InplaceFunction<void(State), 16>;

    Gpmu(sim::Simulation &sim, const GpmuConfig &cfg,
         std::vector<cpu::Core *> cores, std::vector<io::IoLink *> links,
         std::vector<dram::MemoryController *> mcs, Clm *clm,
         PllFarm *plls);

    /** Explicit wake event (timer expiration, thermal, software). */
    void triggerWake();

    State state() const { return state_; }

    /** Output wire to the APMU: explicit GPMU wake events. */
    sim::Signal &wakeUp() { return wakeUp_; }

    /** Set the state-change observer (the Soc's package tracking). */
    void onStateChange(StateFn fn) { observer_ = std::move(fn); }

    std::uint64_t pc6Entries() const { return pc6Entries_; }

    /** Completed-flow latency statistics, microseconds. */
    const stats::Summary &entryLatencyUs() const { return entryLatencyUs_; }
    const stats::Summary &exitLatencyUs() const { return exitLatencyUs_; }

    const GpmuConfig &config() const { return cfg_; }

  private:
    void setState(State s);
    /** All cores reached CC6: start the demotion timer. */
    void onAllCc6(bool level);
    void startEntry();
    /** Entry steps, chained; each checks for an abort at its boundary. */
    void entryIoL1();
    void entryDramSr();
    void entryClkPll();
    void entryVRet();
    void finishEntry();
    /** Begin the exit flow, unwinding completed entry steps. */
    void startExit();
    void exitVNom();
    void exitPllUngate();
    void exitDramSr();
    void exitIoL1();
    void finishExit();
    using Step = sim::InplaceFunction<void(), 16>;
    /** Run all links/MCs through an op, @p done when all complete
     *  (unless a newer flow started meanwhile). */
    template <typename Range, typename Op>
    void forAll(Range &range, Op op, Step done);

    sim::Simulation &sim_;
    GpmuConfig cfg_;
    std::vector<cpu::Core *> cores_;
    std::vector<io::IoLink *> links_;
    std::vector<dram::MemoryController *> mcs_;
    Clm *clm_;
    PllFarm *plls_;
    State state_ = State::Pc0;
    sim::Signal wakeUp_;
    std::unique_ptr<sim::AndTree> allCc6_;
    sim::EventHandle demotionEvent_;
    std::uint64_t flowGen_ = 0; ///< invalidates stale flow steps
    int joinsPending_ = 0;      ///< forAll() completions still due
    Step joinDone_;             ///< runs when joinsPending_ reaches 0
    bool wakePending_ = false;
    // Which entry steps completed (for unwinding):
    bool doneIoL1_ = false;
    bool doneDramSr_ = false;
    bool doneClkPll_ = false;
    bool doneVRet_ = false;
    sim::Tick flowStart_ = 0;
    std::uint64_t pc6Entries_ = 0;
    stats::Summary entryLatencyUs_;
    stats::Summary exitLatencyUs_;
    StateFn observer_;
};

} // namespace apc::uncore

#endif // APC_UNCORE_GPMU_H
