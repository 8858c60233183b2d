/**
 * @file
 * Memory controller + DRAM device power model (paper Sec. 3.1, 4.2.2).
 *
 * Two DRAM power-saving mechanisms matter to APC:
 *
 * - **CKE-off power-down**: per-rank clock-enable gating with ns-scale
 *   transitions (entry ~10 ns, exit ~24 ns) and ≥50% power reduction.
 *   APC adds the `Allow_CKE_OFF` input: while high, the controller drops
 *   into CKE-off as soon as all outstanding transactions complete.
 * - **Self-refresh**: the DRAM refreshes itself and most of the SoC-DRAM
 *   interface powers down. Deepest savings, but µs-scale exit; legacy
 *   package C-states (PC6) use it, PC1A deliberately does not.
 *
 * Each MemoryController owns one PowerLoad on the Package plane (the
 * controller + DDR PHY) and one on the DRAM plane (the devices).
 */

#ifndef APC_DRAM_MEMORY_CONTROLLER_H
#define APC_DRAM_MEMORY_CONTROLLER_H

#include <cstdint>
#include <vector>

#include "power/energy_meter.h"
#include "sim/signal.h"
#include "sim/simulation.h"
#include "sim/wait_list.h"
#include "stats/residency.h"

namespace apc::dram {

/** Controller/DRAM power mode. */
enum class McState : std::size_t
{
    Active = 0,      ///< CKE on; DRAM ready
    CkeOff = 1,      ///< clock-enable dropped; ns-scale wake
    SelfRefresh = 2, ///< DRAM self-refreshing; µs-scale wake
};

inline constexpr std::size_t kNumMcStates = 3;

/** Display name. */
constexpr const char *
mcStateName(McState s)
{
    switch (s) {
      case McState::Active:
        return "Active";
      case McState::CkeOff:
        return "CKE-off";
      case McState::SelfRefresh:
        return "SelfRefresh";
    }
    return "?";
}

/** Per-controller configuration (calibration in DESIGN.md Sec. 3). */
struct MemoryControllerConfig
{
    sim::Tick ckeOffEntry = 10 * sim::kNs;
    sim::Tick ckeOffExit = 24 * sim::kNs;
    sim::Tick selfRefreshEntry = 1 * sim::kUs;
    sim::Tick selfRefreshExit = 10 * sim::kUs;
    /** Controller + DDR PHY power (Package plane). */
    double mcActiveWatts = 1.25;
    double mcCkeOffWatts = 0.375;
    double mcSelfRefreshWatts = 0.30;
    /** DRAM device power (DRAM plane), per controller. */
    double dramIdleWatts = 2.75;    ///< CKE on, no traffic
    double dramBusyExtraWatts = 0.75; ///< added while transactions run
    double dramCkeOffWatts = 0.80;
    double dramSelfRefreshWatts = 0.255;
};

/** One of the SoC's memory controllers. */
class MemoryController
{
  public:
    /** A callback parked until the controller is active. */
    using Done = sim::WaitList::Fn;
    /** A callback carried inside a parked access or a transition
     *  event, so it takes a small capture. */
    using SmallDone = sim::InplaceFunction<void(), 16>;

    /** @p cfg is referenced rather than copied: it must outlive the
     *  controller (a SoC's controllers share the SoC's config). */
    MemoryController(sim::Simulation &sim, power::EnergyMeter &meter,
                     const MemoryControllerConfig &cfg);
    MemoryController(sim::Simulation &, power::EnergyMeter &,
                     MemoryControllerConfig &&) = delete;

    /**
     * Issue a memory access. Wakes the DRAM as needed; @p on_ready fires
     * when the controller can serve (the caller then brackets the actual
     * use with begin/endAccess or relies on the implicit transaction this
     * call holds until @p hold_time elapses).
     */
    void access(sim::Tick hold_time, SmallDone on_ready);

    /** Manually bracket a period of memory traffic. */
    void beginAccess();
    void endAccess();

    /** APC input: while high, idle controller drops CKE. */
    sim::Signal &allowCkeOff() { return allowCkeOff_; }

    /** Status wire: high while the controller can serve immediately. */
    sim::Signal &active() { return active_; }

    /** GPMU (PC6) flow: put DRAM into self-refresh. */
    void enterSelfRefresh(SmallDone done);

    /** GPMU (PC6) flow: leave self-refresh. */
    void exitSelfRefresh(Done done);

    McState state() const { return state_; }
    bool busy() const { return transactions_ > 0; }

    /** Residency counters indexed by McState. */
    const stats::ResidencyCounter<kNumMcStates> &residency() const
    {
        return residency_;
    }

    /** Reset residency statistics (start of a measurement window). */
    void
    resetResidency(sim::Tick now)
    {
        residency_.reset(now);
    }

    /** Completed CKE-off wakeups. */
    std::uint64_t ckeWakes() const { return ckeWakes_; }

    const MemoryControllerConfig &config() const { return cfg_; }

  private:
    void setState(McState s);
    void updatePower();
    /** Enter CKE-off if allowed and idle. */
    void maybePowerDown();
    /** Begin waking to Active; waiters drain at completion. */
    void beginWake();

    sim::Simulation &sim_;
    const MemoryControllerConfig &cfg_;
    McState state_ = McState::Active;
    int transactions_ = 0;
    bool transitioning_ = false;
    sim::Signal allowCkeOff_;
    sim::Signal active_;
    power::PowerLoad mcLoad_;
    power::PowerLoad dramLoad_;
    stats::ResidencyCounter<kNumMcStates> residency_;
    sim::EventHandle downEvent_;       ///< pending CKE-off entry
    sim::EventHandle transitionEvent_; ///< wake / self-refresh entry
    sim::WaitList waiters_;
    std::uint64_t ckeWakes_ = 0;
};

} // namespace apc::dram

#endif // APC_DRAM_MEMORY_CONTROLLER_H
