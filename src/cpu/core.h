/**
 * @file
 * CPU core C-state model.
 *
 * A core is either Active (CC0, executing), Entering an idle state,
 * resident Idle in CC1/CC1E/CC6, or Exiting back to CC0. The per-core
 * power management agent (PMA, paper Sec. 5.3) exposes the `InCC1` status
 * wire that APC aggregates into the APMU's all-cores-idle input: it is
 * high while the core is resident in CC1 or deeper and drops the moment a
 * wakeup begins, letting the rest of the system exit concurrently with
 * the core's own (much longer) exit.
 */

#ifndef APC_CPU_CORE_H
#define APC_CPU_CORE_H

#include <array>
#include <memory>
#include <vector>

#include "cpu/cstate.h"
#include "cpu/governor.h"
#include "power/energy_meter.h"
#include "sim/signal.h"
#include "sim/simulation.h"
#include "sim/wait_list.h"
#include "stats/residency.h"

namespace apc::cpu {

/** Core configuration: per-C-state latency/power table. */
struct CoreConfig
{
    std::array<CStateParams, kNumCStates> cstates{};

    /**
     * Xeon Silver 4114 calibration (DESIGN.md Sec. 3): CC0 5.30 W,
     * CC1 1.21 W / 2 µs exit, CC1E 0.80 W / 10 µs, CC6 0.01 W / 133 µs.
     * Entry latencies are 1/4 of exit (mwait entry is quick); target
     * residencies follow the intel_idle SKX table.
     */
    static CoreConfig skxDefaults();
};

/** One CPU core. */
class Core
{
  public:
    /** Externally visible execution phase. */
    enum class Phase { Active, Entering, Idle, Exiting };

    /**
     * @param sim      simulation context
     * @param meter    energy meter for the package plane
     * @param id       core number
     * @param cfg      latency/power table, referenced rather than
     *                 copied: it must outlive the core (a SoC's cores
     *                 share the SoC's config)
     * @param governor idle-state selection policy (owned)
     */
    Core(sim::Simulation &sim, power::EnergyMeter &meter, int id,
         const CoreConfig &cfg, std::unique_ptr<IdleGovernor> governor);
    Core(sim::Simulation &, power::EnergyMeter &, int, CoreConfig &&,
         std::unique_ptr<IdleGovernor>) = delete;

    /**
     * The core finished its work and goes idle: the governor picks an
     * idle state, entry begins immediately.
     * @pre phase() == Phase::Active
     */
    void release();

    /**
     * Request a wake to CC0 (interrupt). @p on_active runs once the core
     * is executing again. If already Active, runs synchronously. Multiple
     * concurrent requests coalesce into one wake.
     */
    void requestWake(sim::WaitList::Fn on_active);

    Phase phase() const { return phase_; }
    bool isActive() const { return phase_ == Phase::Active; }

    /** Resident C-state; CC0 unless Phase::Idle. */
    CState cstate() const { return phase_ == Phase::Idle ? state_ : CState::CC0; }

    /** The idle state being entered / resided in / exited. */
    CState idleTarget() const { return state_; }

    /** PMA `InCC1` output: resident in CC1 or deeper, no wake pending. */
    sim::Signal &inCc1() { return inCc1_; }

    /** PMA `InCC6` output: resident in CC6 (GPMU PC6 trigger). */
    sim::Signal &inCc6() { return inCc6_; }

    /** Residency counters indexed by CState. */
    const stats::ResidencyCounter<kNumCStates> &residency() const
    {
        return residency_;
    }

    /**
     * Override the CC0 (active) power level, e.g. from a DVFS governor
     * changing the core's P-state. Takes effect immediately when the
     * core is executing, otherwise at the next wake.
     */
    void setActivePower(double watts);

    /** Present CC0 power level. */
    double activePower() const { return activePowerWatts_; }

    /** Reset residency statistics (start of a measurement window). */
    void
    resetResidency(sim::Tick now)
    {
        residency_.reset(now);
    }

    /** Number of completed wakeups (exit transitions). */
    std::uint64_t wakeups() const { return wakeups_; }

    int id() const { return id_; }
    const CoreConfig &config() const { return cfg_; }
    IdleGovernor &governor() { return *governor_; }

  private:
    const CStateParams &
    params(CState s) const
    {
        return cfg_.cstates[static_cast<std::size_t>(s)];
    }

    /** Begin entering @p s (from release or promotion). */
    void beginEntry(CState s);
    /** Entry latency elapsed: now resident. */
    void finishEntry();
    /** Schedule the governor's promotion to a deeper state, if any. */
    void armPromotion();
    /** Begin the exit transition toward CC0. */
    void beginExit();
    /** Exit latency elapsed: Active, drain wake callbacks. */
    void finishExit();

    sim::Simulation &sim_;
    const CoreConfig &cfg_;
    std::unique_ptr<IdleGovernor> governor_;
    Phase phase_ = Phase::Active;
    CState state_ = CState::CC0; ///< idle target / resident state
    sim::Signal inCc1_;
    sim::Signal inCc6_;
    power::PowerLoad load_;
    stats::ResidencyCounter<kNumCStates> residency_;
    sim::EventHandle transitionEvent_;
    sim::EventHandle promotionEvent_;
    sim::WaitList wakeCallbacks_;
    bool wakePending_ = false;
    int id_;
    sim::Tick idleStart_ = 0;
    std::uint64_t wakeups_ = 0;
    double activePowerWatts_;
};

} // namespace apc::cpu

#endif // APC_CPU_CORE_H
