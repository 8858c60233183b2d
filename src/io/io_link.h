/**
 * @file
 * High-speed IO link model (PCIe / DMI / UPI) with an LTSSM-style state
 * machine and the two wires IOSM adds (paper Sec. 4.2.1, 5.1):
 *
 * - `AllowL0s` (input): while high, the link may autonomously enter its
 *   shallow state once idle for the entry window (¼ of the exit latency,
 *   the `L0S_ENTRY_LAT=1` encoding).
 * - `InL0s` (output): high while the link is resident in its shallow (or
 *   deeper) state; dropped the moment a wake begins, so the APMU can run
 *   the package exit concurrently with the link's own exit.
 *
 * Traffic is modeled as transfers: a transfer wakes the link if needed,
 * holds it busy for the transfer time, and completion is reported via
 * callback. The GPMU additionally forces links into L1 for PC6.
 */

#ifndef APC_IO_IO_LINK_H
#define APC_IO_IO_LINK_H

#include <cstdint>
#include <string>
#include <vector>

#include "io/lstate.h"
#include "power/energy_meter.h"
#include "sim/containers.h"
#include "sim/signal.h"
#include "sim/simulation.h"
#include "sim/wait_list.h"
#include "stats/residency.h"

namespace apc::io {

/** Per-link configuration. */
struct IoLinkConfig
{
    std::string name = "link";
    /** Shallow standby state this link supports (L0s, or L0p for UPI). */
    LState shallowState = LState::L0s;
    sim::Tick shallowExitLatency = 64 * sim::kNs;
    /** Idle time before autonomous shallow entry; 0 = ¼ of exit. */
    sim::Tick shallowEntryWindow = 0;
    sim::Tick l1ExitLatency = 6 * sim::kUs; ///< retrain + PLL
    sim::Tick l1EntryLatency = 2 * sim::kUs;
    double powerL0 = 1.5;
    double powerShallow = 0.75;
    double powerL1 = 0.18;

    /** Presets calibrated per DESIGN.md Sec. 3. */
    static IoLinkConfig pcie(int index);
    static IoLinkConfig dmi();
    static IoLinkConfig upi(int index);

    sim::Tick
    entryWindow() const
    {
        return shallowEntryWindow > 0 ? shallowEntryWindow
                                      : shallowExitLatency / 4;
    }
};

/** One high-speed IO link + controller. */
class IoLink
{
  public:
    /** Completion of a transfer or an L1 exit. */
    using Done = sim::WaitList::Fn;
    /** Completion of an L1 entry; it rides inside the entry event. */
    using EntryDone = sim::InplaceFunction<void(), 16>;

    /** @p cfg is referenced rather than copied: it must outlive the
     *  link (a SoC's links reference the SoC's config). */
    IoLink(sim::Simulation &sim, power::EnergyMeter &meter,
           const IoLinkConfig &cfg);
    IoLink(sim::Simulation &, power::EnergyMeter &, IoLinkConfig &&) =
        delete;

    /**
     * Transfer @p payload_time worth of traffic across the link. Wakes
     * the link as needed (shallow exit or L1 retrain), then holds it
     * busy; @p done fires when the payload has crossed.
     */
    void transfer(sim::Tick payload_time, Done done);

    /** Manually mark the link busy/idle (for agents with open DMA). */
    void beginTransaction();
    void endTransaction();

    /** Force the link into L1 (GPMU PC6 entry); @p done on completion. */
    void enterL1(EntryDone done);

    /** Bring the link out of L1 (PC6 exit); @p done when L0. */
    void exitL1(Done done);

    LState state() const { return state_; }
    bool busy() const { return transactions_ > 0; }

    /** IOSM input: gate on autonomous shallow entry. */
    sim::Signal &allowL0s() { return allowL0s_; }

    /** IOSM output: resident in shallow state (or deeper). */
    sim::Signal &inL0s() { return inL0s_; }

    /** Residency counters indexed by LState. */
    const stats::ResidencyCounter<kNumLStates> &residency() const
    {
        return residency_;
    }

    /** Reset residency statistics (start of a measurement window). */
    void
    resetResidency(sim::Tick now)
    {
        residency_.reset(now);
    }

    /** Completed shallow-state wakeups. */
    std::uint64_t shallowWakes() const { return shallowWakes_; }

    /** Transfers started over this link (DMA bursts, payloads). */
    std::uint64_t transfers() const { return transfers_; }

    const IoLinkConfig &config() const { return cfg_; }
    const std::string &name() const { return cfg_.name; }

  private:
    /** (Re)arm or cancel the idle timer for shallow entry. */
    void updateIdleTimer();
    void enterShallow();
    /** Begin waking from the shallow state or L1; the wake waiters
     *  run at L0. */
    void beginWake();
    void setState(LState s);

    sim::Simulation &sim_;
    const IoLinkConfig &cfg_;
    LState state_ = LState::L0;
    int transactions_ = 0;
    bool exiting_ = false; ///< wake in flight
    bool enteringL1_ = false;
    sim::Signal allowL0s_;
    sim::Signal inL0s_;
    power::PowerLoad load_;
    stats::ResidencyCounter<kNumLStates> residency_;
    sim::EventHandle idleTimer_;
    sim::EventHandle wakeEvent_;
    sim::EventHandle entryEvent_;
    sim::WaitList wakeWaiters_;
    /** Completions of transfers in flight; their events carry the
     *  slot, so a completion may be as large as a parked callback. */
    sim::SlotPool<Done> transferDone_;
    std::uint64_t shallowWakes_ = 0;
    std::uint64_t transfers_ = 0;
};

} // namespace apc::io

#endif // APC_IO_IO_LINK_H
