/**
 * @file
 * The SoC's non-core PLLs (paper Sec. 5.4).
 *
 * The reference SKX system has ~18 PLLs; the 10 per-core PLLs are
 * accounted inside the core power states, leaving 8 here: one per PCIe
 * controller (×3), DMI, UPI (×2), one for CLM + memory controllers, and
 * one for the GPMU. Legacy PC6 turns them off (and pays the relock
 * latency on exit); APC keeps them locked for ~7 mW each.
 */

#ifndef APC_UNCORE_PLL_FARM_H
#define APC_UNCORE_PLL_FARM_H

#include <memory>
#include <string>
#include <vector>

#include "power/energy_meter.h"
#include "power/pll.h"
#include "sim/simulation.h"
#include "sim/wait_list.h"

namespace apc::uncore {

/** Container for the non-core PLLs. */
class PllFarm
{
  public:
    /** Builds the default SKX set (8 PLLs). */
    PllFarm(sim::Simulation &sim, power::EnergyMeter &meter,
            const power::PllConfig &cfg);
    PllFarm(const PllFarm &) = delete;
    PllFarm &operator=(const PllFarm &) = delete;

    /** Power all PLLs off (legacy PC6 entry). */
    void powerOffAll();

    /**
     * Power all PLLs on; @p done fires when every PLL reports locked
     * (i.e. after the relock latency when they were off).
     */
    void powerOnAll(sim::WaitList::Fn done);

    /** True when every PLL is locked. */
    bool allLocked() const;

    std::size_t size() const { return plls_.size(); }
    power::Pll &pll(std::size_t i) { return *plls_[i]; }

    /** Total PLL power right now (for reports). */
    double totalPowerWatts() const;

  private:
    std::vector<std::unique_ptr<power::Pll>> plls_;
    /** powerOnAll() callers waiting for the last PLL to lock. */
    sim::WaitList lockWaiters_;
};

} // namespace apc::uncore

#endif // APC_UNCORE_PLL_FARM_H
