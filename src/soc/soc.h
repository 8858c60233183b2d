/**
 * @file
 * The composed server SoC: cores, CLM, IO links, memory controllers,
 * PLL farm, GPMU and (under the Cpc1a policy) the APMU, plus package-
 * level residency accounting and the fabric-ready wake path.
 *
 * The "fabric" is the path from an IO link to memory: CLM clocks running
 * at nominal voltage and the memory controllers active. Requests can
 * only be dispatched to cores once the fabric is open — this is what
 * serializes the package exit latency into the request path and lets the
 * simulator measure PC1A's (and PC6's) true latency cost.
 */

#ifndef APC_SOC_SOC_H
#define APC_SOC_SOC_H

#include <memory>
#include <utility>
#include <vector>

#include "core/apmu.h"
#include "cpu/core.h"
#include "dram/memory_controller.h"
#include "io/io_link.h"
#include "power/energy_meter.h"
#include "power/rapl.h"
#include "sim/wait_list.h"
#include "soc/skx_config.h"
#include "stats/histogram.h"
#include "stats/residency.h"
#include "uncore/clm.h"
#include "uncore/gpmu.h"
#include "uncore/pll_farm.h"

namespace apc::soc {

/** Package-level state for residency reporting. */
enum class PkgState : std::size_t
{
    Pc0 = 0,     ///< at least one core active
    Pc0idle = 1, ///< all cores idle, no package state entered
    Acc1 = 2,    ///< APC transient (AllowL0s asserted)
    Pc1a = 3,    ///< the paper's new package C-state
    Pc2 = 4,     ///< legacy transient
    Pc6 = 5,     ///< legacy deep package C-state
};

inline constexpr std::size_t kNumPkgStates = 6;

/** Display name. */
constexpr const char *
pkgStateName(PkgState s)
{
    constexpr const char *names[] = {"PC0", "PC0idle", "ACC1",
                                     "PC1A", "PC2", "PC6"};
    return names[static_cast<std::size_t>(s)];
}

/** The composed system-on-chip. */
class Soc
{
  public:
    Soc(sim::Simulation &sim, const SkxConfig &cfg, PackagePolicy policy);

    // --- component access ---
    cpu::Core &core(std::size_t i) { return *cores_[i]; }
    std::size_t numCores() const { return cores_.size(); }
    io::IoLink &link(std::size_t i) { return *links_[i]; }
    std::size_t numLinks() const { return links_.size(); }
    /** The link carrying client traffic (PCIe0 / the NIC). */
    io::IoLink &nic() { return *links_[0]; }
    dram::MemoryController &mc(std::size_t i) { return *mcs_[i]; }
    std::size_t numMcs() const { return mcs_.size(); }
    uncore::Clm &clm() { return *clm_; }
    uncore::PllFarm &plls() { return *plls_; }
    uncore::Gpmu &gpmu() { return *gpmu_; }
    /** Null unless the Cpc1a policy is active. */
    core::Apmu *apmu() { return apmu_.get(); }
    power::EnergyMeter &meter() { return meter_; }
    power::Rapl &rapl() { return rapl_; }
    sim::Simulation &sim() { return sim_; }
    PackagePolicy policy() const { return policy_; }
    const SkxConfig &config() const { return cfg_; }

    // --- fabric wake path ---
    /** True when the path from IO to memory is open. */
    bool fabricReady() const;

    /** Run @p fn as soon as the fabric is (or becomes) open. */
    void whenFabricReady(sim::WaitList::Fn fn);

    // --- package accounting ---
    /** Current package-level state. */
    PkgState pkgState() const { return pkg_; }

    using PkgStateFn = sim::InplaceFunction<void(PkgState), 16>;

    /**
     * Add an observer of package-state changes (tracing). It runs with
     * the new state once per change, after the SoC has recomputed the
     * state and released the fabric waiters the change let through.
     */
    void
    onPkgStateChange(PkgStateFn fn)
    {
        pkgObservers_.push_back(std::move(fn));
    }

    /** Package residency counters. */
    const stats::ResidencyCounter<kNumPkgStates> &pkgResidency() const
    {
        return pkgResidency_;
    }

    /** All-cores-idle (CC1 or deeper) aggregated wire. */
    sim::Signal &allIdle() { return allIdle_->output(); }

    /**
     * Hand over the distribution of fully-idle period lengths,
     * microseconds. The SoC's own histogram is left unbinned: periods
     * that end later are no longer recorded (stats::Histogram).
     */
    stats::Histogram
    takeIdlePeriodsUs()
    {
        return std::move(idlePeriodsUs_);
    }

    /** Total fully-idle time, including the currently open interval. */
    sim::Tick fullIdleTime() const;

    /**
     * Fully-idle time as SoCWatch would report it: periods shorter than
     * the 10 µs sampling floor are dropped (paper Sec. 6). Includes the
     * currently open interval when it already exceeds the floor.
     */
    sim::Tick socWatchIdleTime() const;

    /** SoCWatch sampling floor. */
    static constexpr sim::Tick kSocWatchFloor = 10 * sim::kUs;

    /** Reset all residency/idle statistics (start of measurement). */
    void resetStats();

  private:
    void recomputePkgState();
    void drainFabricWaiters();
    /** Tell the package-state observers about a change since the last
     *  notification, if any. */
    void notifyPkgState();

    sim::Simulation &sim_;
    SkxConfig cfg_;
    PackagePolicy policy_;
    power::EnergyMeter meter_;
    power::Rapl rapl_;
    std::vector<std::unique_ptr<cpu::Core>> cores_;
    std::vector<std::unique_ptr<io::IoLink>> links_;
    std::vector<std::unique_ptr<dram::MemoryController>> mcs_;
    std::unique_ptr<uncore::Clm> clm_;
    std::unique_ptr<uncore::PllFarm> plls_;
    std::unique_ptr<uncore::Gpmu> gpmu_;
    std::unique_ptr<core::Apmu> apmu_;
    std::unique_ptr<power::PowerLoad> miscLoad_;
    std::unique_ptr<sim::AndTree> allIdle_;
    PkgState pkg_ = PkgState::Pc0;
    PkgState notifiedPkg_ = PkgState::Pc0;
    std::vector<PkgStateFn> pkgObservers_;
    stats::ResidencyCounter<kNumPkgStates> pkgResidency_;
    stats::Histogram idlePeriodsUs_{0.01, 1e7, 32};
    sim::Tick idleStart_ = 0;
    sim::Tick fullIdleTime_ = 0;
    sim::Tick socWatchIdleTime_ = 0;
    sim::WaitList fabricWaiters_;
};

/** Build a governor instance per the configuration. */
std::unique_ptr<cpu::IdleGovernor> makeGovernor(const SkxConfig &cfg);

} // namespace apc::soc

#endif // APC_SOC_SOC_H
