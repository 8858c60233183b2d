#include "uncore/pll_farm.h"

#include <algorithm>

namespace apc::uncore {

PllFarm::PllFarm(sim::Simulation &sim, power::EnergyMeter &meter,
                 const power::PllConfig &cfg)
{
    const char *names[] = {"pll.pcie0", "pll.pcie1", "pll.pcie2",
                           "pll.dmi", "pll.upi0", "pll.upi1",
                           "pll.clm_mc", "pll.gpmu"};
    for (const char *n : names) {
        plls_.push_back(
            std::make_unique<power::Pll>(sim, meter, n, cfg));
        // The farm is the only observer of its PLLs' lock wires.
        plls_.back()->locked().subscribe([this](bool locked) {
            if (locked && allLocked())
                lockWaiters_.drain();
        });
    }
}

void
PllFarm::powerOffAll()
{
    for (auto &p : plls_)
        p->powerOff();
}

void
PllFarm::powerOnAll(sim::WaitList::Fn done)
{
    // All PLLs relock in parallel; completion is bounded by the slowest.
    for (auto &p : plls_)
        p->powerOn();
    if (!allLocked())
        lockWaiters_.push(std::move(done));
    else
        done();
}

bool
PllFarm::allLocked() const
{
    return std::all_of(plls_.begin(), plls_.end(), [](const auto &p) {
        return p->state() == power::Pll::State::Locked;
    });
}

double
PllFarm::totalPowerWatts() const
{
    double w = 0.0;
    for (const auto &p : plls_)
        w += p->currentPowerWatts();
    return w;
}

} // namespace apc::uncore
