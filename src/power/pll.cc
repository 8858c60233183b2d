#include "power/pll.h"

namespace apc::power {

Pll::Pll(sim::Simulation &sim, EnergyMeter &meter, const char *name,
         const PllConfig &cfg, Plane plane)
    : sim_(sim), cfg_(cfg), locked_(sim, true),
      load_(meter, name, plane, cfg.powerWatts)
{}

void
Pll::powerOn()
{
    if (state_ != State::Off)
        return;
    state_ = State::Locking;
    load_.setPower(cfg_.powerWatts);
    lockEvent_ = sim_.after(cfg_.relockLatency, [this] {
        state_ = State::Locked;
        locked_.write(true);
    });
}

void
Pll::powerOff()
{
    if (state_ == State::Off)
        return;
    lockEvent_.cancel();
    state_ = State::Off;
    load_.setPower(0.0);
    locked_.write(false);
}

} // namespace apc::power
