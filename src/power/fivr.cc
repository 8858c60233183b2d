#include "power/fivr.h"

#include <cassert>
#include <cmath>

namespace apc::power {

Fivr::Fivr(sim::Simulation &sim, const FivrConfig &cfg)
    : sim_(sim), cfg_(cfg),
      v0_(cfg.nominalVolts), target_(cfg.nominalVolts),
      pwrOk_(sim, true)
{
    rampStart_ = rampEnd_ = sim_.now();
}

double
Fivr::voltageAt(sim::Tick t) const
{
    if (t >= rampEnd_ || rampEnd_ == rampStart_)
        return target_;
    const double frac = static_cast<double>(t - rampStart_)
        / static_cast<double>(rampEnd_ - rampStart_);
    return v0_ + (target_ - v0_) * frac;
}

double
Fivr::voltage() const
{
    return voltageAt(sim_.now());
}

bool
Fivr::ramping() const
{
    return sim_.now() < rampEnd_;
}

sim::Tick
Fivr::settleTimeRemaining() const
{
    const sim::Tick now = sim_.now();
    return now < rampEnd_ ? rampEnd_ - now : 0;
}

void
Fivr::setTarget(double volts)
{
    const sim::Tick now = sim_.now();
    const double v_now = voltageAt(now);
    if (volts == target_ && !ramping())
        return; // already settled at the requested level

    settleEvent_.cancel();
    v0_ = v_now;
    target_ = volts;
    rampStart_ = now;
    const double dv = std::abs(target_ - v0_);
    const sim::Tick ramp =
        sim::fromSeconds(dv / cfg_.slewVoltsPerSec);
    rampEnd_ = now + ramp;
    if (ramp == 0) {
        pwrOk_.write(true);
        return;
    }
    pwrOk_.write(false);
    settleEvent_ = sim_.at(rampEnd_, [this] { pwrOk_.write(true); });
}

} // namespace apc::power
