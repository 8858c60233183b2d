#include "power/energy_meter.h"

#include <algorithm>
#include <cassert>

namespace apc::power {

PowerLoad::PowerLoad(EnergyMeter &meter, const char *name, Plane plane,
                     double watts)
    : meter_(meter), name_(name), plane_(plane)
{
    segStart_ = segEnd_ = meter_.sim().now();
    p0_ = p1_ = watts;
    meter_.loads_.push_back(this);
}

PowerLoad::~PowerLoad()
{
    auto &v = meter_.loads_;
    v.erase(std::remove(v.begin(), v.end(), this), v.end());
}

double
PowerLoad::powerAt(sim::Tick t) const
{
    assert(t >= segStart_);
    if (t >= segEnd_ || segEnd_ == segStart_)
        return p1_;
    const double frac = static_cast<double>(t - segStart_)
        / static_cast<double>(segEnd_ - segStart_);
    return p0_ + (p1_ - p0_) * frac;
}

double
PowerLoad::segmentEnergy(sim::Tick t) const
{
    if (t <= segStart_)
        return 0.0;
    double joules = 0.0;
    // Linear part: trapezoid between segStart_ and min(t, segEnd_).
    const sim::Tick ramp_end = std::min(t, segEnd_);
    if (ramp_end > segStart_) {
        const double avg = 0.5 * (p0_ + powerAt(ramp_end));
        joules += avg * sim::toSeconds(ramp_end - segStart_);
    }
    // Constant tail after the ramp.
    if (t > segEnd_)
        joules += p1_ * sim::toSeconds(t - segEnd_);
    return joules;
}

void
PowerLoad::closeSegment()
{
    const sim::Tick now = meter_.sim().now();
    accumulatedJ_ += segmentEnergy(now);
    p0_ = powerAt(now);
    segStart_ = segEnd_ = now;
    p1_ = p0_;
}

void
PowerLoad::setPower(double watts)
{
    closeSegment();
    p0_ = p1_ = watts;
}

void
PowerLoad::setRamp(double end_watts, sim::Tick duration)
{
    assert(duration >= 0);
    closeSegment();
    if (duration <= 0) {
        p0_ = p1_ = end_watts;
        return;
    }
    p1_ = end_watts;
    segEnd_ = segStart_ + duration;
}

double
PowerLoad::currentPower() const
{
    return powerAt(meter_.sim().now());
}

double
PowerLoad::energyJoules() const
{
    return accumulatedJ_ + segmentEnergy(meter_.sim().now());
}

double
EnergyMeter::planePower(Plane plane) const
{
    double w = 0.0;
    for (const auto *l : loads_)
        if (l->plane() == plane)
            w += l->currentPower();
    return w;
}

double
EnergyMeter::planeEnergy(Plane plane) const
{
    double j = 0.0;
    for (const auto *l : loads_)
        if (l->plane() == plane)
            j += l->energyJoules();
    return j;
}

double
EnergyMeter::totalPower() const
{
    double w = 0.0;
    for (const auto *l : loads_)
        w += l->currentPower();
    return w;
}

double
EnergyMeter::totalEnergy() const
{
    double j = 0.0;
    for (const auto *l : loads_)
        j += l->energyJoules();
    return j;
}

} // namespace apc::power
