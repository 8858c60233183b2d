#include "uncore/clm.h"

namespace apc::uncore {

Clm::Clm(sim::Simulation &sim, power::EnergyMeter &meter,
         const ClmConfig &cfg)
    : sim_(sim), cfg_(cfg),
      fivr0_(std::make_unique<power::Fivr>(sim, cfg.fivr)),
      fivr1_(std::make_unique<power::Fivr>(sim, cfg.fivr)),
      clockTree_(sim, cfg.clockTree),
      pwrOk_(sim, true),
      available_(sim, true),
      load_(meter, "clm", power::Plane::Package,
            cfg.dynWatts + cfg.leakWattsNominal)
{
    auto on_pwrok = [this](bool) {
        pwrOk_.write(fivr0_->pwrOk().read() && fivr1_->pwrOk().read());
        updateAvailable();
    };
    fivr0_->pwrOk().subscribe(on_pwrok);
    fivr1_->pwrOk().subscribe(on_pwrok);
    clockTree_.runningSignal().subscribe([this](bool) {
        updatePower();
        updateAvailable();
    });
}

void
Clm::updateAvailable()
{
    const bool avail = clockTree_.running() && pwrOk_.read() &&
        fivr0_->target() == cfg_.fivr.nominalVolts;
    available_.write(avail);
}

void
Clm::updatePower()
{
    // Leakage scales (linearly, conservative) with the rail voltage;
    // dynamic power flows only while clocks toggle. During a voltage
    // ramp the load follows the ramp via a linear power segment.
    const double vnom = cfg_.fivr.nominalVolts;
    const double dyn = clockTree_.running() ? cfg_.dynWatts : 0.0;
    const double leak_now =
        cfg_.leakWattsNominal * (fivr0_->voltage() / vnom);
    const double leak_end =
        cfg_.leakWattsNominal * (fivr0_->target() / vnom);
    const sim::Tick settle = fivr0_->settleTimeRemaining();
    if (settle > 0) {
        // Close the current segment at leak_now and ramp to the target.
        load_.setPower(dyn + leak_now);
        load_.setRamp(dyn + leak_end, settle);
    } else {
        load_.setPower(dyn + leak_end);
    }
}

void
Clm::gateClocks()
{
    clockTree_.gate();
}

void
Clm::ungateClocks()
{
    clockTree_.ungate();
}

void
Clm::setRetention(bool ret)
{
    retention_ = ret;
    if (ret) {
        fivr0_->toRetention();
        fivr1_->toRetention();
    } else {
        fivr0_->toNominal();
        fivr1_->toNominal();
    }
    updatePower();
    updateAvailable();
}

} // namespace apc::uncore
