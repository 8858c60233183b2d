#include "soc/soc.h"

#include <cassert>

namespace apc::soc {

std::unique_ptr<cpu::IdleGovernor>
makeGovernor(const SkxConfig &cfg)
{
    if (cfg.governor == GovernorKind::Menu)
        return std::make_unique<cpu::MenuGovernor>(cfg.menu);
    return std::make_unique<cpu::LadderGovernor>(cfg.ladder);
}

Soc::Soc(sim::Simulation &sim, const SkxConfig &cfg, PackagePolicy policy)
    : sim_(sim), cfg_(cfg), policy_(policy), meter_(sim), rapl_(meter_),
      pkgResidency_(static_cast<std::size_t>(PkgState::Pc0), sim.now())
{
    for (int i = 0; i < cfg_.numCores; ++i)
        cores_.push_back(std::make_unique<cpu::Core>(
            sim, meter_, i, cfg_.core, makeGovernor(cfg_)));

    for (const auto &lc : cfg_.links)
        links_.push_back(std::make_unique<io::IoLink>(sim, meter_, lc));

    for (int i = 0; i < cfg_.numMemCtrls; ++i)
        mcs_.push_back(std::make_unique<dram::MemoryController>(
            sim, meter_, cfg_.mc));

    clm_ = std::make_unique<uncore::Clm>(sim, meter_, cfg_.clm);
    plls_ = std::make_unique<uncore::PllFarm>(sim, meter_, cfg_.pll);
    miscLoad_ = std::make_unique<power::PowerLoad>(
        meter_, "northcap.misc", power::Plane::Package,
        cfg_.northCapMiscWatts);

    auto raw = [](auto &v) {
        std::vector<typename std::remove_reference_t<
            decltype(v)>::value_type::element_type *> out;
        for (auto &p : v)
            out.push_back(p.get());
        return out;
    };

    gpmu_ = std::make_unique<uncore::Gpmu>(sim, cfg_.gpmu, raw(cores_),
                                           raw(links_), raw(mcs_),
                                           clm_.get(), plls_.get());
    gpmu_->onStateChange([this](uncore::Gpmu::State) {
        recomputePkgState();
        drainFabricWaiters();
        notifyPkgState();
    });

    if (policy_ == PackagePolicy::Cpc1a && cfg_.apc.enabled) {
        apmu_ = std::make_unique<core::Apmu>(
            sim, cfg_.apc, raw(cores_), raw(links_), raw(mcs_),
            clm_.get(), plls_.get(), &gpmu_->wakeUp());
        apmu_->onStateChange([this](core::Apmu::State) {
            recomputePkgState();
            drainFabricWaiters();
            notifyPkgState();
        });
    }

    // Fully-idle interval tracking (all cores in CC1 or deeper).
    allIdle_ = std::make_unique<sim::AndTree>(sim, 0);
    for (auto &c : cores_)
        allIdle_->addInput(c->inCc1());
    allIdle_->output().subscribe([this](bool idle) {
        if (idle) {
            idleStart_ = sim_.now();
        } else {
            const sim::Tick d = sim_.now() - idleStart_;
            idlePeriodsUs_.record(sim::toMicros(d));
            fullIdleTime_ += d;
            if (d >= kSocWatchFloor)
                socWatchIdleTime_ += d;
        }
        recomputePkgState();
        notifyPkgState();
    });

    // Fabric availability edges.
    clm_->available().subscribe([this](bool) { drainFabricWaiters(); });
    for (auto &m : mcs_)
        m->active().subscribe([this](bool) { drainFabricWaiters(); });
}

sim::Tick
Soc::fullIdleTime() const
{
    sim::Tick t = fullIdleTime_;
    if (allIdle_->output().read())
        t += sim_.now() - idleStart_;
    return t;
}

sim::Tick
Soc::socWatchIdleTime() const
{
    sim::Tick t = socWatchIdleTime_;
    if (allIdle_->output().read()) {
        const sim::Tick open = sim_.now() - idleStart_;
        if (open >= kSocWatchFloor)
            t += open;
    }
    return t;
}

bool
Soc::fabricReady() const
{
    if (!clm_->available().read())
        return false;
    for (const auto &m : mcs_)
        if (!m->active().read())
            return false;
    return true;
}

void
Soc::whenFabricReady(sim::WaitList::Fn fn)
{
    if (fabricReady()) {
        fn();
        return;
    }
    fabricWaiters_.push(std::move(fn));
}

void
Soc::drainFabricWaiters()
{
    if (fabricWaiters_.empty() || !fabricReady())
        return;
    fabricWaiters_.drain();
}

void
Soc::recomputePkgState()
{
    PkgState next = PkgState::Pc0;
    if (apmu_) {
        switch (apmu_->state()) {
          case core::Apmu::State::Pc1a:
            next = PkgState::Pc1a;
            break;
          case core::Apmu::State::Acc1:
          case core::Apmu::State::Entering:
          case core::Apmu::State::Exiting:
            next = PkgState::Acc1;
            break;
          case core::Apmu::State::Pc0:
            next = allIdle_->output().read() ? PkgState::Pc0idle
                                             : PkgState::Pc0;
            break;
        }
    } else if (gpmu_->state() != uncore::Gpmu::State::Pc0) {
        next = gpmu_->state() == uncore::Gpmu::State::Pc6 ? PkgState::Pc6
                                                          : PkgState::Pc2;
    } else {
        next = allIdle_->output().read() ? PkgState::Pc0idle
                                         : PkgState::Pc0;
    }
    if (next != pkg_) {
        pkg_ = next;
        pkgResidency_.transitionTo(static_cast<std::size_t>(next),
                                   sim_.now());
    }
}

void
Soc::notifyPkgState()
{
    if (pkg_ == notifiedPkg_)
        return;
    notifiedPkg_ = pkg_;
    for (const PkgStateFn &fn : pkgObservers_)
        fn(pkg_);
}

void
Soc::resetStats()
{
    const sim::Tick now = sim_.now();
    pkgResidency_.reset(now);
    idlePeriodsUs_.clear();
    fullIdleTime_ = 0;
    socWatchIdleTime_ = 0;
    if (allIdle_->output().read())
        idleStart_ = now;
    for (auto &c : cores_)
        c->resetResidency(now);
    for (auto &l : links_)
        l->resetResidency(now);
    for (auto &m : mcs_)
        m->resetResidency(now);
}

} // namespace apc::soc
