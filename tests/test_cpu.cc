/**
 * @file
 * Unit tests for the CPU core C-state model and idle governors.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cpu/core.h"
#include "cpu/governor.h"
#include "power/energy_meter.h"

namespace apc::cpu {
namespace {

using sim::kUs;

/** A core references its config, so the tests' cores share this one. */
const CoreConfig kSkxCore = CoreConfig::skxDefaults();

std::unique_ptr<Core>
makeCore(sim::Simulation &s, power::EnergyMeter &m,
         CStateMask mask = CStateMask::shallowOnly(),
         sim::Tick promote1 = 20 * kUs, sim::Tick promote2 = 200 * kUs)
{
    LadderGovernor::Config g;
    g.mask = mask;
    g.cc1ToCc1e = promote1;
    g.cc1eToCc6 = promote2;
    return std::make_unique<Core>(s, m, 0, kSkxCore,
                                  std::make_unique<LadderGovernor>(g));
}

TEST(CoreConfig, SkxDefaultsMatchCalibration)
{
    const auto c = CoreConfig::skxDefaults();
    EXPECT_DOUBLE_EQ(c.cstates[0].powerWatts, 5.30);
    EXPECT_DOUBLE_EQ(c.cstates[1].powerWatts, 1.21);
    EXPECT_EQ(c.cstates[1].exitLatency, 2 * kUs);
    EXPECT_EQ(c.cstates[3].exitLatency, 133 * kUs); // CC6, paper Sec. 3.1
}

TEST(Core, StartsActive)
{
    sim::Simulation s;
    power::EnergyMeter m(s);
    auto core = makeCore(s, m);
    EXPECT_TRUE(core->isActive());
    EXPECT_EQ(core->cstate(), CState::CC0);
    EXPECT_FALSE(core->inCc1().read());
}

TEST(Core, ReleaseEntersCc1AfterEntryLatency)
{
    sim::Simulation s;
    power::EnergyMeter m(s);
    auto core = makeCore(s, m);
    core->release();
    EXPECT_EQ(core->phase(), Core::Phase::Entering);
    s.runUntil(1 * kUs); // entry = exit/4 = 500 ns
    EXPECT_EQ(core->phase(), Core::Phase::Idle);
    EXPECT_EQ(core->cstate(), CState::CC1);
    EXPECT_TRUE(core->inCc1().read());
}

TEST(Core, WakeFromCc1TakesExitLatency)
{
    sim::Simulation s;
    power::EnergyMeter m(s);
    auto core = makeCore(s, m);
    core->release();
    s.runUntil(10 * kUs);
    sim::Tick woke_at = -1;
    core->requestWake([&] { woke_at = s.now(); });
    // InCC1 must drop immediately (concurrent package exit).
    EXPECT_FALSE(core->inCc1().read());
    s.runAll();
    EXPECT_EQ(woke_at, 10 * kUs + 2 * kUs);
    EXPECT_TRUE(core->isActive());
    EXPECT_EQ(core->wakeups(), 1u);
}

TEST(Core, WakeWhenActiveIsSynchronous)
{
    sim::Simulation s;
    power::EnergyMeter m(s);
    auto core = makeCore(s, m);
    bool called = false;
    core->requestWake([&] { called = true; });
    EXPECT_TRUE(called);
}

TEST(Core, WakeDuringEntryTurnsAround)
{
    sim::Simulation s;
    power::EnergyMeter m(s);
    auto core = makeCore(s, m);
    core->release();
    // Interrupt mid-entry (entry is 500 ns).
    s.runUntil(200 * sim::kNs);
    sim::Tick woke_at = -1;
    core->requestWake([&] { woke_at = s.now(); });
    s.runAll();
    // Completes entry (at 500 ns) then exits (2 µs).
    EXPECT_EQ(woke_at, 500 * sim::kNs + 2 * kUs);
    EXPECT_TRUE(core->isActive());
}

TEST(Core, CoalescesConcurrentWakeRequests)
{
    sim::Simulation s;
    power::EnergyMeter m(s);
    auto core = makeCore(s, m);
    core->release();
    s.runUntil(10 * kUs);
    int calls = 0;
    core->requestWake([&] { ++calls; });
    core->requestWake([&] { ++calls; });
    s.runAll();
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(core->wakeups(), 1u);
}

TEST(Core, LadderPromotionToCc6)
{
    sim::Simulation s;
    power::EnergyMeter m(s);
    auto core = makeCore(s, m, CStateMask::allEnabled(), 20 * kUs,
                         100 * kUs);
    core->release();
    s.runUntil(10 * kUs);
    EXPECT_EQ(core->cstate(), CState::CC1);
    s.runUntil(40 * kUs);
    EXPECT_EQ(core->cstate(), CState::CC1E);
    s.runUntil(200 * kUs);
    EXPECT_EQ(core->cstate(), CState::CC6);
    EXPECT_TRUE(core->inCc6().read());
    EXPECT_TRUE(core->inCc1().read()); // CC1-or-deeper
}

TEST(Core, NoPromotionWhenMaskShallow)
{
    sim::Simulation s;
    power::EnergyMeter m(s);
    auto core = makeCore(s, m, CStateMask::shallowOnly());
    core->release();
    s.runUntil(10 * sim::kMs);
    EXPECT_EQ(core->cstate(), CState::CC1);
}

TEST(Core, Cc6WakeTakes133us)
{
    sim::Simulation s;
    power::EnergyMeter m(s);
    auto core = makeCore(s, m, CStateMask::allEnabled(), 10 * kUs,
                         10 * kUs);
    core->release();
    s.runUntil(500 * kUs);
    ASSERT_EQ(core->cstate(), CState::CC6);
    const sim::Tick t0 = s.now();
    sim::Tick woke_at = -1;
    core->requestWake([&] { woke_at = s.now(); });
    s.runAll();
    EXPECT_EQ(woke_at, t0 + 133 * kUs);
}

TEST(Core, ResidencyTracksStates)
{
    sim::Simulation s;
    power::EnergyMeter m(s);
    auto core = makeCore(s, m);
    core->release();
    s.runUntil(1 * sim::kMs);
    const auto &r = core->residency();
    const double cc1 = r.residency(static_cast<std::size_t>(CState::CC1),
                                   s.now());
    EXPECT_GT(cc1, 0.99 * (1.0 - 0.0005)); // all but the 500 ns entry
}

TEST(Core, PowerDropsInCc1)
{
    sim::Simulation s;
    power::EnergyMeter m(s);
    auto core = makeCore(s, m);
    EXPECT_NEAR(m.planePower(power::Plane::Package), 5.30, 1e-9);
    core->release();
    s.runUntil(10 * kUs);
    EXPECT_NEAR(m.planePower(power::Plane::Package), 1.21, 1e-9);
}

TEST(Core, EnergyAccountsWakeTransitionAtActivePower)
{
    sim::Simulation s;
    power::EnergyMeter m(s);
    auto core = makeCore(s, m);
    core->release();
    s.runUntil(100 * kUs);
    const double before = m.planeEnergy(power::Plane::Package);
    core->requestWake(nullptr);
    s.runAll(); // 2 µs exit at 5.30 W
    const double delta = m.planeEnergy(power::Plane::Package) - before;
    EXPECT_NEAR(delta, 5.30 * 2e-6, 1e-9);
}

TEST(LadderGovernor, PromotionSequence)
{
    LadderGovernor::Config cfg;
    cfg.mask = CStateMask::allEnabled();
    cfg.cc1ToCc1e = 10 * kUs;
    cfg.cc1eToCc6 = 50 * kUs;
    LadderGovernor g(cfg);
    EXPECT_EQ(g.initialState(), CState::CC1);
    CState next;
    EXPECT_EQ(g.promoteAfter(CState::CC1, next), 10 * kUs);
    EXPECT_EQ(next, CState::CC1E);
    EXPECT_EQ(g.promoteAfter(CState::CC1E, next), 50 * kUs);
    EXPECT_EQ(next, CState::CC6);
    EXPECT_EQ(g.promoteAfter(CState::CC6, next), sim::kTickNever);
}

TEST(LadderGovernor, SkipsDisabledCc1e)
{
    LadderGovernor::Config cfg;
    cfg.mask = CStateMask{{true, true, false, true}};
    cfg.cc1ToCc1e = 10 * kUs;
    cfg.cc1eToCc6 = 50 * kUs;
    LadderGovernor g(cfg);
    CState next;
    EXPECT_EQ(g.promoteAfter(CState::CC1, next), 60 * kUs);
    EXPECT_EQ(next, CState::CC6);
}

TEST(LadderGovernor, ShallowMaskNeverPromotes)
{
    LadderGovernor g(LadderGovernor::Config{});
    CState next;
    EXPECT_EQ(g.promoteAfter(CState::CC1, next), sim::kTickNever);
}

TEST(MenuGovernor, PicksDeepestFittingState)
{
    MenuGovernor::Config cfg;
    cfg.mask = CStateMask::allEnabled();
    const auto core_cfg = CoreConfig::skxDefaults();
    for (std::size_t i = 0; i < kNumCStates; ++i)
        cfg.params[i] = core_cfg.cstates[i];
    cfg.initialPrediction = 1 * sim::kMs; // > CC6 target residency
    MenuGovernor g(cfg);
    EXPECT_EQ(g.initialState(), CState::CC6);
}

TEST(MenuGovernor, ShortPredictionStaysShallow)
{
    MenuGovernor::Config cfg;
    cfg.mask = CStateMask::allEnabled();
    const auto core_cfg = CoreConfig::skxDefaults();
    for (std::size_t i = 0; i < kNumCStates; ++i)
        cfg.params[i] = core_cfg.cstates[i];
    cfg.initialPrediction = 5 * kUs;
    MenuGovernor g(cfg);
    EXPECT_EQ(g.initialState(), CState::CC1);
}

TEST(MenuGovernor, EwmaAdapts)
{
    MenuGovernor::Config cfg;
    cfg.mask = CStateMask::allEnabled();
    cfg.initialPrediction = 1 * sim::kMs;
    cfg.ewmaAlpha = 0.5;
    MenuGovernor g(cfg);
    for (int i = 0; i < 20; ++i)
        g.recordIdle(10 * kUs);
    EXPECT_LT(g.predictedIdle(), 11 * kUs);
    EXPECT_GE(g.predictedIdle(), 10 * kUs);
}

TEST(CStateMask, DeepestHelper)
{
    EXPECT_EQ(CStateMask::shallowOnly().deepest(), CState::CC1);
    EXPECT_EQ(CStateMask::allEnabled().deepest(), CState::CC6);
    const CStateMask m{{true, true, true, false}};
    EXPECT_EQ(m.deepest(), CState::CC1E);
}

} // namespace
} // namespace apc::cpu
