/**
 * @file
 * Unit tests for the power subsystem: energy metering (including ramp
 * integration), RAPL facade, FIVR, PLL and clock tree.
 */

#include <gtest/gtest.h>

#include "power/clock_tree.h"
#include "power/energy_meter.h"
#include "power/fivr.h"
#include "power/pll.h"
#include "power/rapl.h"

namespace apc::power {
namespace {

using sim::kNs;
using sim::kSec;
using sim::kUs;

TEST(EnergyMeter, ConstantPowerIntegration)
{
    sim::Simulation s;
    EnergyMeter m(s);
    PowerLoad load(m, "x", Plane::Package, 10.0);
    s.runUntil(kSec);
    EXPECT_NEAR(load.energyJoules(), 10.0, 1e-9);
    EXPECT_NEAR(m.planeEnergy(Plane::Package), 10.0, 1e-9);
}

TEST(EnergyMeter, PowerChangeSplitsIntegration)
{
    sim::Simulation s;
    EnergyMeter m(s);
    PowerLoad load(m, "x", Plane::Package, 10.0);
    s.runUntil(kSec / 2);
    load.setPower(20.0);
    s.runUntil(kSec);
    EXPECT_NEAR(load.energyJoules(), 5.0 + 10.0, 1e-9);
}

TEST(EnergyMeter, RampIntegratesTrapezoid)
{
    sim::Simulation s;
    EnergyMeter m(s);
    PowerLoad load(m, "x", Plane::Package, 10.0);
    // Ramp 10 W -> 30 W over 1 s: average 20 W -> 20 J.
    load.setRamp(30.0, kSec);
    s.runUntil(kSec);
    EXPECT_NEAR(load.energyJoules(), 20.0, 1e-9);
    // After the ramp the power stays at the end level.
    s.runUntil(2 * kSec);
    EXPECT_NEAR(load.energyJoules(), 50.0, 1e-9);
    EXPECT_NEAR(load.currentPower(), 30.0, 1e-12);
}

TEST(EnergyMeter, MidRampPowerIsLinear)
{
    sim::Simulation s;
    EnergyMeter m(s);
    PowerLoad load(m, "x", Plane::Package, 0.0);
    load.setRamp(100.0, kSec);
    s.runUntil(kSec / 4);
    EXPECT_NEAR(load.currentPower(), 25.0, 1e-9);
    s.runUntil(kSec / 2);
    EXPECT_NEAR(load.currentPower(), 50.0, 1e-9);
}

TEST(EnergyMeter, RampSupersededMidway)
{
    sim::Simulation s;
    EnergyMeter m(s);
    PowerLoad load(m, "x", Plane::Package, 0.0);
    load.setRamp(100.0, kSec);
    s.runUntil(kSec / 2); // at 50 W, 12.5 J so far
    load.setPower(0.0);
    s.runUntil(2 * kSec);
    EXPECT_NEAR(load.energyJoules(), 12.5, 1e-9);
}

TEST(EnergyMeter, PlanesAreSeparate)
{
    sim::Simulation s;
    EnergyMeter m(s);
    PowerLoad a(m, "soc", Plane::Package, 40.0);
    PowerLoad b(m, "dram", Plane::Dram, 5.0);
    s.runUntil(kSec);
    EXPECT_NEAR(m.planeEnergy(Plane::Package), 40.0, 1e-9);
    EXPECT_NEAR(m.planeEnergy(Plane::Dram), 5.0, 1e-9);
    EXPECT_NEAR(m.totalPower(), 45.0, 1e-12);
    EXPECT_NEAR(m.totalEnergy(), 45.0, 1e-9);
}

TEST(EnergyMeter, LoadUnregistersOnDestruction)
{
    sim::Simulation s;
    EnergyMeter m(s);
    {
        PowerLoad tmp(m, "t", Plane::Package, 100.0);
        EXPECT_EQ(m.loads().size(), 1u);
    }
    EXPECT_TRUE(m.loads().empty());
    EXPECT_DOUBLE_EQ(m.totalPower(), 0.0);
}

TEST(Rapl, CountersQuantizeAndAverage)
{
    sim::Simulation s;
    EnergyMeter m(s);
    PowerLoad load(m, "x", Plane::Package, 44.0);
    Rapl rapl(m);
    const auto before = rapl.readCounter(Plane::Package);
    s.runUntil(kSec);
    const auto after = rapl.readCounter(Plane::Package);
    EXPECT_NEAR(rapl.averagePower(before, after), 44.0, 0.01);
}

TEST(Rapl, ZeroWindowIsZeroPower)
{
    sim::Simulation s;
    EnergyMeter m(s);
    Rapl rapl(m);
    const auto a = rapl.readCounter(Plane::Dram);
    EXPECT_DOUBLE_EQ(rapl.averagePower(a, a), 0.0);
}

TEST(Fivr, StartsSettledAtNominal)
{
    sim::Simulation s;
    Fivr f(s, FivrConfig{});
    EXPECT_DOUBLE_EQ(f.voltage(), 0.8);
    EXPECT_TRUE(f.pwrOk().read());
    EXPECT_FALSE(f.ramping());
}

TEST(Fivr, RetentionRampTakes150ns)
{
    // 0.8 V -> 0.5 V at 2 mV/ns = 150 ns (paper Sec. 5.5).
    sim::Simulation s;
    Fivr f(s, FivrConfig{});
    f.toRetention();
    EXPECT_FALSE(f.pwrOk().read());
    EXPECT_EQ(f.settleTimeRemaining(), 150 * kNs);
    s.runAll();
    EXPECT_DOUBLE_EQ(f.voltage(), 0.5);
    EXPECT_TRUE(f.pwrOk().read());
}

TEST(Fivr, VoltageIsLinearDuringRamp)
{
    sim::Simulation s;
    Fivr f(s, FivrConfig{});
    f.toRetention();
    s.runUntil(75 * kNs);
    EXPECT_NEAR(f.voltage(), 0.65, 1e-9);
}

TEST(Fivr, PreemptiveCommandReversesMidRamp)
{
    // A wake mid-entry reverses the ramp from the partial voltage —
    // this is what bounds PC1A's worst-case exit (paper footnote 11).
    sim::Simulation s;
    Fivr f(s, FivrConfig{});
    f.toRetention();
    s.runUntil(50 * kNs); // at 0.7 V
    f.toNominal();
    // Only 100 mV to climb: 50 ns.
    EXPECT_EQ(f.settleTimeRemaining(), 50 * kNs);
    s.runAll();
    EXPECT_DOUBLE_EQ(f.voltage(), 0.8);
    EXPECT_TRUE(f.pwrOk().read());
}

TEST(Fivr, PwrOkEdgeFiresOnceAtSettle)
{
    sim::Simulation s;
    Fivr f(s, FivrConfig{});
    int rises = 0;
    f.pwrOk().subscribe([&](bool v) {
        if (v)
            ++rises;
    });
    f.toRetention();
    s.runAll();
    EXPECT_EQ(rises, 1);
}

TEST(Fivr, RedundantCommandIsNoop)
{
    sim::Simulation s;
    Fivr f(s, FivrConfig{});
    f.toNominal(); // already there
    EXPECT_TRUE(f.pwrOk().read());
    EXPECT_FALSE(f.ramping());
}

TEST(Pll, StartsLocked)
{
    sim::Simulation s;
    EnergyMeter m(s);
    Pll p(s, m, "pll", PllConfig{});
    EXPECT_EQ(p.state(), Pll::State::Locked);
    EXPECT_TRUE(p.locked().read());
    EXPECT_NEAR(p.currentPowerWatts(), 0.007, 1e-12);
}

TEST(Pll, PowerOffDropsLockAndPower)
{
    sim::Simulation s;
    EnergyMeter m(s);
    Pll p(s, m, "pll", PllConfig{});
    p.powerOff();
    EXPECT_EQ(p.state(), Pll::State::Off);
    EXPECT_FALSE(p.locked().read());
    EXPECT_DOUBLE_EQ(p.currentPowerWatts(), 0.0);
}

TEST(Pll, RelockTakesConfiguredLatency)
{
    sim::Simulation s;
    EnergyMeter m(s);
    PllConfig cfg;
    cfg.relockLatency = 5 * kUs;
    Pll p(s, m, "pll", cfg);
    p.powerOff();
    sim::Tick locked_at = -1;
    p.locked().subscribe([&](bool v) {
        if (v)
            locked_at = s.now();
    });
    s.runUntil(100 * kNs);
    p.powerOn();
    EXPECT_EQ(p.state(), Pll::State::Locking);
    s.runAll();
    EXPECT_EQ(p.state(), Pll::State::Locked);
    EXPECT_EQ(locked_at, 100 * kNs + 5 * kUs);
}

TEST(Pll, PowerOnWhileLockedIsNoop)
{
    sim::Simulation s;
    EnergyMeter m(s);
    Pll p(s, m, "pll", PllConfig{});
    p.powerOn();
    EXPECT_EQ(p.state(), Pll::State::Locked);
    EXPECT_EQ(s.events().pendingEvents(), 0u);
}

TEST(Pll, PowerOffDuringLockCancelsIt)
{
    sim::Simulation s;
    EnergyMeter m(s);
    Pll p(s, m, "pll", PllConfig{});
    p.powerOff();
    p.powerOn();
    p.powerOff();
    s.runAll();
    EXPECT_EQ(p.state(), Pll::State::Off);
    EXPECT_FALSE(p.locked().read());
}

TEST(ClockTree, GateAfterLatency)
{
    sim::Simulation s;
    ClockTreeConfig cfg;
    cfg.gateLatency = 4 * kNs; // 2 cycles @ 500 MHz
    ClockTree t(s, cfg);
    EXPECT_TRUE(t.running());
    t.gate();
    EXPECT_TRUE(t.running()); // not yet
    s.runUntil(4 * kNs);
    EXPECT_FALSE(t.running());
    t.ungate();
    s.runAll();
    EXPECT_TRUE(t.running());
}

TEST(ClockTree, RapidGateUngateLastWins)
{
    sim::Simulation s;
    ClockTree t(s, ClockTreeConfig{});
    t.gate();
    t.ungate(); // supersedes before the gate applies
    s.runAll();
    EXPECT_TRUE(t.running());
}

} // namespace
} // namespace apc::power
