/**
 * @file
 * Unit tests for the memory controller / DRAM power model
 * (dram/memory_controller.h): CKE-off under Allow_CKE_OFF, self-refresh
 * flows, wake latencies, power levels.
 */

#include <gtest/gtest.h>

#include "dram/memory_controller.h"
#include "power/energy_meter.h"

namespace apc::dram {
namespace {

using sim::kNs;
using sim::kUs;

struct McFixture
{
    sim::Simulation s;
    power::EnergyMeter m{s};
    MemoryControllerConfig cfg; ///< the controller references it
    MemoryController mc{s, m, cfg};

    double pkgW() { return m.planePower(power::Plane::Package); }
    double dramW() { return m.planePower(power::Plane::Dram); }
};

TEST(MemoryController, StartsActive)
{
    McFixture f;
    EXPECT_EQ(f.mc.state(), McState::Active);
    EXPECT_TRUE(f.mc.active().read());
    EXPECT_NEAR(f.pkgW(), 1.25, 1e-9);
    EXPECT_NEAR(f.dramW(), 2.75, 1e-9);
}

TEST(MemoryController, NoCkeOffWithoutAllow)
{
    McFixture f;
    f.s.runUntil(1 * sim::kMs);
    EXPECT_EQ(f.mc.state(), McState::Active);
}

TEST(MemoryController, EntersCkeOffWhenAllowedAndIdle)
{
    McFixture f;
    f.mc.allowCkeOff().write(true);
    f.s.runUntil(9 * kNs);
    EXPECT_EQ(f.mc.state(), McState::Active);
    f.s.runUntil(10 * kNs); // 10 ns entry (paper Sec. 5.5)
    EXPECT_EQ(f.mc.state(), McState::CkeOff);
    EXPECT_FALSE(f.mc.active().read());
    EXPECT_NEAR(f.pkgW(), 0.375, 1e-9);
    EXPECT_NEAR(f.dramW(), 0.80, 1e-9);
}

TEST(MemoryController, DisallowWakesWithin24ns)
{
    McFixture f;
    f.mc.allowCkeOff().write(true);
    f.s.runUntil(1 * kUs);
    ASSERT_EQ(f.mc.state(), McState::CkeOff);
    f.mc.allowCkeOff().write(false);
    f.s.runUntil(1 * kUs + 24 * kNs);
    EXPECT_EQ(f.mc.state(), McState::Active);
    EXPECT_EQ(f.mc.ckeWakes(), 1u);
}

TEST(MemoryController, AccessWakesFromCkeOff)
{
    McFixture f;
    f.mc.allowCkeOff().write(true);
    f.s.runUntil(1 * kUs);
    ASSERT_EQ(f.mc.state(), McState::CkeOff);
    sim::Tick ready_at = -1;
    f.mc.access(100 * kNs, [&] { ready_at = f.s.now(); });
    f.s.runAll();
    EXPECT_EQ(ready_at, 1 * kUs + 24 * kNs);
    // After the access drains and the signal is still set, it drops
    // back down.
    EXPECT_EQ(f.mc.state(), McState::CkeOff);
}

TEST(MemoryController, AccessWhileActiveIsImmediate)
{
    McFixture f;
    bool ready = false;
    f.mc.access(10 * kNs, [&] { ready = true; });
    EXPECT_TRUE(ready);
    EXPECT_TRUE(f.mc.busy());
    f.s.runAll();
    EXPECT_FALSE(f.mc.busy());
}

TEST(MemoryController, BusyPreventsPowerDown)
{
    McFixture f;
    f.mc.beginAccess();
    f.mc.allowCkeOff().write(true);
    f.s.runUntil(1 * kUs);
    EXPECT_EQ(f.mc.state(), McState::Active);
    f.mc.endAccess();
    f.s.runUntil(2 * kUs);
    EXPECT_EQ(f.mc.state(), McState::CkeOff);
}

TEST(MemoryController, DramBusyPowerWhileAccessing)
{
    McFixture f;
    EXPECT_NEAR(f.dramW(), 2.75, 1e-9);
    f.mc.beginAccess();
    EXPECT_NEAR(f.dramW(), 3.50, 1e-9); // +0.75 busy
    f.mc.endAccess();
    EXPECT_NEAR(f.dramW(), 2.75, 1e-9);
}

TEST(MemoryController, SelfRefreshEntryExit)
{
    McFixture f;
    bool in_sr = false;
    f.mc.enterSelfRefresh([&] { in_sr = true; });
    f.s.runAll();
    EXPECT_TRUE(in_sr);
    EXPECT_EQ(f.mc.state(), McState::SelfRefresh);
    EXPECT_NEAR(f.pkgW(), 0.30, 1e-9);
    EXPECT_NEAR(f.dramW(), 0.255, 1e-9);

    const sim::Tick t0 = f.s.now();
    sim::Tick out_at = -1;
    f.mc.exitSelfRefresh([&] { out_at = f.s.now(); });
    f.s.runAll();
    EXPECT_EQ(out_at, t0 + 10 * kUs); // µs-scale SR exit
    EXPECT_EQ(f.mc.state(), McState::Active);
}

TEST(MemoryController, AccessWakesFromSelfRefresh)
{
    McFixture f;
    f.mc.enterSelfRefresh(nullptr);
    f.s.runAll();
    const sim::Tick t0 = f.s.now();
    sim::Tick ready_at = -1;
    f.mc.access(0, [&] { ready_at = f.s.now(); });
    f.s.runAll();
    EXPECT_EQ(ready_at, t0 + 10 * kUs);
}

TEST(MemoryController, CkeVsSelfRefreshLatencyGap)
{
    // The design choice PC1A hinges on: CKE-off wakes ~400x faster.
    MemoryControllerConfig cfg;
    EXPECT_GE(cfg.selfRefreshExit / cfg.ckeOffExit, 400);
}

TEST(MemoryController, CalibrationTotalsMatchDesign)
{
    // Two controllers: idle 5.5 W, CKE-off 1.6 W, SR 0.51 W (Table 1
    // derivation in DESIGN.md Sec. 3).
    MemoryControllerConfig cfg;
    EXPECT_NEAR(2 * cfg.dramIdleWatts, 5.5, 1e-9);
    EXPECT_NEAR(2 * cfg.dramCkeOffWatts, 1.6, 1e-9);
    EXPECT_NEAR(2 * cfg.dramSelfRefreshWatts, 0.51, 1e-9);
    EXPECT_NEAR(2 * (cfg.dramIdleWatts + cfg.dramBusyExtraWatts), 7.0,
                1e-9);
}

TEST(MemoryController, ResidencyAccumulates)
{
    McFixture f;
    f.mc.allowCkeOff().write(true);
    f.s.runUntil(1 * sim::kMs);
    const auto &r = f.mc.residency();
    EXPECT_GT(r.residency(static_cast<std::size_t>(McState::CkeOff),
                          f.s.now()),
              0.99);
}

TEST(MemoryController, RapidAllowToggleEndsActive)
{
    McFixture f;
    f.mc.allowCkeOff().write(true);
    f.mc.allowCkeOff().write(false);
    f.s.runAll();
    EXPECT_EQ(f.mc.state(), McState::Active);
}

} // namespace
} // namespace apc::dram
