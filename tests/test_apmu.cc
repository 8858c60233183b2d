/**
 * @file
 * Tests for the APMU / PC1A flow (core/apmu.h) — the paper's central
 * contribution — on the composed Cpc1a SoC: entry conditions, shallow
 * states reached, nanosecond transition latencies, wake paths, and the
 * Table 1 PC1A power level.
 */

#include <gtest/gtest.h>

#include <functional>

#include "core/apmu.h"
#include "soc/soc.h"

namespace apc::core {
namespace {

using sim::kMs;
using sim::kNs;
using sim::kUs;

struct ApcFixture
{
    sim::Simulation s;
    soc::SkxConfig cfg;
    std::unique_ptr<soc::Soc> soc;

    explicit ApcFixture(std::function<void(soc::SkxConfig &)> tweak = {})
    {
        cfg = soc::SkxConfig::forPolicy(soc::PackagePolicy::Cpc1a);
        if (tweak)
            tweak(cfg);
        soc = std::make_unique<soc::Soc>(s, cfg,
                                         soc::PackagePolicy::Cpc1a);
    }

    void
    allIdle()
    {
        for (std::size_t i = 0; i < soc->numCores(); ++i)
            soc->core(i).release();
    }

    Apmu &apmu() { return *soc->apmu(); }
};

TEST(ApmuPc1a, SocBuildsApmuOnlyForCpc1a)
{
    ApcFixture f;
    EXPECT_NE(f.soc->apmu(), nullptr);

    sim::Simulation s2;
    auto c2 = soc::SkxConfig::forPolicy(soc::PackagePolicy::Cshallow);
    soc::Soc other(s2, c2, soc::PackagePolicy::Cshallow);
    EXPECT_EQ(other.apmu(), nullptr);
}

TEST(ApmuPc1a, EntersPc1aOnceAllCoresCc1)
{
    ApcFixture f;
    f.allIdle();
    f.s.runUntil(10 * kUs);
    EXPECT_EQ(f.apmu().state(), Apmu::State::Pc1a);
    EXPECT_TRUE(f.apmu().inPc1a().read());
    EXPECT_EQ(f.soc->pkgState(), soc::PkgState::Pc1a);
    EXPECT_EQ(f.apmu().pc1aEntries(), 1u);
}

TEST(ApmuPc1a, Table2StatesReached)
{
    // Table 2 row PC1A: L3 retention, PLLs on, PCIe/DMI L0s, UPI L0p,
    // DRAM CKE off.
    ApcFixture f;
    f.allIdle();
    f.s.runUntil(10 * kUs);
    EXPECT_DOUBLE_EQ(f.soc->clm().voltage(), 0.5);
    EXPECT_FALSE(f.soc->clm().clockTree().running());
    EXPECT_TRUE(f.soc->plls().allLocked());
    for (std::size_t i = 0; i < f.soc->numLinks(); ++i) {
        const auto st = f.soc->link(i).state();
        EXPECT_TRUE(st == io::LState::L0s || st == io::LState::L0p);
    }
    for (std::size_t i = 0; i < f.soc->numMcs(); ++i)
        EXPECT_EQ(f.soc->mc(i).state(), dram::McState::CkeOff);
}

TEST(ApmuPc1a, PowerMatchesTable1)
{
    ApcFixture f;
    f.allIdle();
    f.s.runUntil(10 * kUs);
    // Paper Table 1: PC1A = 27.5 W SoC + 1.6 W DRAM.
    EXPECT_NEAR(f.soc->meter().planePower(power::Plane::Package), 27.5,
                0.3);
    EXPECT_NEAR(f.soc->meter().planePower(power::Plane::Dram), 1.6,
                0.05);
}

TEST(ApmuPc1a, EntryLatencyIsNanoseconds)
{
    // Paper Sec. 5.5.1: ~18 ns of blocking work.
    ApcFixture f;
    f.allIdle();
    f.s.runUntil(10 * kUs);
    EXPECT_GT(f.apmu().entryLatencyNs().mean(), 0.0);
    EXPECT_LE(f.apmu().entryLatencyNs().max(), 30.0);
}

TEST(ApmuPc1a, IoWakeExitBoundedBy200ns)
{
    ApcFixture f;
    f.allIdle();
    f.s.runUntil(10 * kUs);
    ASSERT_EQ(f.apmu().state(), Apmu::State::Pc1a);

    bool delivered = false;
    f.soc->nic().transfer(0, [&] { delivered = true; });
    f.s.runUntil(11 * kUs);
    EXPECT_TRUE(delivered);
    EXPECT_EQ(f.apmu().lastWakeReason(), Apmu::WakeReason::IoTraffic);
    // Paper Sec. 5.5.2: exit <= 150 ns (we allow the couple of extra
    // FSM cycles), worst case entry+exit <= 200 ns.
    EXPECT_LE(f.apmu().exitLatencyNs().max(), 170.0);
    EXPECT_LE(f.apmu().entryLatencyNs().max() +
                  f.apmu().exitLatencyNs().max(),
              200.0);
}

TEST(ApmuPc1a, FabricReopensWithinExitLatency)
{
    ApcFixture f;
    f.allIdle();
    f.s.runUntil(10 * kUs);
    ASSERT_FALSE(f.soc->fabricReady());
    const sim::Tick t0 = f.s.now();
    sim::Tick ready_at = -1;
    f.soc->nic().transfer(0, [&] {
        f.soc->whenFabricReady([&] { ready_at = f.s.now(); });
    });
    f.s.runUntil(11 * kUs);
    ASSERT_GE(ready_at, 0);
    EXPECT_LE(ready_at - t0, 250 * kNs); // link exit ∥ package exit
}

TEST(ApmuPc1a, CoreWakeGoesToPc0AndDisallowsL0s)
{
    ApcFixture f;
    f.allIdle();
    f.s.runUntil(10 * kUs);
    bool woke = false;
    f.soc->core(2).requestWake([&] { woke = true; });
    f.s.runUntil(20 * kUs);
    EXPECT_TRUE(woke);
    EXPECT_EQ(f.apmu().state(), Apmu::State::Pc0);
    EXPECT_EQ(f.apmu().lastWakeReason(), Apmu::WakeReason::CoreInterrupt);
    // Links are brought back to full L0.
    for (std::size_t i = 0; i < f.soc->numLinks(); ++i)
        EXPECT_EQ(f.soc->link(i).state(), io::LState::L0);
    EXPECT_TRUE(f.soc->fabricReady());
}

TEST(ApmuPc1a, ReentersAfterCoreWake)
{
    ApcFixture f;
    f.allIdle();
    f.s.runUntil(10 * kUs);
    f.soc->core(0).requestWake([&] {
        // Briefly active, then idle again.
        f.s.after(5 * kUs, [&] { f.soc->core(0).release(); });
    });
    f.s.runUntil(100 * kUs);
    EXPECT_EQ(f.apmu().state(), Apmu::State::Pc1a);
    EXPECT_EQ(f.apmu().pc1aEntries(), 2u);
}

TEST(ApmuPc1a, ReentersAfterIoOnlyWake)
{
    ApcFixture f;
    f.allIdle();
    f.s.runUntil(10 * kUs);
    // UPI snoop-like traffic that involves no core.
    f.soc->link(4).transfer(100 * kNs, nullptr);
    f.s.runUntil(100 * kUs);
    EXPECT_EQ(f.apmu().state(), Apmu::State::Pc1a);
    EXPECT_GE(f.apmu().pc1aEntries(), 2u);
}

TEST(ApmuPc1a, WakeDuringEntryTurnsAround)
{
    ApcFixture f;
    f.allIdle();
    // Let the cores reach CC1 (~500 ns entry) and the links take the
    // 16 ns idle window; interrupt right around the APMU entry flow.
    f.s.runUntil(550 * kNs);
    f.soc->core(1).requestWake(nullptr);
    f.s.runUntil(50 * kUs);
    EXPECT_EQ(f.apmu().state(), Apmu::State::Pc0);
    EXPECT_TRUE(f.soc->fabricReady());
}

TEST(ApmuPc1a, GpmuWakeEventExitsAndReenters)
{
    ApcFixture f;
    f.allIdle();
    f.s.runUntil(10 * kUs);
    ASSERT_EQ(f.apmu().state(), Apmu::State::Pc1a);
    f.soc->gpmu().wakeUp().write(true);
    f.soc->gpmu().wakeUp().write(false);
    f.s.runUntil(11 * kUs);
    EXPECT_EQ(f.apmu().lastWakeReason(), Apmu::WakeReason::GpmuEvent);
    // Nothing else woke, so the system drops straight back into PC1A.
    f.s.runUntil(20 * kUs);
    EXPECT_EQ(f.apmu().state(), Apmu::State::Pc1a);
    EXPECT_GE(f.apmu().pc1aEntries(), 2u);
}

TEST(ApmuPc1a, SpeedupVsPc6Exceeds250x)
{
    ApcFixture f;
    f.allIdle();
    f.s.runUntil(10 * kUs);
    f.soc->nic().transfer(0, nullptr);
    f.s.runUntil(20 * kUs);
    const double pc1a_total_ns = f.apmu().entryLatencyNs().max() +
        f.apmu().exitLatencyNs().max();
    // Paper: >250x faster than PC6's >50 µs.
    EXPECT_GT(50000.0 / pc1a_total_ns, 250.0);
}

// --- Ablations (DESIGN.md Sec. 5) ---

TEST(ApmuAblation, PllsOffMakesExitMicroseconds)
{
    ApcFixture f([](soc::SkxConfig &c) { c.apc.keepPllsOn = false; });
    f.allIdle();
    f.s.runUntil(10 * kUs);
    ASSERT_EQ(f.apmu().state(), Apmu::State::Pc1a);
    EXPECT_FALSE(f.soc->plls().allLocked());
    f.soc->nic().transfer(0, nullptr);
    f.s.runUntil(100 * kUs);
    // Exit now pays the 5 µs relock: >25x the keep-on design.
    EXPECT_GT(f.apmu().exitLatencyNs().max(), 5000.0);
}

TEST(ApmuAblation, SelfRefreshInsteadOfCkeOff)
{
    ApcFixture f([](soc::SkxConfig &c) { c.apc.useCkeOff = false; });
    f.allIdle();
    f.s.runUntil(50 * kUs);
    ASSERT_EQ(f.apmu().state(), Apmu::State::Pc1a);
    for (std::size_t i = 0; i < f.soc->numMcs(); ++i)
        EXPECT_EQ(f.soc->mc(i).state(), dram::McState::SelfRefresh);
    // Lower DRAM power than CKE-off...
    EXPECT_NEAR(f.soc->meter().planePower(power::Plane::Dram), 0.51,
                0.05);
    // ...but µs-scale exit.
    f.soc->nic().transfer(0, nullptr);
    f.s.runUntil(200 * kUs);
    EXPECT_GT(f.apmu().exitLatencyNs().max(), 9000.0);
}

TEST(ApmuAblation, NoClmrKeepsClmHot)
{
    ApcFixture f([](soc::SkxConfig &c) { c.apc.useClmr = false; });
    f.allIdle();
    f.s.runUntil(10 * kUs);
    ASSERT_EQ(f.apmu().state(), Apmu::State::Pc1a);
    EXPECT_DOUBLE_EQ(f.soc->clm().voltage(), 0.8);
    EXPECT_TRUE(f.soc->clm().clockTree().running());
    // Power is ~ the CLMR saving higher than full APC (19.84 - 8.31 +
    // dynamic): 27.5 + 11.5 ≈ 39 W.
    EXPECT_NEAR(f.soc->meter().planePower(power::Plane::Package), 39.0,
                0.5);
}

TEST(ApmuAblation, L1LinksInsteadOfShallow)
{
    ApcFixture f([](soc::SkxConfig &c) {
        c.apc.useShallowLinks = false;
    });
    f.allIdle();
    f.s.runUntil(100 * kUs); // L1 entry is µs-scale
    ASSERT_EQ(f.apmu().state(), Apmu::State::Pc1a);
    for (std::size_t i = 0; i < f.soc->numLinks(); ++i)
        EXPECT_EQ(f.soc->link(i).state(), io::LState::L1);
    // Deeper link state: lower power than the real PC1A.
    EXPECT_LT(f.soc->meter().planePower(power::Plane::Package), 27.0);
}

} // namespace
} // namespace apc::core
