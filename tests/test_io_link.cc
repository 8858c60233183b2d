/**
 * @file
 * Unit tests for the IO link LTSSM model (io/io_link.h): autonomous L0s
 * entry under AllowL0s, wake-on-traffic, InL0s semantics, L1 flows.
 */

#include <gtest/gtest.h>

#include "io/io_link.h"
#include "power/energy_meter.h"

namespace apc::io {
namespace {

using sim::kNs;
using sim::kUs;

struct LinkFixture
{
    sim::Simulation s;
    power::EnergyMeter m{s};
    IoLinkConfig cfg; ///< the link references it
    IoLink link;

    explicit LinkFixture(IoLinkConfig c = IoLinkConfig::pcie(0))
        : cfg(std::move(c)), link(s, m, cfg)
    {}
};

TEST(IoLink, StartsInL0NotAllowed)
{
    LinkFixture f;
    EXPECT_EQ(f.link.state(), LState::L0);
    EXPECT_FALSE(f.link.inL0s().read());
    // Without AllowL0s, an idle link never enters standby (datacenter
    // baseline behaviour).
    f.s.runUntil(1 * sim::kMs);
    EXPECT_EQ(f.link.state(), LState::L0);
}

TEST(IoLink, EntersL0sAfterIdleWindowWhenAllowed)
{
    LinkFixture f;
    f.link.allowL0s().write(true);
    // Entry window = 1/4 of the 64 ns exit latency = 16 ns.
    f.s.runUntil(15 * kNs);
    EXPECT_EQ(f.link.state(), LState::L0);
    f.s.runUntil(16 * kNs);
    EXPECT_EQ(f.link.state(), LState::L0s);
    EXPECT_TRUE(f.link.inL0s().read());
}

TEST(IoLink, UpiUsesL0pWithFastExit)
{
    LinkFixture f(IoLinkConfig::upi(0));
    f.link.allowL0s().write(true);
    f.s.runUntil(100 * kNs);
    EXPECT_EQ(f.link.state(), LState::L0p);
    sim::Tick done_at = -1;
    f.link.transfer(0, [&] { done_at = f.s.now(); });
    f.s.runAll();
    // L0p exit is ~10 ns (paper footnote 3).
    EXPECT_EQ(done_at, 100 * kNs + 10 * kNs);
}

TEST(IoLink, TransferFromL0sPaysExitLatency)
{
    LinkFixture f;
    f.link.allowL0s().write(true);
    f.s.runUntil(1 * kUs);
    ASSERT_EQ(f.link.state(), LState::L0s);
    sim::Tick done_at = -1;
    f.link.transfer(200 * kNs, [&] { done_at = f.s.now(); });
    // InL0s drops at wake start, not completion.
    EXPECT_FALSE(f.link.inL0s().read());
    f.s.runAll();
    EXPECT_EQ(done_at, 1 * kUs + 64 * kNs + 200 * kNs);
    EXPECT_EQ(f.link.shallowWakes(), 1u);
}

TEST(IoLink, TransferInL0HasNoWakeCost)
{
    LinkFixture f;
    sim::Tick done_at = -1;
    f.link.transfer(200 * kNs, [&] { done_at = f.s.now(); });
    f.s.runAll();
    EXPECT_EQ(done_at, 200 * kNs);
}

TEST(IoLink, BusyLinkDoesNotEnterStandby)
{
    LinkFixture f;
    f.link.allowL0s().write(true);
    f.link.beginTransaction();
    f.s.runUntil(10 * kUs);
    EXPECT_EQ(f.link.state(), LState::L0);
    f.link.endTransaction();
    f.s.runUntil(11 * kUs);
    EXPECT_EQ(f.link.state(), LState::L0s);
}

TEST(IoLink, DisallowWakesStandbyLink)
{
    LinkFixture f;
    f.link.allowL0s().write(true);
    f.s.runUntil(1 * kUs);
    ASSERT_EQ(f.link.state(), LState::L0s);
    f.link.allowL0s().write(false);
    EXPECT_FALSE(f.link.inL0s().read());
    f.s.runAll();
    EXPECT_EQ(f.link.state(), LState::L0);
    // And it stays in L0 afterwards.
    f.s.runUntil(f.s.now() + 10 * kUs);
    EXPECT_EQ(f.link.state(), LState::L0);
}

TEST(IoLink, BackToBackTransfersQueueBehindWake)
{
    LinkFixture f;
    f.link.allowL0s().write(true);
    f.s.runUntil(1 * kUs);
    int done = 0;
    f.link.transfer(100 * kNs, [&] { ++done; });
    f.link.transfer(100 * kNs, [&] { ++done; });
    f.s.runAll();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(f.link.shallowWakes(), 1u); // one wake served both
}

TEST(IoLink, EnterL1SetsInL0sDeeper)
{
    LinkFixture f;
    bool entered = false;
    f.link.enterL1([&] { entered = true; });
    f.s.runAll();
    EXPECT_TRUE(entered);
    EXPECT_EQ(f.link.state(), LState::L1);
    // InL0s means "L0s or deeper" (paper Sec. 4.2.1).
    EXPECT_TRUE(f.link.inL0s().read());
}

TEST(IoLink, ExitL1TakesRetrainLatency)
{
    LinkFixture f;
    f.link.enterL1(nullptr);
    f.s.runAll();
    const sim::Tick t0 = f.s.now();
    sim::Tick at_l0 = -1;
    f.link.exitL1([&] { at_l0 = f.s.now(); });
    f.s.runAll();
    EXPECT_EQ(at_l0, t0 + 6 * kUs);
    EXPECT_EQ(f.link.state(), LState::L0);
}

TEST(IoLink, TransferWakesL1Link)
{
    LinkFixture f;
    f.link.enterL1(nullptr);
    f.s.runAll();
    const sim::Tick t0 = f.s.now();
    sim::Tick done_at = -1;
    f.link.transfer(100 * kNs, [&] { done_at = f.s.now(); });
    EXPECT_FALSE(f.link.inL0s().read());
    f.s.runAll();
    EXPECT_EQ(done_at, t0 + 6 * kUs + 100 * kNs);
}

TEST(IoLink, PowerFollowsState)
{
    LinkFixture f; // PCIe: L0 1.5 W, L0s 0.75 W, L1 0.18 W
    EXPECT_NEAR(f.m.planePower(power::Plane::Package), 1.5, 1e-9);
    f.link.allowL0s().write(true);
    f.s.runUntil(1 * kUs);
    EXPECT_NEAR(f.m.planePower(power::Plane::Package), 0.75, 1e-9);
    f.link.allowL0s().write(false);
    f.s.runAll();
    f.link.enterL1(nullptr);
    f.s.runAll();
    EXPECT_NEAR(f.m.planePower(power::Plane::Package), 0.18, 1e-9);
}

TEST(IoLink, ShallowSavingsMatchCalibration)
{
    // DESIGN.md Sec. 3: total link L0 power 7.5 W, shallow 4.25 W,
    // L1 0.9 W across 3 PCIe + 1 DMI + 2 UPI.
    sim::Simulation s;
    power::EnergyMeter m(s);
    std::vector<IoLinkConfig> cfgs = {
        IoLinkConfig::pcie(0), IoLinkConfig::pcie(1),
        IoLinkConfig::pcie(2), IoLinkConfig::dmi(),
        IoLinkConfig::upi(0), IoLinkConfig::upi(1)};
    double l0 = 0, shallow = 0, l1 = 0;
    for (const auto &c : cfgs) {
        l0 += c.powerL0;
        shallow += c.powerShallow;
        l1 += c.powerL1;
    }
    EXPECT_NEAR(l0, 7.5, 1e-9);
    EXPECT_NEAR(shallow, 4.25, 1e-9);
    EXPECT_NEAR(l1, 0.9, 1e-9);
}

TEST(IoLink, ResidencyTracksStates)
{
    LinkFixture f;
    f.link.allowL0s().write(true);
    f.s.runUntil(1 * sim::kMs);
    const auto &r = f.link.residency();
    const double l0s =
        r.residency(static_cast<std::size_t>(LState::L0s), f.s.now());
    EXPECT_GT(l0s, 0.98);
}

TEST(IoLink, ReentersStandbyAfterTraffic)
{
    LinkFixture f;
    f.link.allowL0s().write(true);
    f.s.runUntil(1 * kUs);
    f.link.transfer(100 * kNs, nullptr);
    f.s.runAll();
    EXPECT_EQ(f.link.state(), LState::L0s);
    EXPECT_EQ(f.link.shallowWakes(), 1u);
}

} // namespace
} // namespace apc::io
