/**
 * @file
 * Tests for the APMU entry-hysteresis knob (core/apc_config.h): zero
 * (the paper's design) must be behaviour-identical to before, and a
 * nonzero setting must rate-limit re-entries without wedging the FSM.
 */

#include <gtest/gtest.h>

#include <functional>

#include "soc/soc.h"

namespace apc::core {
namespace {

using sim::kMs;
using sim::kNs;
using sim::kUs;

std::unique_ptr<soc::Soc>
makeApc(sim::Simulation &s, sim::Tick hysteresis)
{
    auto cfg = soc::SkxConfig::forPolicy(soc::PackagePolicy::Cpc1a);
    cfg.apc.entryHysteresis = hysteresis;
    auto soc = std::make_unique<soc::Soc>(s, cfg,
                                          soc::PackagePolicy::Cpc1a);
    for (std::size_t i = 0; i < soc->numCores(); ++i)
        soc->core(i).release();
    return soc;
}

TEST(Hysteresis, ZeroReentersImmediately)
{
    sim::Simulation s;
    auto soc = makeApc(s, 0);
    s.runUntil(10 * kUs);
    ASSERT_EQ(soc->apmu()->state(), Apmu::State::Pc1a);
    soc->link(4).transfer(100 * kNs, nullptr);
    s.runUntil(20 * kUs);
    EXPECT_EQ(soc->apmu()->state(), Apmu::State::Pc1a);
    EXPECT_EQ(soc->apmu()->pc1aEntries(), 2u);
}

TEST(Hysteresis, DelaysReentryByConfiguredTime)
{
    sim::Simulation s;
    auto soc = makeApc(s, 50 * kUs);
    s.runUntil(10 * kUs);
    ASSERT_EQ(soc->apmu()->state(), Apmu::State::Pc1a);
    soc->link(4).transfer(100 * kNs, nullptr);
    // Shortly after the wake: back in ACC1, but rate-limited.
    s.runUntil(15 * kUs);
    EXPECT_EQ(soc->apmu()->state(), Apmu::State::Acc1);
    EXPECT_EQ(soc->apmu()->pc1aEntries(), 1u);
    // After the hysteresis window it re-enters on its own.
    s.runUntil(100 * kUs);
    EXPECT_EQ(soc->apmu()->state(), Apmu::State::Pc1a);
    EXPECT_EQ(soc->apmu()->pc1aEntries(), 2u);
}

TEST(Hysteresis, RateLimitsEntriesUnderWakeStorm)
{
    auto storm = [](sim::Tick hysteresis) {
        sim::Simulation s;
        auto soc = makeApc(s, hysteresis);
        std::function<void()> poke = [&s, &soc, &poke] {
            soc->link(4).transfer(100 * kNs, nullptr);
            s.after(20 * kUs, poke);
        };
        s.after(20 * kUs, poke);
        s.runUntil(5 * kMs);
        return soc->apmu()->pc1aEntries();
    };
    const auto without = storm(0);
    const auto with = storm(100 * kUs);
    EXPECT_GT(without, 4 * with);
    EXPECT_GT(with, 0u);
}

TEST(Hysteresis, CoreWakeDuringWindowStillGoesToPc0)
{
    sim::Simulation s;
    auto soc = makeApc(s, 200 * kUs);
    s.runUntil(10 * kUs);
    soc->link(4).transfer(100 * kNs, nullptr); // IO wake -> ACC1, gated
    s.runUntil(15 * kUs);
    ASSERT_EQ(soc->apmu()->state(), Apmu::State::Acc1);
    bool woke = false;
    soc->core(0).requestWake([&] { woke = true; });
    s.runUntil(30 * kUs);
    EXPECT_TRUE(woke);
    EXPECT_EQ(soc->apmu()->state(), Apmu::State::Pc0);
    EXPECT_TRUE(soc->fabricReady());
    // And the stale hysteresis timer must not fire a bogus entry.
    s.runUntil(400 * kUs);
    EXPECT_EQ(soc->apmu()->state(), Apmu::State::Pc0);
}

} // namespace
} // namespace apc::core
