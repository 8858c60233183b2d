/**
 * @file
 * Unit tests for the P-state/DVFS model (cpu/pstate.h) and its server
 * integration (the Sec. 8 race-to-halt comparison substrate).
 */

#include <gtest/gtest.h>

#include "cpu/pstate.h"
#include "server/server_sim.h"

namespace apc::cpu {
namespace {

TEST(PStateTable, SkxPointsAreOrderedAndNominal)
{
    const auto t = PStateTable::skxDefaults();
    ASSERT_GE(t.size(), 3u);
    for (std::size_t i = 1; i < t.size(); ++i) {
        EXPECT_GT(t.point(i).freqGhz, t.point(i - 1).freqGhz);
        EXPECT_GE(t.point(i).volts, t.point(i - 1).volts);
    }
    EXPECT_DOUBLE_EQ(t.nominal().freqGhz, 2.2); // Xeon Silver 4114
    EXPECT_DOUBLE_EQ(t.point(0).freqGhz, 0.8);  // min
    EXPECT_DOUBLE_EQ(t.point(t.size() - 1).freqGhz, 3.0); // turbo
}

TEST(PStateTable, PowerScalesAsV2F)
{
    const auto t = PStateTable::skxDefaults();
    const double nominal = 5.30;
    EXPECT_DOUBLE_EQ(t.activePowerWatts(nominal, t.nominalIndex()),
                     nominal);
    // Min point: (0.70/0.80)^2 * (0.8/2.2) of nominal.
    const double expect =
        nominal * (0.70 / 0.80) * (0.70 / 0.80) * (0.8 / 2.2);
    EXPECT_NEAR(t.activePowerWatts(nominal, 0), expect, 1e-9);
    // Turbo draws more than nominal.
    EXPECT_GT(t.activePowerWatts(nominal, t.size() - 1), nominal);
}

TEST(PStateTable, SlowdownIsInverseFrequency)
{
    const auto t = PStateTable::skxDefaults();
    EXPECT_DOUBLE_EQ(t.slowdown(t.nominalIndex()), 1.0);
    EXPECT_NEAR(t.slowdown(0), 2.2 / 0.8, 1e-12);
    EXPECT_LT(t.slowdown(t.size() - 1), 1.0); // turbo speeds up
}

TEST(PStateTable, IndexForFrequencyClamps)
{
    const auto t = PStateTable::skxDefaults();
    EXPECT_EQ(t.indexForFrequency(0.1), 0u);
    EXPECT_EQ(t.indexForFrequency(2.2), t.nominalIndex());
    EXPECT_EQ(t.indexForFrequency(99.0), t.size() - 1);
}

TEST(DvfsPolicy, LowUtilizationDropsFrequency)
{
    const auto t = PStateTable::skxDefaults();
    DvfsConfig cfg;
    cfg.enabled = true;
    const auto next =
        dvfsNextPState(t, cfg, t.nominalIndex(), /*util=*/0.05);
    EXPECT_LT(next, t.nominalIndex());
    EXPECT_EQ(next, 0u); // 2.2 * 0.05/0.8 = 0.14 GHz -> min point
}

TEST(DvfsPolicy, SaturationJumpsToMax)
{
    const auto t = PStateTable::skxDefaults();
    DvfsConfig cfg;
    const auto next = dvfsNextPState(t, cfg, 0, /*util=*/0.99);
    EXPECT_EQ(next, t.size() - 1);
}

TEST(DvfsPolicy, TargetUtilizationHolds)
{
    const auto t = PStateTable::skxDefaults();
    DvfsConfig cfg;
    // util exactly at target: stay at (or round up to) current freq.
    const auto next = dvfsNextPState(t, cfg, t.nominalIndex(), 0.80);
    EXPECT_EQ(next, t.nominalIndex());
}

TEST(DvfsIntegration, SavesPowerButStretchesService)
{
    auto run = [](bool dvfs) {
        server::ServerConfig cfg;
        cfg.policy = soc::PackagePolicy::Cshallow;
        cfg.workload = workload::WorkloadConfig::memcachedEtc(25e3);
        cfg.duration = 150 * sim::kMs;
        cfg.dvfs.enabled = dvfs;
        server::ServerSim sim(std::move(cfg));
        return sim.run();
    };
    const auto base = run(false);
    const auto dvfs = run(true);
    EXPECT_LT(dvfs.pkgPowerW, base.pkgPowerW);
    // Slower cores -> longer service -> higher latency.
    EXPECT_GT(dvfs.avgLatencyUs, base.avgLatencyUs);
}

TEST(DvfsIntegration, RaceToHaltBeatsDvfsOnTail)
{
    // The paper's Sec. 8 claim, as a regression test.
    auto run = [](soc::PackagePolicy p, bool dvfs) {
        server::ServerConfig cfg;
        cfg.policy = p;
        cfg.workload = workload::WorkloadConfig::memcachedEtc(25e3);
        cfg.duration = 150 * sim::kMs;
        cfg.dvfs.enabled = dvfs;
        server::ServerSim sim(std::move(cfg));
        return sim.run();
    };
    const auto dvfs = run(soc::PackagePolicy::Cshallow, true);
    const auto apc = run(soc::PackagePolicy::Cpc1a, false);
    EXPECT_LT(apc.p99LatencyUs, dvfs.p99LatencyUs);
    // And APC still saves meaningful power at this operating point.
    const auto base = run(soc::PackagePolicy::Cshallow, false);
    EXPECT_LT(apc.totalPowerW(), base.totalPowerW());
}

TEST(CoreActivePower, SetterAffectsLoadWhenActive)
{
    sim::Simulation s;
    power::EnergyMeter m(s);
    LadderGovernor::Config g;
    const CoreConfig cfg = CoreConfig::skxDefaults();
    Core core(s, m, 0, cfg, std::make_unique<LadderGovernor>(g));
    EXPECT_NEAR(m.planePower(power::Plane::Package), 5.30, 1e-9);
    core.setActivePower(2.0);
    EXPECT_NEAR(m.planePower(power::Plane::Package), 2.0, 1e-9);
    // Idle power is unaffected by the P-state.
    core.release();
    s.runUntil(10 * sim::kUs);
    EXPECT_NEAR(m.planePower(power::Plane::Package), 1.21, 1e-9);
    // Wake burns the configured active power again.
    core.requestWake(nullptr);
    s.runAll();
    EXPECT_NEAR(m.planePower(power::Plane::Package), 2.0, 1e-9);
}

} // namespace
} // namespace apc::cpu
