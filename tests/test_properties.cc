/**
 * @file
 * Property-based and parameterized invariant tests.
 *
 * These sweep the configuration/seed space and assert properties that
 * must hold for *any* parameterization:
 *  - energy accounting conserves (plane totals == sum of loads, energy
 *    is monotone, average power within physical bounds),
 *  - the APMU never reports PC1A unless every IOSM/CLMR condition holds
 *    (checked live, on every edge, under random traffic),
 *  - the system always recovers to a serviceable state after any wake,
 *  - FIVR output stays within [retention, nominal] under arbitrary
 *    preemptive command sequences,
 *  - residency fractions always sum to 1.
 */

#include <gtest/gtest.h>

#include "power/fivr.h"
#include "server/server_sim.h"
#include "soc/soc.h"

namespace apc {
namespace {

using sim::kNs;
using sim::kUs;

// --- FIVR fuzz: random preemptive commands -------------------------

class FivrFuzz : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(FivrFuzz, VoltageStaysInRangeAndSettles)
{
    sim::Simulation s(GetParam());
    power::FivrConfig cfg;
    power::Fivr f(s, cfg);
    for (int i = 0; i < 300; ++i) {
        // Random command at a random time, often mid-ramp.
        const bool ret = s.rng().bernoulli(0.5);
        if (ret)
            f.toRetention();
        else
            f.toNominal();
        const auto step =
            static_cast<sim::Tick>(s.rng().uniformInt(1, 200)) * kNs;
        s.runUntil(s.now() + step);
        const double v = f.voltage();
        EXPECT_GE(v, cfg.retentionVolts - 1e-9);
        EXPECT_LE(v, cfg.nominalVolts + 1e-9);
        // PwrOk implies settled at the commanded target.
        if (f.pwrOk().read()) {
            EXPECT_FALSE(f.ramping());
            EXPECT_DOUBLE_EQ(v, f.target());
        }
    }
    s.runAll();
    EXPECT_TRUE(f.pwrOk().read());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FivrFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- APMU invariants under random traffic ---------------------------

class ApmuInvariants : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ApmuInvariants, Pc1aImpliesAllConditions)
{
    sim::Simulation s(GetParam());
    auto cfg = soc::SkxConfig::forPolicy(soc::PackagePolicy::Cpc1a);
    soc::Soc soc(s, cfg, soc::PackagePolicy::Cpc1a);
    for (std::size_t i = 0; i < soc.numCores(); ++i)
        soc.core(i).release();

    std::uint64_t checks = 0;
    soc.apmu()->inPc1a().subscribe([&](bool v) {
        if (!v)
            return;
        ++checks;
        // On the InPC1A rising edge every technique must be engaged.
        for (std::size_t i = 0; i < soc.numLinks(); ++i)
            EXPECT_TRUE(soc.link(i).inL0s().read())
                << soc.link(i).name();
        EXPECT_TRUE(soc.clm().inRetention());
        EXPECT_FALSE(soc.clm().clockTree().running());
        EXPECT_TRUE(soc.plls().allLocked());
        for (std::size_t i = 0; i < soc.numCores(); ++i)
            EXPECT_TRUE(soc.core(i).inCc1().read());
    });

    // Random traffic: NIC packets, direct core wakes, UPI chatter.
    for (int i = 0; i < 200; ++i) {
        s.runUntil(s.now() +
                   static_cast<sim::Tick>(s.rng().uniformInt(1, 80)) *
                       kUs);
        switch (s.rng().uniformInt(0, 2)) {
          case 0:
            soc.nic().transfer(100 * kNs, nullptr);
            break;
          case 1: {
            const auto c = static_cast<std::size_t>(
                s.rng().uniformInt(0, 9));
            soc.core(c).requestWake([&soc, &s, c] {
                s.after(2 * kUs, [&soc, c] { soc.core(c).release(); });
            });
            break;
          }
          default:
            soc.link(4).transfer(50 * kNs, nullptr);
            break;
        }
    }
    s.runUntil(s.now() + 200 * kUs);
    EXPECT_GT(checks, 10u) << "PC1A was rarely entered; test is vacuous";
    // The system must end in a coherent, serviceable state.
    soc.nic().transfer(0, nullptr);
    s.runUntil(s.now() + 300 * kUs);
    EXPECT_TRUE(soc.fabricReady() ||
                soc.apmu()->state() == core::Apmu::State::Pc1a ||
                soc.apmu()->state() == core::Apmu::State::Entering);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApmuInvariants,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// --- Energy conservation across policies and loads -------------------

struct EnergyCase
{
    soc::PackagePolicy policy;
    double qps;
};

class EnergyConservation : public ::testing::TestWithParam<EnergyCase>
{};

TEST_P(EnergyConservation, PlaneEnergyEqualsSumOfLoads)
{
    const auto p = GetParam();
    server::ServerConfig cfg;
    cfg.policy = p.policy;
    cfg.workload = workload::WorkloadConfig::memcachedEtc(p.qps);
    cfg.duration = 50 * sim::kMs;
    server::ServerSim sim(std::move(cfg));
    auto &soc = sim.soc();
    const auto res = sim.run();

    double pkg_sum = 0, dram_sum = 0;
    for (const auto *l : soc.meter().loads()) {
        EXPECT_GE(l->energyJoules(), 0.0) << l->name();
        if (l->plane() == power::Plane::Package)
            pkg_sum += l->energyJoules();
        else
            dram_sum += l->energyJoules();
    }
    EXPECT_NEAR(soc.meter().planeEnergy(power::Plane::Package), pkg_sum,
                1e-6);
    EXPECT_NEAR(soc.meter().planeEnergy(power::Plane::Dram), dram_sum,
                1e-6);

    // Physical bounds: between the deepest and the saturated state.
    EXPECT_GE(res.pkgPowerW, 11.0);
    EXPECT_LE(res.pkgPowerW, 86.0);
    EXPECT_GE(res.dramPowerW, 0.4);
    EXPECT_LE(res.dramPowerW, 7.5);

    // Residency fractions sum to one.
    double total = 0;
    for (double f : res.pkgResidency)
        total += f;
    EXPECT_NEAR(total, 1.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EnergyConservation,
    ::testing::Values(
        EnergyCase{soc::PackagePolicy::Cshallow, 0},
        EnergyCase{soc::PackagePolicy::Cshallow, 10e3},
        EnergyCase{soc::PackagePolicy::Cshallow, 100e3},
        EnergyCase{soc::PackagePolicy::Cdeep, 0},
        EnergyCase{soc::PackagePolicy::Cdeep, 10e3},
        EnergyCase{soc::PackagePolicy::Cdeep, 100e3},
        EnergyCase{soc::PackagePolicy::Cpc1a, 0},
        EnergyCase{soc::PackagePolicy::Cpc1a, 10e3},
        EnergyCase{soc::PackagePolicy::Cpc1a, 100e3}));

// --- RAPL counters are monotone --------------------------------------

TEST(EnergyProperties, RaplCountersMonotone)
{
    sim::Simulation s;
    auto cfg = soc::SkxConfig::forPolicy(soc::PackagePolicy::Cpc1a);
    soc::Soc soc(s, cfg, soc::PackagePolicy::Cpc1a);
    for (std::size_t i = 0; i < soc.numCores(); ++i)
        soc.core(i).release();
    std::uint64_t prev_pkg = 0, prev_dram = 0;
    for (int i = 0; i < 50; ++i) {
        s.runUntil(s.now() + 100 * kUs);
        if (i % 7 == 0)
            soc.nic().transfer(100 * kNs, nullptr);
        const auto pkg =
            soc.rapl().readCounter(power::Plane::Package).counter;
        const auto dram =
            soc.rapl().readCounter(power::Plane::Dram).counter;
        EXPECT_GE(pkg, prev_pkg);
        EXPECT_GE(dram, prev_dram);
        prev_pkg = pkg;
        prev_dram = dram;
    }
}

// --- Latency sweep sanity (parameterized over QPS) --------------------

class LatencySweep : public ::testing::TestWithParam<double>
{};

TEST_P(LatencySweep, OrderingAndBoundsHold)
{
    server::ServerConfig cfg;
    cfg.policy = soc::PackagePolicy::Cpc1a;
    cfg.workload = workload::WorkloadConfig::memcachedEtc(GetParam());
    cfg.duration = 80 * sim::kMs;
    server::ServerSim sim(std::move(cfg));
    const auto r = sim.run();
    EXPECT_GT(r.requests, 0u);
    // Latency must at least cover the network constant and respect
    // quantile ordering (bin-resolution tolerance on the histogram).
    EXPECT_GE(r.avgLatencyUs, 117.0);
    EXPECT_LE(r.p50LatencyUs, r.p95LatencyUs * 1.05);
    EXPECT_LE(r.p95LatencyUs, r.p99LatencyUs * 1.05);
    EXPECT_LE(r.p99LatencyUs, r.maxLatencyUs * 1.05);
    // Whenever PC1A was exercised its transitions stayed in bounds.
    if (r.pc1aEntries > 0) {
        EXPECT_LE(r.apmuEntryNsMax + r.apmuExitNsMax, 200.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Qps, LatencySweep,
                         ::testing::Values(2e3, 8e3, 20e3, 60e3, 150e3,
                                           400e3));

// --- Idle-period accounting -------------------------------------------

TEST(IdleAccounting, SocWatchNeverExceedsTrueIdle)
{
    for (const double qps : {5e3, 50e3}) {
        server::ServerConfig cfg;
        cfg.policy = soc::PackagePolicy::Cshallow;
        cfg.workload = workload::WorkloadConfig::memcachedEtc(qps);
        cfg.duration = 60 * sim::kMs;
        server::ServerSim sim(std::move(cfg));
        const auto r = sim.run();
        EXPECT_LE(r.socWatchIdleFraction, r.allIdleFraction + 1e-9);
        EXPECT_GE(r.allIdleFraction, 0.0);
        EXPECT_LE(r.allIdleFraction, 1.0);
    }
}

} // namespace
} // namespace apc
