/**
 * @file
 * google-benchmark microbenchmarks of the simulation kernel hot paths:
 * event scheduling/dispatch, signal edges and AND-tree propagation,
 * energy-meter updates, and a full PC1A enter/exit round trip. These
 * bound the simulator's own throughput (events/second of host time).
 */

#include <benchmark/benchmark.h>

#include "power/energy_meter.h"
#include "sim/signal.h"
#include "sim/simulation.h"
#include "soc/soc.h"

using namespace apc;

namespace {

void
BM_EventScheduleDispatch(benchmark::State &state)
{
    sim::Simulation s;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        s.after(1, [&sink] { ++sink; });
        s.runAll();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventScheduleDispatch);

void
BM_EventQueueBatch1k(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulation s;
        std::uint64_t sink = 0;
        for (int i = 0; i < 1000; ++i)
            s.after(i, [&sink] { ++sink; });
        s.runAll();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EventQueueBatch1k);

void
BM_SignalEdgeWithObserver(benchmark::State &state)
{
    sim::Simulation s;
    sim::Signal w(s);
    std::uint64_t sink = 0;
    w.subscribe([&sink](bool) { ++sink; });
    bool v = false;
    for (auto _ : state) {
        v = !v;
        w.write(v);
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_SignalEdgeWithObserver);

void
BM_AndTree10Inputs(benchmark::State &state)
{
    sim::Simulation s;
    std::vector<std::unique_ptr<sim::Signal>> inputs;
    sim::AndTree tree(s, 2 * sim::kNs);
    for (int i = 0; i < 10; ++i) {
        inputs.push_back(std::make_unique<sim::Signal>(s, true));
        tree.addInput(*inputs.back());
    }
    s.runAll();
    for (auto _ : state) {
        inputs[0]->write(false);
        inputs[0]->write(true);
        s.runAll();
    }
}
BENCHMARK(BM_AndTree10Inputs);

void
BM_PowerLoadSetPower(benchmark::State &state)
{
    sim::Simulation s;
    power::EnergyMeter m(s);
    power::PowerLoad load(m, "x", power::Plane::Package, 1.0);
    double w = 1.0;
    for (auto _ : state) {
        w = w == 1.0 ? 2.0 : 1.0;
        load.setPower(w);
    }
    benchmark::DoNotOptimize(load.energyJoules());
}
BENCHMARK(BM_PowerLoadSetPower);

void
BM_Pc1aEnterExitRoundTrip(benchmark::State &state)
{
    sim::Simulation s;
    auto cfg = soc::SkxConfig::forPolicy(soc::PackagePolicy::Cpc1a);
    soc::Soc soc(s, cfg, soc::PackagePolicy::Cpc1a);
    for (std::size_t i = 0; i < soc.numCores(); ++i)
        soc.core(i).release();
    s.runUntil(10 * sim::kUs);
    for (auto _ : state) {
        // IO wake, drain, re-enter.
        soc.nic().transfer(100 * sim::kNs, nullptr);
        s.runUntil(s.now() + 50 * sim::kUs);
    }
    state.counters["pc1a_entries"] = static_cast<double>(
        soc.apmu()->pc1aEntries());
}
BENCHMARK(BM_Pc1aEnterExitRoundTrip);

void
BM_SocConstruction(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulation s;
        auto cfg = soc::SkxConfig::forPolicy(soc::PackagePolicy::Cpc1a);
        soc::Soc soc(s, cfg, soc::PackagePolicy::Cpc1a);
        benchmark::DoNotOptimize(soc.numCores());
    }
}
BENCHMARK(BM_SocConstruction);

} // namespace

BENCHMARK_MAIN();
