/**
 * @file
 * Design-space question the paper leaves implicit: should the APMU
 * rate-limit PC1A entries (hysteresis) the way OS idle governors
 * rate-limit deep C-states? We subject the system to a wake-storm
 * (high-frequency UPI pokes, the worst case for transition thrash) and
 * sweep the entry-hysteresis knob.
 *
 * Expected answer — and the reason the paper's APMU has none: with
 * ~160 ns round trips, even hundreds of thousands of transitions per
 * second cost negligible energy, so hysteresis only forfeits residency.
 */

#include <functional>

#include "bench_common.h"

#include "soc/soc.h"

using namespace apc;

namespace {

struct StormResult
{
    double pkgPowerW = 0.0;
    std::uint64_t entries = 0;
    double pc1aResidency = 0.0;
};

/** UPI poke storm against an otherwise idle Cpc1a system. */
StormResult
runStorm(sim::Tick hysteresis, sim::Tick poke_period,
         sim::Tick duration)
{
    sim::Simulation s;
    auto cfg = soc::SkxConfig::forPolicy(soc::PackagePolicy::Cpc1a);
    cfg.apc.entryHysteresis = hysteresis;
    soc::Soc soc(s, cfg, soc::PackagePolicy::Cpc1a);
    for (std::size_t i = 0; i < soc.numCores(); ++i)
        soc.core(i).release();

    // Periodic remote snoop traffic on a UPI link.
    std::function<void()> poke = [&] {
        soc.link(4).transfer(100 * sim::kNs, nullptr);
        s.after(poke_period, poke);
    };
    s.after(poke_period, poke);

    s.runUntil(1 * sim::kMs); // settle
    soc.resetStats();
    const auto rapl0 = soc.rapl().readCounter(power::Plane::Package);
    const auto entries0 = soc.apmu()->pc1aEntries();
    s.runUntil(s.now() + duration);
    const auto rapl1 = soc.rapl().readCounter(power::Plane::Package);

    StormResult r;
    r.pkgPowerW = soc.rapl().averagePower(rapl0, rapl1);
    r.entries = soc.apmu()->pc1aEntries() - entries0;
    r.pc1aResidency = soc.pkgResidency().residency(
        static_cast<std::size_t>(soc::PkgState::Pc1a), s.now());
    return r;
}

} // namespace

int
main()
{
    bench::banner("Design question: does PC1A need entry hysteresis?");
    using analysis::TablePrinter;

    const sim::Tick poke = 20 * sim::kUs; // 50K wakes/s storm
    const sim::Tick hys[] = {0, 1 * sim::kUs, 10 * sim::kUs,
                             100 * sim::kUs};
    const sim::Tick duration = bench::benchDuration(50 * sim::kMs);
    const double window_s = sim::toSeconds(duration);

    std::FILE *csv = bench::csvSink();
    if (csv)
        std::fprintf(csv, "hysteresis_ns,entries_per_s,"
                          "pc1a_residency,pkg_w\n");

    TablePrinter t("UPI wake storm (50K pokes/s), idle cores, "
                   "hysteresis sweep");
    t.header({"Hysteresis", "PC1A entries/s", "PC1A residency",
              "Package W"});
    for (const sim::Tick h : hys) {
        const auto r = runStorm(h, poke, duration);
        const double rate = static_cast<double>(r.entries) / window_s;
        t.row({sim::formatTime(h), TablePrinter::num(rate, 0),
               TablePrinter::percent(r.pc1aResidency),
               TablePrinter::num(r.pkgPowerW)});
        if (csv)
            std::fprintf(csv, "%.0f,%.1f,%.6f,%.3f\n", sim::toNanos(h),
                         rate, r.pc1aResidency, r.pkgPowerW);
    }
    t.print();
    const bool csv_ok = bench::closeCsv(csv);
    std::printf("\nReading: transitions are so cheap (~160 ns, no PLL "
                "relock, no state loss) that rate-limiting them only "
                "loses residency and therefore power — the paper's "
                "hysteresis-free APMU is the right design.\n");
    return csv_ok ? 0 : 1;
}
