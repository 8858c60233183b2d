#include "analysis/trace.h"

namespace apc::analysis {

// Storage mapping: one obs::TraceRecord per event, with the interned
// kind id in `rec.id` and the detail id in `rec.name`. Events are
// recorded in subscription-callback order, which forEach preserves.

TraceRecorder::TraceRecorder(soc::Soc &soc, bool trace_cores,
                             std::size_t capacity)
    : soc_(soc), ring_(0, capacity)
{
    kindPkg_ = interner_.intern("pkg");
    kindWire_ = interner_.intern("wire");
    kindCore_ = interner_.intern("core");
    for (std::size_t s = 0; s < soc::kNumPkgStates; ++s)
        pkgNames_[s] = interner_.intern(
            soc::pkgStateName(static_cast<soc::PkgState>(s)));

    soc_.onPkgStateChange([this](soc::PkgState s) {
        record(kindPkg_, pkgNames_[static_cast<std::size_t>(s)]);
    });
    if (auto *apmu = soc_.apmu()) {
        const auto cc1 = wirePair("InCC1");
        apmu->allCoresCc1().subscribe(
            [this, cc1](bool v) { record(kindWire_, cc1[v]); });
        const auto l0s = wirePair("InL0s");
        apmu->allIosL0s().subscribe(
            [this, l0s](bool v) { record(kindWire_, l0s[v]); });
        const auto pc1a = wirePair("InPC1A");
        apmu->inPc1a().subscribe(
            [this, pc1a](bool v) { record(kindWire_, pc1a[v]); });
    }
    const auto pwrok = wirePair("PwrOk");
    soc_.clm().pwrOk().subscribe(
        [this, pwrok](bool v) { record(kindWire_, pwrok[v]); });
    for (std::size_t i = 0; i < soc_.numMcs(); ++i) {
        const auto cke =
            wirePair("mc" + std::to_string(i) + ".Allow_CKE_OFF");
        soc_.mc(i).allowCkeOff().subscribe(
            [this, cke](bool v) { record(kindWire_, cke[v]); });
    }
    if (trace_cores) {
        for (std::size_t i = 0; i < soc_.numCores(); ++i) {
            const auto cc1 =
                wirePair("core" + std::to_string(i) + ".InCC1");
            soc_.core(i).inCc1().subscribe(
                [this, cc1](bool v) { record(kindCore_, cc1[v]); });
        }
    }
}

std::array<obs::StrId, 2>
TraceRecorder::wirePair(const std::string &base)
{
    return {interner_.intern(base + "=0"), interner_.intern(base + "=1")};
}

void
TraceRecorder::record(obs::StrId kind, obs::StrId detail)
{
    ring_.record(obs::TraceKind::Instant, obs::Track::Power,
                 soc_.sim().now(), 0, detail, kind, 0.0);
}

std::vector<TraceEvent>
TraceRecorder::events() const
{
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    ring_.forEach([&out](const obs::TraceRecord &r) {
        out.push_back(TraceEvent{r.ts, static_cast<obs::StrId>(r.id),
                                 r.name});
    });
    return out;
}

std::size_t
TraceRecorder::countKind(const std::string &kind) const
{
    const obs::StrId k = interner_.find(kind);
    if (k == obs::kNoStr)
        return 0;
    std::size_t n = 0;
    ring_.forEach([&n, k](const obs::TraceRecord &r) {
        if (r.id == k)
            ++n;
    });
    return n;
}

std::size_t
TraceRecorder::count(const std::string &kind,
                     const std::string &detail) const
{
    const obs::StrId k = interner_.find(kind);
    const obs::StrId d = interner_.find(detail);
    if (k == obs::kNoStr || d == obs::kNoStr)
        return 0;
    std::size_t n = 0;
    ring_.forEach([&n, k, d](const obs::TraceRecord &r) {
        if (r.id == k && r.name == d)
            ++n;
    });
    return n;
}

bool
TraceRecorder::writeCsv(std::FILE *out) const
{
    bool ok = std::fprintf(out, "time_us,kind,detail\n") >= 0;
    ring_.forEach([this, out, &ok](const obs::TraceRecord &r) {
        if (std::fprintf(out, "%.4f,%s,%s\n", sim::toMicros(r.ts),
                         interner_.str(static_cast<obs::StrId>(r.id))
                             .c_str(),
                         interner_.str(r.name).c_str()) < 0)
            ok = false;
    });
    if (std::fflush(out) != 0)
        ok = false;
    return ok && !std::ferror(out);
}

bool
TraceRecorder::writeCsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool ok = writeCsv(f);
    return std::fclose(f) == 0 && ok;
}

} // namespace apc::analysis
