#include "obs/metrics.h"

#include <cmath>
#include <limits>

#include "obs/fmt.h"

namespace apc::obs {

void
MetricsSampler::beginSample(sim::Tick now)
{
    sim::RoleGuard own(sampleRole_);
    times_.push_back(now);
    for (auto &v : values_)
        v.push_back(std::numeric_limits<double>::quiet_NaN());
    next_ = now + cfg_.interval;
}

bool
MetricsSampler::writeCsv(std::FILE *out) const
{
    sim::SharedRoleGuard own(sampleRole_);
    bool ok = true;
    const auto put = [out, &ok](const char *fmt, auto... args) {
        if (std::fprintf(out, fmt, args...) < 0)
            ok = false;
    };
    put("t_us,series,entity,value\n");
    for (std::size_t s = 0; s < times_.size(); ++s) {
        for (std::size_t i = 0; i < names_.size(); ++i) {
            const double v = values_[i][s];
            if (std::isnan(v))
                continue;
            put("%s,%s,", fmtFixed(sim::toMicros(times_[s]), 3).c_str(),
                names_[i].c_str());
            if (entities_[i] >= 0)
                put("%d", entities_[i]);
            put(",%s\n", fmtDouble(v).c_str());
        }
    }
    if (std::fflush(out) != 0)
        ok = false;
    return ok && !std::ferror(out);
}

} // namespace apc::obs
