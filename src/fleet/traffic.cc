#include "fleet/traffic.h"

#include <algorithm>

namespace apc::fleet {

double
DiurnalProfile::multiplierAt(sim::Tick t) const
{
    if (points.empty())
        return 1.0;
    if (period > 0)
        t %= period;
    if (t <= points.front().at)
        return points.front().multiplier;
    for (std::size_t i = 1; i < points.size(); ++i) {
        if (t <= points[i].at) {
            const auto &a = points[i - 1];
            const auto &b = points[i];
            const double f = static_cast<double>(t - a.at) /
                static_cast<double>(b.at - a.at);
            return a.multiplier + f * (b.multiplier - a.multiplier);
        }
    }
    // Past the last point: wrap towards the first point (periodic) or
    // hold the last value.
    if (period > 0 && points.size() >= 2) {
        const auto &a = points.back();
        const DiurnalProfile::Point b{period, points.front().multiplier};
        if (period > a.at) {
            const double f = static_cast<double>(t - a.at) /
                static_cast<double>(period - a.at);
            return a.multiplier + f * (b.multiplier - a.multiplier);
        }
    }
    return points.back().multiplier;
}

DiurnalProfile
DiurnalProfile::dayNight(sim::Tick period, double trough, double peak)
{
    DiurnalProfile p;
    p.period = period;
    p.points = {{0, trough},
                {period / 2, peak},
                {period - 1, trough}};
    return p;
}

TrafficSource::TrafficSource(TrafficConfig cfg, std::uint64_t seed)
    : cfg_(std::move(cfg)), rng_(seed)
{
    workload::WorkloadConfig w;
    w.arrivalKind = cfg_.arrivalKind;
    w.qps = cfg_.qps;
    w.burstiness = cfg_.burstiness;
    w.burstMean = cfg_.burstMean;
    base_ = w.makeArrivals();
}

sim::Tick
TrafficSource::nextArrivalAfter(sim::Tick t)
{
    if (cfg_.qps <= 0)
        return sim::kTickNever;
    // Diurnal modulation by local gap stretching: a gap drawn from the
    // base (mean-rate) process is divided by the multiplier in effect
    // at its start. Exact for piecewise-constant profiles, and a close
    // approximation for slowly varying ones (profile scale >> gaps).
    const double m = std::max(1e-6, cfg_.diurnal.multiplierAt(t));
    const auto gap = static_cast<sim::Tick>(
        static_cast<double>(base_->nextGap(rng_)) / m);
    return t + std::max<sim::Tick>(gap, 1);
}

void
TrafficSource::epoch(sim::Tick from, sim::Tick to,
                     std::vector<TrafficEvent> &out)
{
    out.clear();
    if (next_ < 0)
        next_ = nextArrivalAfter(from);
    while (next_ < to) {
        if (next_ >= from) {
            TrafficEvent ev;
            ev.at = next_;
            // Clamp to 1 tick: a legitimate near-zero CDF draw must
            // not collide with inject()'s "<=0 = sample locally".
            ev.service = cfg_.serviceCdf.valid()
                ? std::max<sim::Tick>(
                      1, static_cast<sim::Tick>(
                             cfg_.serviceCdf.sample(rng_) * cfg_.cdfUnit))
                : 0;
            ev.fanout = (cfg_.fanout.degree > 1 &&
                         rng_.bernoulli(cfg_.fanout.probability))
                ? cfg_.fanout.degree
                : 1;
            out.push_back(ev);
        }
        next_ = nextArrivalAfter(next_);
    }
}

} // namespace apc::fleet
