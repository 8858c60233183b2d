#include "obs/slo.h"

#include <algorithm>

#include "stats/rank.h"

namespace apc::obs {

const char *
sliName(Sli s)
{
    constexpr const char *names[kNumSlis] = {"latency", "availability",
                                             "power"};
    return names[static_cast<std::size_t>(s)];
}

namespace {

Name
alertTraceName(std::size_t sli)
{
    return static_cast<Name>(
        static_cast<std::uint32_t>(Name::AlertLatency) + sli);
}

Name
burnTraceName(std::size_t sli)
{
    return static_cast<Name>(
        static_cast<std::uint32_t>(Name::BurnLatency) + sli);
}

} // namespace

SloMonitor::SloMonitor(SloConfig cfg, double default_latency_slo_us,
                       sim::Tick epoch, double peak_qps)
    : cfg_(cfg)
{
    if (cfg_.latencyThresholdUs <= 0.0)
        cfg_.latencyThresholdUs = default_latency_slo_us;
    policies_[0] = cfg_.fast;
    policies_[1] = cfg_.slow;
    for (BurnPolicy &p : policies_) {
        // A window shorter than one epoch would evaluate over zero
        // sealed buckets; clamp to something evaluable.
        p.longWindow = std::max<sim::Tick>(p.longWindow, 1);
        p.shortWindow =
            std::min(std::max<sim::Tick>(p.shortWindow, 1), p.longWindow);
    }
    // Right after a seal, a window of length w holds ceil(w / epoch)
    // buckets plus the one about to be evicted or released.
    const sim::Tick e = std::max<sim::Tick>(epoch, 1);
    const auto buckets = [e](sim::Tick w) {
        return static_cast<std::size_t>((w + e - 1) / e) + 1;
    };
    ring_.resize(buckets(
        std::max(policies_[0].longWindow, policies_[1].longWindow)));
    // Each sample buffer holds an epoch's samples at the peak rate,
    // half again as many and 64 more, up to maxSamplesPerEpoch. The
    // fullest epochs measured fit: 1.31x the rate's 2 104 samples per
    // epoch on an MMPP fleet (perfbench's observed_fleet), 1.43x its 88
    // on a Poisson one. Completions bunched by an outage or by
    // retransmits can overfill a buffer; it grows and keeps that
    // capacity, since spare_ hands each buffer back.
    const std::size_t buffers = buckets(policies_[0].longWindow);
    const double want = 1.5 * peak_qps * sim::toSeconds(e) + 64;
    const double cap = static_cast<double>(cfg_.maxSamplesPerEpoch);
    const std::size_t samples = want < cap
        ? static_cast<std::size_t>(want)
        : cfg_.maxSamplesPerEpoch;
    cur_.latency.reserve(samples);
    spare_.reserve(buffers);
    spare_.resize(buffers - 1);
    for (std::vector<double> &b : spare_)
        b.reserve(samples);
    p99Runs_.reserve(buffers);
}

void
SloMonitor::recordLatency(double us)
{
    const std::size_t lat = static_cast<std::size_t>(Sli::Latency);
    const std::size_t avail = static_cast<std::size_t>(Sli::Availability);
    if (us <= cfg_.latencyThresholdUs)
        ++cur_.good[lat];
    else
        ++cur_.bad[lat];
    ++cur_.good[avail];
    if (cur_.latency.size() < cfg_.maxSamplesPerEpoch)
        cur_.latency.push_back(us);
    else
        ++latDropped_;
}

void
SloMonitor::recordLost()
{
    ++cur_.bad[static_cast<std::size_t>(Sli::Availability)];
}

void
SloMonitor::setCapCounters(std::uint64_t samples,
                           std::uint64_t violations)
{
    capSamplesNow_ = samples;
    capViolationsNow_ = violations;
}

double
SloMonitor::errorBudget(std::size_t sli) const
{
    double objective = 0.0;
    switch (static_cast<Sli>(sli)) {
    case Sli::Latency:
        objective = cfg_.latencyObjective;
        break;
    case Sli::Availability:
        objective = cfg_.availabilityObjective;
        break;
    case Sli::Power:
        objective = cfg_.powerObjective;
        break;
    }
    return std::max(1.0 - objective, 1e-12);
}

void
SloMonitor::windowCounts(std::size_t sli, sim::Tick from,
                         std::uint64_t &good, std::uint64_t &bad) const
{
    good = bad = 0;
    // Newest buckets sit at the back; stop at the first bucket fully
    // outside the window. A bucket belongs to every window its end
    // falls in (windows are tens of epochs, so the partial-overlap
    // error of the oldest bucket is one epoch's worth at most).
    for (std::size_t i = numSealed_; i-- > 0;) {
        const Bucket &b = sealed(i);
        if (b.t1 <= from)
            break;
        good += b.good[sli];
        bad += b.bad[sli];
    }
}

double
SloMonitor::burnRate(std::size_t sli, sim::Tick t1,
                     sim::Tick window) const
{
    std::uint64_t good = 0, bad = 0;
    windowCounts(sli, t1 - window, good, bad);
    const std::uint64_t total = good + bad;
    if (total == 0)
        return 0.0;
    const double bad_frac =
        static_cast<double>(bad) / static_cast<double>(total);
    return bad_frac / errorBudget(sli);
}

double
SloMonitor::windowP99()
{
    p99Runs_.clear();
    for (std::size_t i = numSealed_; i-- > numSealed_ - numSampled_;) {
        const std::vector<double> &lat = sealed(i).latency;
        p99Runs_.push_back({lat.data(), lat.data() + lat.size()});
    }
    return stats::quantileSortedRuns(p99Runs_, 99, 100);
}

void
SloMonitor::onEpoch(sim::Tick t0, sim::Tick t1)
{
    // Power SLI: the epoch's settled-sample delta across the fleet.
    const std::size_t pw = static_cast<std::size_t>(Sli::Power);
    const std::uint64_t ds = capSamplesNow_ - capSamplesPrev_;
    const std::uint64_t dv = capViolationsNow_ - capViolationsPrev_;
    capSamplesPrev_ = capSamplesNow_;
    capViolationsPrev_ = capViolationsNow_;
    cur_.good[pw] += ds - dv;
    cur_.bad[pw] += dv;

    cur_.t0 = t0;
    cur_.t1 = t1;
    // Sorted once here, so every window p99 this bucket takes part in
    // only selects across the window's sorted runs.
    std::sort(cur_.latency.begin(), cur_.latency.end());
    if (numSealed_ == ring_.size()) {
        // Epochs shorter than the one the ring was sized for.
        std::rotate(ring_.begin(),
                    ring_.begin() + static_cast<std::ptrdiff_t>(head_),
                    ring_.end());
        head_ = 0;
        ring_.resize(2 * ring_.size());
    }
    sealed(numSealed_++) = std::move(cur_);
    ++numSampled_;

    // Buckets that left the fast long window hand their samples back
    // (the one just sealed never has); buckets no window can see
    // anymore leave the ring. The longest window is at least the fast
    // one, so evicted buckets hold no samples.
    const sim::Tick fast_from = t1 - policies_[0].longWindow;
    while (sealed(numSealed_ - numSampled_).t1 <= fast_from) {
        std::vector<double> &lat = sealed(numSealed_ - numSampled_).latency;
        lat.clear();
        spare_.push_back(std::move(lat));
        --numSampled_;
    }
    const sim::Tick horizon =
        t1 - std::max(policies_[0].longWindow, policies_[1].longWindow);
    while (numSealed_ > 0 && sealed(0).t1 <= horizon) {
        head_ = (head_ + 1) % ring_.size();
        --numSealed_;
    }
    cur_ = Bucket{};
    if (!spare_.empty()) {
        cur_.latency = std::move(spare_.back());
        spare_.pop_back();
    }

    const double p99 = windowP99();
    worstP99Us_ = std::max(worstP99Us_, p99);

    for (std::size_t s = 0; s < kNumSlis; ++s) {
        for (std::size_t p = 0; p < kNumBurnPolicies; ++p) {
            const BurnPolicy &pol = policies_[p];
            const double burn_long = burnRate(s, t1, pol.longWindow);
            const double burn_short = burnRate(s, t1, pol.shortWindow);
            const double sustained = std::min(burn_long, burn_short);
            if (sustained > worstBurn_) {
                worstBurn_ = sustained;
                worstSli_ = static_cast<Sli>(s);
            }
            AlertState &st = states_[s][p];
            if (st.active)
                st.worstWhileActive =
                    std::max(st.worstWhileActive, sustained);
            const bool over = burn_long >= pol.threshold &&
                burn_short >= pol.threshold;
            if (over == st.active)
                continue;
            AlertEvent ev;
            ev.at = t1;
            ev.sli = static_cast<Sli>(s);
            ev.policy = static_cast<std::uint8_t>(p);
            ev.fire = over;
            ev.burnLong = burn_long;
            ev.burnShort = burn_short;
            ev.windowP99Us = p99;
            alerts_.push_back(ev);
            if (over) {
                ++fired_;
                st.active = true;
                st.firedAt = t1;
                st.worstWhileActive = sustained;
            } else {
                ++resolved_;
                st.active = false;
                if (trace_)
                    trace_->span(st.firedAt, t1 - st.firedAt,
                                 alertTraceName(s), Track::Health, p,
                                 st.worstWhileActive);
            }
        }
        if (trace_)
            trace_->counter(t1, burnTraceName(s), Track::Health,
                            burnRate(s, t1, policies_[0].longWindow));
    }
    if (anyActive())
        inViolation_ += t1 - t0;
}

bool
SloMonitor::anyActive() const
{
    for (const auto &per_sli : states_)
        for (const AlertState &st : per_sli)
            if (st.active)
                return true;
    return false;
}

void
SloMonitor::finish(sim::Tick end)
{
    for (std::size_t s = 0; s < kNumSlis; ++s) {
        for (std::size_t p = 0; p < kNumBurnPolicies; ++p) {
            AlertState &st = states_[s][p];
            if (!st.active)
                continue;
            AlertEvent ev;
            ev.at = end;
            ev.sli = static_cast<Sli>(s);
            ev.policy = static_cast<std::uint8_t>(p);
            ev.fire = false;
            ev.burnLong = ev.burnShort = st.worstWhileActive;
            alerts_.push_back(ev);
            ++resolved_;
            st.active = false;
            if (trace_ && end > st.firedAt)
                trace_->span(st.firedAt, end - st.firedAt,
                             alertTraceName(s), Track::Health, p,
                             st.worstWhileActive);
        }
    }
}

} // namespace apc::obs
