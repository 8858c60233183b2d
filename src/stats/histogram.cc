#include "stats/histogram.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <utility>

namespace apc::stats {

Histogram::Histogram(double min_value, double max_value, int bins_per_decade)
    : minValue_(min_value), maxValue_(max_value),
      logMin_(std::log10(min_value)),
      binsPerDecade_(static_cast<double>(bins_per_decade))
{
    assert(min_value > 0 && max_value > min_value && bins_per_decade > 0);
    const double decades = std::log10(max_value) - logMin_;
    // +2 edge bins for underflow and overflow.
    bins_.assign(static_cast<std::size_t>(
                     std::ceil(decades * binsPerDecade_)) + 2, 0);
}

Histogram::Histogram(Histogram &&other) noexcept
{
    takeFrom(other);
}

Histogram &
Histogram::operator=(Histogram &&other) noexcept
{
    if (this != &other)
        takeFrom(other);
    return *this;
}

void
Histogram::takeFrom(Histogram &other) noexcept
{
    minValue_ = other.minValue_;
    maxValue_ = other.maxValue_;
    logMin_ = other.logMin_;
    binsPerDecade_ = other.binsPerDecade_;
    bins_ = std::exchange(other.bins_, {});
    count_ = std::exchange(other.count_, 0);
    nanCount_ = std::exchange(other.nanCount_, 0);
    sum_ = std::exchange(other.sum_, 0.0);
    min_ = std::exchange(other.min_, 0.0);
    max_ = std::exchange(other.max_, 0.0);
}

std::size_t
Histogram::indexOf(double v) const
{
    if (!(v >= minValue_))
        return 0; // underflow (also catches NaN and non-positive)
    if (v >= maxValue_)
        return bins_.size() - 1; // overflow
    const double pos = (std::log10(v) - logMin_) * binsPerDecade_;
    auto idx = static_cast<std::size_t>(pos) + 1;
    return std::min(idx, bins_.size() - 2);
}

void
Histogram::record(double v, std::uint64_t weight)
{
    if (weight == 0 || bins_.empty())
        return;
    if (!std::isfinite(v)) {
        // Every ordered comparison on NaN is false, so it would land in
        // the underflow bin; NaN and ±inf alike would poison
        // sum/mean/min/max forever. Reject both.
        nanCount_ += weight;
        return;
    }
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    bins_[indexOf(v)] += weight;
    count_ += weight;
    sum_ += v * static_cast<double>(weight);
}

double
Histogram::binLowerEdge(std::size_t i) const
{
    if (i == 0)
        return 0.0;
    return std::pow(10.0,
                    logMin_ + static_cast<double>(i - 1) / binsPerDecade_);
}

double
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    if (q <= 0.0)
        return min_;
    if (q >= 1.0)
        return max_;
    const double target = q * static_cast<double>(count_);
    double cum = 0.0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        const double c = static_cast<double>(bins_[i]);
        if (cum + c >= target && c > 0) {
            const double frac = (target - cum) / c;
            const double lo = i == 0 ? 0.0 : binLowerEdge(i);
            const double hi = i + 1 >= bins_.size()
                ? max_ : binLowerEdge(i + 1);
            double v = lo + frac * (hi - lo);
            return std::clamp(v, min_, max_);
        }
        // lint:allow(float-accum) fixed bin-index order; the bin
        // contents are integer counts merged deterministically
        cum += c;
    }
    return max_;
}

double
Histogram::fractionBetween(double lo, double hi) const
{
    if (count_ == 0 || hi <= lo)
        return 0.0;
    double acc = 0.0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        if (!bins_[i])
            continue;
        const double bl = i == 0 ? 0.0 : binLowerEdge(i);
        const double bh = i + 1 >= bins_.size()
            ? maxValue_ * 10 : binLowerEdge(i + 1);
        if (bh <= lo || bl >= hi)
            continue;
        const double overlap_lo = std::max(bl, lo);
        const double overlap_hi = std::min(bh, hi);
        const double w = bh > bl ? (overlap_hi - overlap_lo) / (bh - bl)
                                 : 1.0;
        // lint:allow(float-accum) fixed bin-index order over merged
        // integer counts; layout-invariant
        acc += w * static_cast<double>(bins_[i]);
    }
    return acc / static_cast<double>(count_);
}

bool
Histogram::merge(const Histogram &other)
{
    if (!sameBinning(other))
        return false;
    nanCount_ += other.nanCount_;
    if (other.count_ == 0)
        return true;
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    for (std::size_t i = 0; i < bins_.size(); ++i)
        bins_[i] += other.bins_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    return true;
}

std::string
Histogram::toCsv() const
{
    std::string out = "bin_lower,bin_upper,count\n";
    char line[96];
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        if (!bins_[i])
            continue;
        const double lo = binLowerEdge(i);
        const double hi =
            i + 1 < bins_.size() ? binLowerEdge(i + 1) : max_;
        std::snprintf(line, sizeof(line), "%.6g,%.6g,%llu\n", lo, hi,
                      static_cast<unsigned long long>(bins_[i]));
        out += line;
    }
    if (nanCount_) {
        std::snprintf(line, sizeof(line), "nan,nan,%llu\n",
                      static_cast<unsigned long long>(nanCount_));
        out += line;
    }
    return out;
}

void
Histogram::clear()
{
    std::fill(bins_.begin(), bins_.end(), 0);
    count_ = 0;
    nanCount_ = 0;
    sum_ = 0.0;
    min_ = max_ = 0.0;
}

} // namespace apc::stats
