/**
 * @file
 * Log-binned histogram for latency and idle-period distributions.
 *
 * Values are binned on a logarithmic grid (configurable bins per decade)
 * between a minimum and maximum trackable value; under/overflows are
 * counted in edge bins. Quantiles are answered by walking the bins and
 * interpolating within the matched bin, giving a relative error bounded by
 * the bin width (~3% at 32 bins/decade) — plenty for reproducing the
 * paper's distribution plots (Fig. 6c) and tail latencies (Fig. 5).
 */

#ifndef APC_STATS_HISTOGRAM_H
#define APC_STATS_HISTOGRAM_H

#include <cstdint>
#include <string>
#include <vector>

namespace apc::stats {

/** Log-binned histogram over positive doubles. */
class Histogram
{
  public:
    /**
     * @param min_value      lower edge of the tracked range (>0)
     * @param max_value      upper edge of the tracked range
     * @param bins_per_decade resolution of the log grid
     */
    explicit Histogram(double min_value = 1.0, double max_value = 1e12,
                       int bins_per_decade = 32);

    /**
     * A histogram with no bins: it costs no heap block, records
     * nothing, and merges with nothing. Moving a histogram leaves the
     * source unbinned, so a histogram handed over keeps no storage and
     * silently drops any later sample.
     */
    static Histogram unbinned() noexcept { return Histogram(Unbinned{}); }

    Histogram(const Histogram &) = default;
    Histogram &operator=(const Histogram &) = default;
    Histogram(Histogram &&other) noexcept;
    Histogram &operator=(Histogram &&other) noexcept;

    /** False for an unbinned (or moved-from) histogram. */
    bool binned() const { return !bins_.empty(); }

    /**
     * Record one sample. Non-positive samples count into the underflow;
     * non-finite samples (NaN, ±inf — either would poison
     * sum/mean/min/max) are rejected (tracked in nanCount(), excluded
     * from count/sum/quantiles). An unbinned histogram ignores it.
     */
    void record(double v) { record(v, 1); }

    /** Record a sample with an integer weight. */
    void record(double v, std::uint64_t weight);

    /** Number of recorded samples (including weights; excludes NaN/inf). */
    std::uint64_t count() const { return count_; }

    /** Rejected non-finite samples, NaN or ±inf (weighted). */
    std::uint64_t nanCount() const { return nanCount_; }

    /** Sum of recorded samples (weighted). */
    double sum() const { return sum_; }

    /** Arithmetic mean; 0 if empty. */
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    /** Smallest and largest recorded sample (exact, not binned). */
    double minSample() const { return min_; }
    double maxSample() const { return max_; }

    /**
     * Approximate quantile (q in [0,1]). Interpolates within the matched
     * bin; q=0 returns minSample(), q=1 returns maxSample(). 0 if empty.
     */
    double quantile(double q) const;

    /** Shorthand quantiles. */
    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }

    /**
     * Fraction of samples with value in [lo, hi). Bin-resolution
     * approximate (partial bins are pro-rated linearly in log space).
     */
    double fractionBetween(double lo, double hi) const;

    /**
     * Fold another histogram into this one without losing percentile
     * fidelity: both must use identical binning (min/max/bins-per-decade),
     * so merged quantiles equal the quantiles of the pooled samples up to
     * the usual bin resolution. @return false (no-op) on binning mismatch.
     */
    bool merge(const Histogram &other);

    /** @return true if @p other uses the same binning grid (never
     *  for an unbinned histogram and a binned one). */
    bool
    sameBinning(const Histogram &other) const
    {
        return minValue_ == other.minValue_ &&
            maxValue_ == other.maxValue_ &&
            binsPerDecade_ == other.binsPerDecade_ &&
            bins_.size() == other.bins_.size();
    }

    /** Reset to empty, keeping the binning. */
    void clear();

    /**
     * CSV rendering for plotting: a `bin_lower,bin_upper,count` header
     * plus one row per non-empty bin (underflow has lower edge 0; the
     * overflow bin's upper edge is the largest recorded sample). If any
     * NaN samples were rejected, a final `nan,nan,<count>` row reports
     * them. An empty histogram renders as just the header.
     */
    std::string toCsv() const;

    /** Bin count (for iteration/plotting). */
    std::size_t numBins() const { return bins_.size(); }
    /** Count in bin @p i. */
    std::uint64_t binCount(std::size_t i) const { return bins_[i]; }
    /** Lower edge of bin @p i. */
    double binLowerEdge(std::size_t i) const;

  private:
    struct Unbinned
    {
    };
    explicit Histogram(Unbinned) noexcept {}

    std::size_t indexOf(double v) const;
    /** Take @p other's state, leaving it unbinned. */
    void takeFrom(Histogram &other) noexcept;

    double minValue_ = 0.0;
    double maxValue_ = 0.0;
    double logMin_ = 0.0;
    double binsPerDecade_ = 0.0;
    std::vector<std::uint64_t> bins_;
    std::uint64_t count_ = 0;
    std::uint64_t nanCount_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace apc::stats

#endif // APC_STATS_HISTOGRAM_H
