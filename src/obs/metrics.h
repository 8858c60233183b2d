/**
 * @file
 * Time-series metrics: periodic sampling of fleet/server gauges into
 * fixed-interval series.
 *
 * The sampler is driven from the lockstep epoch loop: after an epoch
 * completes (a quiescent, single-threaded instant), the fleet asks
 * `due(now)` and, if a sample interval has elapsed, calls
 * `beginSample(now)` followed by `set()` for every gauge it can read.
 * Series a sample never set stay NaN for that row — exported as empty
 * CSV cells / JSON nulls — so sparse gauges (e.g. rack budget) coexist
 * with dense ones.
 *
 * Sampling reads state but never mutates it (no events scheduled, no
 * RNG), so enabling metrics cannot perturb simulation results. All
 * sampled values derive from simulated state, making the series
 * deterministic across thread counts.
 */

#ifndef APC_OBS_METRICS_H
#define APC_OBS_METRICS_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/annotations.h"
#include "sim/time.h"

namespace apc::obs {

/** Metrics sampling setup. */
struct MetricsConfig
{
    bool enabled = false;
    /** Sampling interval in simulated time. */
    sim::Tick interval = 1 * sim::kMs;
};

/** Index of a registered series. */
using SeriesId = std::uint32_t;

/** Fixed-interval, multi-series sample store with CSV/JSON export. */
class MetricsSampler
{
  public:
    explicit MetricsSampler(MetricsConfig cfg) : cfg_(cfg)
    {
        // A non-positive interval would re-sample every epoch forever
        // (due() is `now >= next_`); the fleet rejects it at setup, and
        // the sampler itself clamps defensively for standalone users.
        if (cfg_.interval <= 0)
            cfg_.interval = 1;
    }

    /** Register a series (setup-time). @p entity tags per-server series
     *  with the server index; -1 marks a fleet-level series. */
    SeriesId
    addSeries(std::string name, int entity = -1)
    {
        sim::RoleGuard own(sampleRole_);
        names_.push_back(std::move(name));
        entities_.push_back(entity);
        values_.emplace_back();
        return static_cast<SeriesId>(names_.size() - 1);
    }

    /** True when the next sample instant has been reached. */
    bool
    due(sim::Tick now) const
    {
        sim::SharedRoleGuard own(sampleRole_);
        return now >= next_;
    }

    /** Open a sample row at @p now: every series gets a NaN slot that
     *  set() overwrites. Advances the next-due time. */
    void beginSample(sim::Tick now);

    /** Assign @p v to series @p id in the current (last begun) row.
     *  A set() before any beginSample() has no row to land in and is
     *  dropped (it would otherwise write through an empty vector). */
    void
    set(SeriesId id, double v)
    {
        sim::RoleGuard own(sampleRole_);
        if (!values_[id].empty())
            values_[id].back() = v;
    }

    std::size_t
    numSeries() const
    {
        sim::SharedRoleGuard own(sampleRole_);
        return names_.size();
    }
    std::size_t
    numSamples() const
    {
        sim::SharedRoleGuard own(sampleRole_);
        return times_.size();
    }
    const std::string &
    seriesName(SeriesId id) const
    {
        sim::SharedRoleGuard own(sampleRole_);
        return names_[id];
    }
    int
    seriesEntity(SeriesId id) const
    {
        sim::SharedRoleGuard own(sampleRole_);
        return entities_[id];
    }
    const std::vector<sim::Tick> &
    times() const
    {
        sim::SharedRoleGuard own(sampleRole_);
        return times_;
    }
    const std::vector<double> &
    series(SeriesId id) const
    {
        sim::SharedRoleGuard own(sampleRole_);
        return values_[id];
    }

    const MetricsConfig &config() const { return cfg_; }

    /**
     * Long-format CSV: `t_us,series,entity,value` — one row per set
     * value (NaN slots are skipped; entity is empty for fleet series).
     * @return false on any IO failure.
     */
    bool writeCsv(std::FILE *out) const;

  private:
    /**
     * Sampling-state capability: the sampler is driven from the
     * quiescent epoch boundary on the single-threaded spine (one
     * writer), with post-run readers. Guards are runtime no-ops; the
     * discipline is checked by the TSan CI job.
     */
    mutable sim::Role sampleRole_;
    MetricsConfig cfg_;
    sim::Tick next_ APC_GUARDED_BY(sampleRole_) = 0;
    std::vector<sim::Tick> times_ APC_GUARDED_BY(sampleRole_);
    std::vector<std::string> names_ APC_GUARDED_BY(sampleRole_);
    std::vector<int> entities_ APC_GUARDED_BY(sampleRole_);
    std::vector<std::vector<double>> values_ APC_GUARDED_BY(sampleRole_);
};

} // namespace apc::obs

#endif // APC_OBS_METRICS_H
