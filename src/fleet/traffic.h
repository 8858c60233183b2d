/**
 * @file
 * Cluster-level traffic generation.
 *
 * Open-loop arrivals in the TrafficGenerator style: a Poisson (or MMPP)
 * core process whose instantaneous rate is modulated by a diurnal
 * profile, per-request service demand drawn from a CDF table (or the
 * server workload's parametric distribution), and optional fanout
 * requests that replicate to k servers and complete at the slowest
 * replica — the incast pattern that amplifies tail latency.
 */

#ifndef APC_FLEET_TRAFFIC_H
#define APC_FLEET_TRAFFIC_H

#include <memory>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"
#include "workload/cdf_table.h"
#include "workload/workload.h"

namespace apc::fleet {

/**
 * Piecewise-linear request-rate multiplier over time (diurnal load
 * trace). An empty profile is flat 1.0. With a period, the profile
 * wraps (simulated days); otherwise it clamps at the last point.
 */
struct DiurnalProfile
{
    struct Point
    {
        sim::Tick at;      ///< profile-local time
        double multiplier; ///< relative to the configured mean qps
    };

    std::vector<Point> points;
    sim::Tick period = 0; ///< 0 = no wrap

    /** Rate multiplier at absolute time @p t (>= 0, interpolated). */
    double multiplierAt(sim::Tick t) const;

    /** Trough→peak→trough day curve with @p period per cycle. */
    static DiurnalProfile dayNight(sim::Tick period, double trough,
                                   double peak);
};

/** Fanout (replicated, incast-style) request shape. */
struct FanoutConfig
{
    /** Fraction of requests that fan out. */
    double probability = 0.0;
    /** Replicas per fanned-out request (>= 2 to mean anything). */
    int degree = 1;
};

/** Cluster traffic description. */
struct TrafficConfig
{
    workload::ArrivalKind arrivalKind = workload::ArrivalKind::Poisson;
    /** Aggregate mean request rate across the fleet. */
    double qps = 100000.0;
    double burstiness = 3.0;              ///< MMPP only
    sim::Tick burstMean = 200 * sim::kUs; ///< MMPP only

    /**
     * Service-demand CDF table (TrafficGenerator idiom). Invalid/empty
     * table: each server samples its own workload service distribution
     * instead. Table values are in @p cdfUnit ticks each.
     */
    workload::CdfTable serviceCdf;
    double cdfUnit = static_cast<double>(sim::kUs);

    FanoutConfig fanout;
    DiurnalProfile diurnal;
};

/** One generated arrival. */
struct TrafficEvent
{
    sim::Tick at;      ///< absolute arrival time
    sim::Tick service; ///< service demand; <=0 = server samples its own
    int fanout;        ///< 1 = plain request, k>1 = k replicas
};

/**
 * Pull-based generator: hands the fleet loop all arrivals in an epoch.
 * Owns its RNG stream so fleet-level traffic is reproducible regardless
 * of per-server event interleaving.
 */
class TrafficSource
{
  public:
    TrafficSource(TrafficConfig cfg, std::uint64_t seed);

    /**
     * All arrivals with time in [from, to), in order, appended into
     * @p out (cleared first; the fleet loop reuses one scratch vector).
     * The diurnal multiplier stretches/compresses the base process's
     * gaps around each arrival instant.
     */
    void epoch(sim::Tick from, sim::Tick to,
               std::vector<TrafficEvent> &out);

    const TrafficConfig &config() const { return cfg_; }

  private:
    sim::Tick nextArrivalAfter(sim::Tick t);

    TrafficConfig cfg_;
    sim::Rng rng_;
    std::unique_ptr<workload::ArrivalProcess> base_;
    sim::Tick next_ = -1; ///< next pending arrival (-1 = not generated)
};

} // namespace apc::fleet

#endif // APC_FLEET_TRAFFIC_H
