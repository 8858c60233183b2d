/**
 * @file
 * Online SLO monitoring: rolling sim-time windows over the fleet's
 * service-level indicators with Google-SRE-style multi-window
 * burn-rate alerting.
 *
 * Three SLIs are tracked:
 *
 *  - **latency**: a completed request is good when its end-to-end
 *    latency is at or below the threshold (defaults to the fleet SLO);
 *  - **availability**: a request is good when it was answered at all
 *    (not dropped beyond retry);
 *  - **power**: a settled power-cap control sample is good when the
 *    server was not violating its enforced limit.
 *
 * Each SLI has an objective (target good fraction); the *burn rate* of
 * a window is its bad fraction divided by the error budget
 * (1 - objective) — burn 1.0 spends the budget exactly at the allowed
 * pace, burn 14.4 exhausts a 30-day budget in ~2 days. An alert fires
 * when **both** a long and a short window exceed the policy threshold
 * (the long window gives confidence, the short window makes the alert
 * reset quickly once the problem stops), and resolves when both fall
 * back below it. Two policies run per SLI: a fast-burn pair (page) and
 * a slow-burn pair (ticket), window lengths scaled to sim-time.
 *
 * The monitor is fed exclusively from single-threaded sections of the
 * fleet engine (flight completion in the merge phase, epoch
 * boundaries), only ever reads simulation state, and allocates from
 * bounded buffers — the zero-footprint observability contract: reports
 * are byte-identical with monitoring on or off, at any thread count,
 * and the alert log itself is deterministic.
 */

#ifndef APC_OBS_SLO_H
#define APC_OBS_SLO_H

#include <cstdint>
#include <vector>

#include "obs/tracer.h"
#include "sim/time.h"
#include "stats/rank.h"

namespace apc::obs {

/** Service-level indicators under watch. */
enum class Sli : std::uint8_t
{
    Latency = 0,  ///< completed requests within the latency threshold
    Availability, ///< requests answered (not lost)
    Power,        ///< cap control samples not in violation
};

inline constexpr std::size_t kNumSlis = 3;

/** Display name for an SLI ("latency", "availability", "power"). */
const char *sliName(Sli s);

/**
 * One multi-window burn-rate policy: alert when both windows burn at
 * or above the threshold.
 */
struct BurnPolicy
{
    sim::Tick longWindow = 0;
    sim::Tick shortWindow = 0;
    double threshold = 1.0;
    const char *severity = "page";
};

/** Policies per SLI (fast-burn + slow-burn). */
inline constexpr std::size_t kNumBurnPolicies = 2;

/** SLO monitor setup. */
struct SloConfig
{
    /** Latency SLI good/bad threshold in µs; 0 inherits the fleet's
     *  `sloUs`. */
    double latencyThresholdUs = 0.0;

    /** Target good fractions. The error budget is 1 - objective. */
    double latencyObjective = 0.999;
    double availabilityObjective = 0.9999;
    double powerObjective = 0.99;

    /**
     * Window pairs, scaled to sim-time from the canonical SRE
     * 1h/5m @ 14.4 and 6h/30m @ 6 pairs (1 h of wall time ~ 12 ms of
     * a compressed diurnal day here).
     */
    BurnPolicy fast{12 * sim::kMs, 1 * sim::kMs, 14.4, "page"};
    BurnPolicy slow{72 * sim::kMs, 6 * sim::kMs, 6.0, "ticket"};

    /** Per-epoch cap on retained latency samples (rolling-percentile
     *  context); excess samples still count good/bad but drop out of
     *  the percentile buffer (counted). */
    std::size_t maxSamplesPerEpoch = 4096;
};

/** One alert lifecycle edge in the log. */
struct AlertEvent
{
    sim::Tick at = 0;
    Sli sli = Sli::Latency;
    std::uint8_t policy = 0; ///< 0 = fast-burn pair, 1 = slow-burn
    bool fire = false;       ///< true = fired, false = resolved
    double burnLong = 0.0;
    double burnShort = 0.0;
    /** Rolling exact-rank p99 latency over the fast long window at the
     *  event instant (context for the on-call). */
    double windowP99Us = 0.0;
};

/**
 * The rolling-window burn-rate evaluator. Records land in the current
 * epoch bucket; `onEpoch` seals the bucket, evicts buckets past the
 * longest window, and evaluates every (SLI, policy) alert state.
 */
class SloMonitor
{
  public:
    /** @param epoch the length of one bucket (the fleet epoch). The
     *  bucket ring and the latency sample buffers are sized from it
     *  once, here, so a run at that epoch allocates nothing per epoch;
     *  shorter epochs still work and grow the storage. */
    SloMonitor(SloConfig cfg, double default_latency_slo_us,
               sim::Tick epoch);

    /** Mirror alert lifecycles and burn counters onto @p w's Health
     *  track (null disables). */
    void setTrace(TraceWriter *w) { trace_ = w; }

    /** A request completed end-to-end in @p us. */
    void recordLatency(double us);

    /** A request was dropped beyond retry. */
    void recordLost();

    /** Latch the fleet's cumulative cap-control counters; the epoch
     *  delta feeds the power SLI. */
    void setCapCounters(std::uint64_t samples, std::uint64_t violations);

    /** Seal the bucket covering [t0, t1), roll windows, evaluate. */
    void onEpoch(sim::Tick t0, sim::Tick t1);

    /** Close still-active alerts at the end of the run (span emission
     *  and resolve accounting; logged as resolves at @p end). */
    void finish(sim::Tick end);

    std::uint64_t alertsFired() const { return fired_; }
    std::uint64_t alertsResolved() const { return resolved_; }
    /** Any (SLI, policy) alert currently active. */
    bool anyActive() const;
    /** Worst sustained burn seen: max over evaluations of
     *  min(burnLong, burnShort) — the alert-relevant rate. */
    double worstBurn() const { return worstBurn_; }
    Sli worstBurnSli() const { return worstSli_; }
    /** Sim-time during which at least one alert was active. */
    sim::Tick timeInViolation() const { return inViolation_; }
    /** Highest rolling window p99 observed at an epoch boundary. */
    double worstWindowP99Us() const { return worstP99Us_; }
    std::uint64_t latencySamplesDropped() const { return latDropped_; }
    const std::vector<AlertEvent> &alerts() const { return alerts_; }
    const SloConfig &config() const { return cfg_; }

  private:
    struct Bucket
    {
        sim::Tick t0 = 0, t1 = 0;
        std::uint64_t good[kNumSlis] = {};
        std::uint64_t bad[kNumSlis] = {};
        /** Bounded percentile context; sorted when the bucket is
         *  sealed, handed back once it leaves the fast long window. */
        std::vector<double> latency;
    };

    struct AlertState
    {
        bool active = false;
        sim::Tick firedAt = 0;
        double worstWhileActive = 0.0;
    };

    /** Sealed bucket @p i, counted from the oldest. */
    Bucket &sealed(std::size_t i)
    {
        return ring_[(head_ + i) % ring_.size()];
    }
    const Bucket &sealed(std::size_t i) const
    {
        return ring_[(head_ + i) % ring_.size()];
    }
    /** Good and bad counts of @p sli over the sealed buckets ending
     *  after @p from. */
    void windowCounts(std::size_t sli, sim::Tick from, std::uint64_t &good,
                      std::uint64_t &bad) const;
    /** Burn rate of @p sli over the window (@p t1 - @p window, @p t1]:
     *  bad fraction over the bucketed window divided by the SLI's
     *  error budget (0 when the window holds no events). */
    double burnRate(std::size_t sli, sim::Tick t1,
                    sim::Tick window) const;
    double errorBudget(std::size_t sli) const;
    /** Exact-rank p99 over the fast long window's sorted buckets. */
    double windowP99();

    SloConfig cfg_;
    BurnPolicy policies_[kNumBurnPolicies];
    TraceWriter *trace_ = nullptr;

    Bucket cur_;
    /** Sealed buckets in a ring, oldest at head_: every bucket some
     *  window can still see. */
    std::vector<Bucket> ring_;
    std::size_t head_ = 0, numSealed_ = 0;
    /** The newest numSampled_ sealed buckets lie in the fast long
     *  window, the only one whose p99 needs samples; older buckets
     *  return their buffer to spare_ (capacity kept). */
    std::size_t numSampled_ = 0;
    std::vector<std::vector<double>> spare_;
    std::uint64_t capSamplesPrev_ = 0, capViolationsPrev_ = 0;
    std::uint64_t capSamplesNow_ = 0, capViolationsNow_ = 0;

    AlertState states_[kNumSlis][kNumBurnPolicies];
    std::vector<AlertEvent> alerts_;
    std::uint64_t fired_ = 0, resolved_ = 0;
    double worstBurn_ = 0.0;
    Sli worstSli_ = Sli::Latency;
    sim::Tick inViolation_ = 0;
    double worstP99Us_ = 0.0;
    std::uint64_t latDropped_ = 0;
    std::vector<stats::SortedRun<double>> p99Runs_;
};

} // namespace apc::obs

#endif // APC_OBS_SLO_H
