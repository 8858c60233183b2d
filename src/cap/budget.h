/**
 * @file
 * Fleet-level power budget allocation under oversubscription.
 *
 * A rack is provisioned for less power than the sum of its servers'
 * nameplate draw (the oversubscription ratio); the allocator's job is
 * to slice the rack budget into per-server RAPL limits every fleet
 * epoch so the breaker never sees the aggregate exceed its rating.
 * Allocation is demand-driven and priority-weighted: every server is
 * guaranteed a floor, recent draw plus a little headroom states its
 * demand, and leftover watts are redistributed by weight so busy
 * (or high-SLO) servers can burst while drained ones shrink toward
 * their floor. A simulated breaker trip slashes the rack budget for a
 * while; the emergency path scales even the floors so the fleet sheds
 * power within one epoch.
 *
 * The allocator is pure arithmetic over the demand vector — no clocks,
 * no RNG — so fleet runs stay bit-identical across thread counts.
 */

#ifndef APC_CAP_BUDGET_H
#define APC_CAP_BUDGET_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/annotations.h"
#include "sim/time.h"

namespace apc::obs {
class TraceWriter;
}

namespace apc::cap {

/** Simulated breaker trip: the rack budget is cut for a window. */
struct BreakerTrip
{
    bool enabled = false;
    sim::Tick at = 0;       ///< trip instant
    sim::Tick duration = 0; ///< how long the derated budget holds
    double factor = 0.5;    ///< budget multiplier while tripped
};

/** Fleet budget configuration. */
struct BudgetConfig
{
    bool enabled = false;

    /** Per-server worst-case (nameplate) package draw, watts. The
     *  simulated Xeon Silver 4114 peaks at ~61 W package power. */
    double serverNameplateW = 62.0;

    /** Rack budget = numServers * nameplateW / oversubscription. */
    double oversubscription = 1.0;

    /** Guaranteed per-server floor (scaled down only on emergency).
     *  The C_PC1A configuration idles at ~27.5 W package power, so
     *  floors below ~28 W are physically unreachable even at full
     *  idle-injection duty. */
    double minServerW = 30.0;

    /** Slack granted above a server's recent draw before the rest of
     *  its share is redistributed to others. */
    double headroomW = 2.0;

    /**
     * Priority/SLO weights, one per server; empty = all equal. Higher
     * weight wins proportionally more of the redistributed headroom.
     */
    std::vector<double> weights;

    BreakerTrip breaker;
};

/** Rack -> server budget allocator. */
class BudgetAllocator
{
  public:
    /** One epoch's allocation decision (for timelines and reports). */
    struct EpochRecord
    {
        sim::Tick at = 0;
        double budgetW = 0.0;    ///< rack budget in force
        double demandW = 0.0;    ///< sum of reported demands
        double allocatedW = 0.0; ///< sum of granted limits
        double unmetW = 0.0;     ///< wanted-but-ungranted watts
        bool emergency = false;  ///< floors had to be scaled
        std::size_t active = 0;  ///< servers participating this epoch
    };

    BudgetAllocator(BudgetConfig cfg, std::size_t num_servers);

    /** Rack budget before any breaker derating. */
    double nominalRackBudgetW() const { return nominalBudgetW_; }

    /** Rack budget in force at @p now (breaker trip applied). */
    double rackBudgetW(sim::Tick now) const;

    /** True while the breaker-trip derating window covers @p now. */
    bool breakerActive(sim::Tick now) const;

    /**
     * Slice the rack budget into per-server limits given each server's
     * recent average draw. Pure function of (now, demand); appends one
     * EpochRecord to the log.
     */
    std::vector<double> allocate(sim::Tick now,
                                 const std::vector<double> &demand_w);

    /**
     * Mark a server dead (crashed/drained) or alive again. An inactive
     * server is dropped from the waterfill entirely — no floor, no
     * demand, no weight, a zero limit — so its guaranteed watts are
     * redistributed to the survivors at the next allocate() call, i.e.
     * within one budget epoch of the fault.
     */
    void setActive(std::size_t i, bool active);

    /** Servers currently participating in allocation. */
    std::size_t activeServers() const;

    /** Whether server @p i participates in the next allocation. */
    bool isActive(std::size_t i) const { return active_[i] != 0; }

    const std::vector<EpochRecord> &
    log() const
    {
        sim::SharedRoleGuard own(epochLog_);
        return log_;
    }

    std::uint64_t
    epochs() const
    {
        sim::SharedRoleGuard own(epochLog_);
        return log_.size();
    }

    /** Epochs where even the floors exceeded the rack budget. */
    std::uint64_t
    emergencyEpochs() const
    {
        sim::SharedRoleGuard own(epochLog_);
        return emergencyEpochs_;
    }

    /**
     * Mean demand/budget ratio over logged epochs at or after @p from:
     * how much of the provisioned rack power the fleet actually wanted.
     */
    double budgetUtilization(sim::Tick from = 0) const;

    const BudgetConfig &config() const { return cfg_; }

    /** Mirror each epoch's decision into @p w (Budget track counters;
     *  null disables). */
    void setTrace(obs::TraceWriter *w) { trace_ = w; }

  private:
    double weight(std::size_t i) const;

    BudgetConfig cfg_;
    std::size_t n_;
    double nominalBudgetW_;
    /** Per-server liveness mask (1 = participates in allocation). */
    std::vector<std::uint8_t> active_;
    /**
     * Epoch-log ownership capability: allocate() runs on the
     * single-threaded fleet spine between parallel phases, so the log
     * has one writer and post-run readers. Guards are runtime no-ops;
     * the discipline is checked by the TSan CI job.
     */
    mutable sim::Role epochLog_;
    std::vector<EpochRecord> log_ APC_GUARDED_BY(epochLog_);
    std::uint64_t emergencyEpochs_ APC_GUARDED_BY(epochLog_) = 0;
    obs::TraceWriter *trace_ = nullptr;
};

} // namespace apc::cap

#endif // APC_CAP_BUDGET_H
