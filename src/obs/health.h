/**
 * @file
 * Fleet health monitoring: the live-observability facade combining the
 * SLO burn-rate monitor (obs/slo.h) and the epoch-boundary invariant
 * auditor (obs/audit.h), plus the report/exports the fleet surfaces.
 *
 * The fleet engine owns a HealthMonitor when `FleetConfig::health` is
 * enabled, feeds it from the single-threaded sections of the epoch
 * pipeline (flight completion during the merge, epoch boundaries), and
 * folds the resulting HealthReport into FleetReport. The report lives
 * *outside* FleetReport::csvRow() — the byte-identity reference — and
 * the monitor only reads simulation state, so the zero-footprint
 * contract holds: headline reports are byte-identical with health on
 * or off, at any thread count and shard layout, and the alert log is
 * itself invariant across thread counts.
 *
 * The alert log exports as CSV or `schema_version`ed JSON (the shape
 * CI validates). `APC_AUDIT_FAILFAST=1` in the environment forces the
 * auditor on in failFast mode for every fleet run — the
 * audit-as-sanitizer mode CI runs the whole test suite under.
 */

#ifndef APC_OBS_HEALTH_H
#define APC_OBS_HEALTH_H

#include <cstdio>
#include <string>

#include "obs/audit.h"
#include "obs/slo.h"

namespace apc::obs {

/** Alert-log JSON schema revision (writeAlertsJson). */
inline constexpr int kHealthSchemaVersion = 1;

/** Fleet health monitoring setup. */
struct HealthConfig
{
    bool enabled = false;
    SloConfig slo;
    AuditConfig audit;
};

/** Health summary folded into FleetReport (outside csvRow()). */
struct HealthReport
{
    bool enabled = false;

    // SLO burn-rate alerting.
    std::uint64_t alertsFired = 0;
    std::uint64_t alertsResolved = 0;
    double worstBurn = 0.0;
    Sli worstBurnSli = Sli::Latency;
    sim::Tick timeInViolation = 0;
    double worstWindowP99Us = 0.0;
    std::uint64_t latencySamplesDropped = 0;
    std::vector<AlertEvent> alerts;
    SloConfig slo;

    // Invariant auditing.
    std::uint64_t audits = 0;
    std::uint64_t auditChecks = 0;
    std::uint64_t auditViolations = 0;
    std::array<std::uint64_t, kNumAuditChecks> auditByCheck{};
    std::vector<AuditViolation> auditLog;

    double timeInViolationUs() const
    {
        return sim::toMicros(timeInViolation);
    }

    /** Alert log as CSV
     *  (`t_us,sli,policy,severity,kind,burn_long,burn_short,
     *  window_p99_us`). @return false on IO failure. */
    bool writeAlertsCsv(std::FILE *out) const;
    bool writeAlertsCsv(const std::string &path) const;

    /** Alert log + counters as schema_versioned JSON. @return false on
     *  IO failure. */
    bool writeAlertsJson(std::FILE *out) const;
    bool writeAlertsJson(const std::string &path) const;
};

/**
 * The health monitor the fleet engine drives. All entry points are
 * called from single-threaded engine sections only.
 */
class HealthMonitor
{
  public:
    /** @param default_latency_slo_us fleet `sloUs` (latency SLI
     *  threshold default); @param epoch fleet epoch (one SLO bucket);
     *  severity policies come from @p cfg. */
    HealthMonitor(const HealthConfig &cfg, double default_latency_slo_us,
                  sim::Tick epoch)
        : cfg_(cfg), slo_(cfg.slo, default_latency_slo_us, epoch),
          auditor_(cfg.audit)
    {
    }

    /** Mirror alerts/burns/violations onto @p w's Health track. */
    void
    setTrace(TraceWriter *w)
    {
        slo_.setTrace(w);
        auditor_.setTrace(w);
    }

    SloMonitor &slo() { return slo_; }
    Auditor &auditor() { return auditor_; }
    bool auditEnabled() const { return cfg_.audit.enabled; }

    /** Assemble the post-run summary. */
    HealthReport report() const;

  private:
    HealthConfig cfg_;
    SloMonitor slo_;
    Auditor auditor_;
};

} // namespace apc::obs

#endif // APC_OBS_HEALTH_H
