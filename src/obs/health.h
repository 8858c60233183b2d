/**
 * @file
 * Fleet health monitoring: the setup, report and exports of the SLO
 * burn-rate monitor (obs/slo.h) and the epoch-boundary invariant
 * auditor (obs/audit.h).
 *
 * The fleet engine owns both when `FleetConfig::health` is enabled,
 * feeds them from the single-threaded sections of the epoch pipeline
 * (flight completion during the merge, epoch boundaries), and folds
 * their `healthReport` into FleetReport. The report lives *outside*
 * FleetReport::csvRow() — the byte-identity reference — and both
 * only read simulation state, so the zero-footprint
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

    /** Alert log + counters as schema_versioned JSON. @return false on
     *  IO failure. */
    bool writeAlertsJson(std::FILE *out) const;
};

/** The post-run summary of @p slo and @p auditor. */
HealthReport healthReport(const SloMonitor &slo, const Auditor &auditor);

} // namespace apc::obs

#endif // APC_OBS_HEALTH_H
