#include "obs/health.h"

#include "obs/fmt.h"

namespace apc::obs {

HealthReport
healthReport(const SloMonitor &slo, const Auditor &auditor)
{
    HealthReport r;
    r.enabled = true;
    r.alertsFired = slo.alertsFired();
    r.alertsResolved = slo.alertsResolved();
    r.worstBurn = slo.worstBurn();
    r.worstBurnSli = slo.worstBurnSli();
    r.timeInViolation = slo.timeInViolation();
    r.worstWindowP99Us = slo.worstWindowP99Us();
    r.latencySamplesDropped = slo.latencySamplesDropped();
    r.alerts = slo.alerts();
    r.slo = slo.config();
    r.audits = auditor.audits();
    r.auditChecks = auditor.checksRun();
    r.auditViolations = auditor.violationCount();
    r.auditByCheck = auditor.byCheck();
    r.auditLog = auditor.log();
    return r;
}

namespace {

const char *
policyName(std::uint8_t p)
{
    return p == 0 ? "fast" : "slow";
}

const char *
policySeverity(const SloConfig &cfg, std::uint8_t p)
{
    return p == 0 ? cfg.fast.severity : cfg.slow.severity;
}

} // namespace

bool
HealthReport::writeAlertsJson(std::FILE *out) const
{
    bool ok = true;
    const auto put = [out, &ok](const char *fmt, auto... args) {
        if (std::fprintf(out, fmt, args...) < 0)
            ok = false;
    };
    put("{\n  \"schema_version\": %d,\n", kHealthSchemaVersion);
    put("  \"slo\": {\"latency_threshold_us\": %s, "
        "\"latency_objective\": %s, \"availability_objective\": %s, "
        "\"power_objective\": %s},\n",
        fmtDouble(slo.latencyThresholdUs).c_str(),
        fmtDouble(slo.latencyObjective).c_str(),
        fmtDouble(slo.availabilityObjective).c_str(),
        fmtDouble(slo.powerObjective).c_str());
    put("  \"policies\": [\n");
    const BurnPolicy pols[kNumBurnPolicies] = {slo.fast, slo.slow};
    for (std::size_t p = 0; p < kNumBurnPolicies; ++p)
        put("    {\"name\": \"%s\", \"severity\": \"%s\", "
            "\"long_us\": %s, \"short_us\": %s, \"threshold\": %s}%s\n",
            policyName(static_cast<std::uint8_t>(p)), pols[p].severity,
            fmtFixed(sim::toMicros(pols[p].longWindow), 3).c_str(),
            fmtFixed(sim::toMicros(pols[p].shortWindow), 3).c_str(),
            fmtDouble(pols[p].threshold).c_str(),
            p + 1 < kNumBurnPolicies ? "," : "");
    put("  ],\n");
    put("  \"alerts_fired\": %llu,\n  \"alerts_resolved\": %llu,\n",
        static_cast<unsigned long long>(alertsFired),
        static_cast<unsigned long long>(alertsResolved));
    put("  \"worst_burn\": %s,\n  \"worst_burn_sli\": \"%s\",\n",
        fmtDouble(worstBurn).c_str(), sliName(worstBurnSli));
    put("  \"time_in_violation_us\": %s,\n",
        fmtFixed(timeInViolationUs(), 3).c_str());
    put("  \"worst_window_p99_us\": %s,\n",
        fmtDouble(worstWindowP99Us).c_str());
    put("  \"latency_samples_dropped\": %llu,\n",
        static_cast<unsigned long long>(latencySamplesDropped));
    put("  \"audit\": {\"audits\": %llu, \"checks\": %llu, "
        "\"violations\": %llu, \"by_check\": {",
        static_cast<unsigned long long>(audits),
        static_cast<unsigned long long>(auditChecks),
        static_cast<unsigned long long>(auditViolations));
    for (std::size_t c = 0; c < kNumAuditChecks; ++c)
        put("%s\"%s\": %llu", c ? ", " : "",
            auditCheckName(static_cast<AuditCheck>(c)),
            static_cast<unsigned long long>(auditByCheck[c]));
    put("}},\n  \"alerts\": [\n");
    for (std::size_t i = 0; i < alerts.size(); ++i) {
        const AlertEvent &ev = alerts[i];
        put("    {\"t_us\": %s, \"sli\": \"%s\", \"policy\": \"%s\", "
            "\"severity\": \"%s\", \"kind\": \"%s\", \"burn_long\": %s, "
            "\"burn_short\": %s, \"window_p99_us\": %s}%s\n",
            fmtFixed(sim::toMicros(ev.at), 3).c_str(), sliName(ev.sli),
            policyName(ev.policy), policySeverity(slo, ev.policy),
            ev.fire ? "fire" : "resolve",
            fmtDouble(ev.burnLong).c_str(),
            fmtDouble(ev.burnShort).c_str(),
            fmtDouble(ev.windowP99Us).c_str(),
            i + 1 < alerts.size() ? "," : "");
    }
    put("  ]\n}\n");
    if (std::fflush(out) != 0)
        ok = false;
    return ok && !std::ferror(out);
}

} // namespace apc::obs
