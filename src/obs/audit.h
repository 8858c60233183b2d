/**
 * @file
 * Invariant auditor: continuous conservation checking driven from the
 * fleet's quiescent epoch boundaries (ns-3 FlowMonitor idiom — an
 * attachable observer that audits flow conservation online without
 * perturbing the simulation).
 *
 * The fleet engine snapshots its accounting state between epochs —
 * every server quiescent, the merge applied, no events in motion — and
 * the auditor checks the identities that must hold at such an instant:
 *
 *  - **request conservation**: flights created = flights finished +
 *    flights in flight, and (measurement window) dispatched =
 *    completed + lost-to-drop + lost-to-crash + measured-in-flight —
 *    a crash may destroy work but never silently vanish it;
 *  - **per-server counters**: completed + aborted <= accepted, all
 *    monotonically non-decreasing across audits;
 *  - **fabric link conservation**: offered = delivered + dropped,
 *    exactly, on every link;
 *  - **energy accounting**: each plane's quantized RAPL counter
 *    brackets the integrated energy within one energy unit, plane
 *    energy equals the sum over its registered loads, and energy never
 *    decreases;
 *  - **rack budget conservation**: every allocation epoch granted at
 *    most the rack budget, non-emergency epochs respected the
 *    per-server floors, and the enforced limits stay within the
 *    deadband of the last grant.
 *
 * Violations are counted per check, recorded as instants on the Health
 * trace track, and — in `failFast` mode — abort the process with a
 * diagnostic dump (the audit-as-sanitizer mode CI runs the test suite
 * under). The auditor only reads the snapshot it is handed: auditing a
 * run cannot change its results.
 */

#ifndef APC_OBS_AUDIT_H
#define APC_OBS_AUDIT_H

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/tracer.h"
#include "sim/time.h"

namespace apc::obs {

/** Invariant families the auditor checks. */
enum class AuditCheck : std::uint8_t
{
    FleetFlights = 0, ///< created = finished + in flight
    FleetRequests,    ///< dispatched = completed + lost + crash + in flight
    ServerCounters,   ///< completed + aborted <= accepted, all monotone
    LinkConservation, ///< offered = delivered + dropped per link
    Energy,           ///< RAPL counter brackets energy; monotone
    Budget,           ///< allocations <= budget; floors respected
};

inline constexpr std::size_t kNumAuditChecks = 6;

/** Display name for a check family. */
const char *auditCheckName(AuditCheck c);

/** Auditor setup. */
struct AuditConfig
{
    /** Abort with a diagnostic dump on the first violation. */
    bool failFast = false;
    /** Audit cadence in sim-time; 0 audits every fleet epoch. */
    sim::Tick interval = 0;
};

/** Per-server counters at the snapshot instant. */
struct AuditServerCounters
{
    std::uint64_t accepted = 0;
    std::uint64_t completed = 0;
    std::uint64_t aborted = 0; ///< destroyed by crash / refused admission
};

/** Per-link counters (offered = delivered + dropped must hold). */
struct AuditLinkCounters
{
    std::uint64_t offered = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
};

/** One RAPL plane's energy accounting at the snapshot instant. */
struct AuditEnergy
{
    int server = 0;
    int plane = 0;          ///< power::Plane index
    double energyJ = 0.0;   ///< unquantized integrated energy
    double loadSumJ = 0.0;  ///< sum over the plane's registered loads
    std::uint64_t counter = 0; ///< quantized RAPL counter
    double unitJ = 0.0;        ///< energy-status unit
};

/** One budget-allocation epoch record (new since the last audit). */
struct AuditBudgetEpoch
{
    sim::Tick at = 0;
    double budgetW = 0.0;
    double allocatedW = 0.0;
    bool emergency = false;
    /** Servers participating in the epoch's waterfill; 0 (legacy
     *  snapshot builders) means "all of them". */
    std::size_t active = 0;
};

/**
 * Everything the auditor looks at, gathered by the fleet engine at a
 * quiescent epoch boundary. POD-ish by design: tests corrupt fields
 * directly to prove the auditor can fail.
 */
struct AuditSnapshot
{
    sim::Tick now = 0;

    // Fleet request accounting.
    std::uint64_t flightsCreated = 0;
    std::uint64_t flightsFinished = 0;
    std::uint64_t flightsInFlight = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t completed = 0;
    std::uint64_t lost = 0;
    std::uint64_t lostToCrash = 0; ///< destroyed by injected faults
    std::uint64_t measuredInFlight = 0;

    std::vector<AuditServerCounters> servers;
    std::vector<AuditLinkCounters> links;
    std::vector<AuditEnergy> energy;

    // Rack budget state (empty/false when budgeting is off).
    bool budgetEnabled = false;
    double floorW = 0.0;
    double deadbandW = 0.0;
    std::size_t numServers = 0;
    bool anyEmergencyEver = false;
    std::vector<AuditBudgetEpoch> newEpochs;
    /** Last logged grant's rack budget (bounds the enforced limits). */
    double lastBudgetW = 0.0;
    std::vector<double> serverLimitW;
    /** Per server: whether the budget epoch that issued its enforced
     *  limit counted it active (empty = all were). A grant issued to
     *  an inactive server is zero by design and owes nothing to the
     *  floor — even after the server restarted and awaits the next
     *  epoch's grant. */
    std::vector<std::uint8_t> grantActive;
};

/** One recorded violation. */
struct AuditViolation
{
    sim::Tick at = 0;
    AuditCheck check = AuditCheck::FleetFlights;
    int entity = -1; ///< server/link index when applicable
    std::string detail;
};

/** The epoch-boundary invariant checker. */
class Auditor
{
  public:
    explicit Auditor(AuditConfig cfg) : cfg_(cfg) {}

    /** Record violation instants on @p w's Health track (null off). */
    void setTrace(TraceWriter *w) { trace_ = w; }

    /** Size the monotonicity baselines for @p servers servers and
     *  @p energy_planes planes, so audits allocate nothing. */
    void reserve(std::size_t servers, std::size_t energy_planes)
    {
        prevServers_.reserve(servers);
        prevEnergyJ_.reserve(energy_planes);
    }

    /** True when the audit cadence has elapsed since the last audit. */
    bool due(sim::Tick now) const
    {
        return cfg_.interval <= 0 || now >= lastAuditAt_ + cfg_.interval;
    }

    /** Run every check against @p snap. In failFast mode a violation
     *  aborts after dumping the snapshot; otherwise violations are
     *  counted and (bounded) retained. */
    void audit(const AuditSnapshot &snap);

    std::uint64_t audits() const { return audits_; }
    std::uint64_t checksRun() const { return checks_; }
    std::uint64_t violationCount() const { return violationCount_; }
    std::uint64_t violations(AuditCheck c) const
    {
        return byCheck_[static_cast<std::size_t>(c)];
    }
    const std::array<std::uint64_t, kNumAuditChecks> &byCheck() const
    {
        return byCheck_;
    }
    /** Retained violation details (capped at kMaxKept). */
    const std::vector<AuditViolation> &log() const { return log_; }

    const AuditConfig &config() const { return cfg_; }

    /** Retention cap for violation details (counts are never capped). */
    static constexpr std::size_t kMaxKept = 64;

  private:
    void flag(const AuditSnapshot &snap, AuditCheck check, int entity,
              std::string detail);
    void dumpAndAbort(const AuditSnapshot &snap);

    AuditConfig cfg_;
    TraceWriter *trace_ = nullptr;
    sim::Tick lastAuditAt_ = std::numeric_limits<sim::Tick>::min() / 2;

    std::uint64_t audits_ = 0;
    std::uint64_t checks_ = 0;
    std::uint64_t violationCount_ = 0;
    std::array<std::uint64_t, kNumAuditChecks> byCheck_{};
    std::vector<AuditViolation> log_;

    // Monotonicity baselines from the previous audit.
    std::vector<AuditServerCounters> prevServers_;
    std::vector<double> prevEnergyJ_;
    std::uint64_t prevFinished_ = 0;
};

} // namespace apc::obs

#endif // APC_OBS_AUDIT_H
