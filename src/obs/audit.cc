#include "obs/audit.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace apc::obs {

namespace {

/** Absolute slack for floating-point watt/joule comparisons: the
 *  identities are computed the same way the simulator computes them,
 *  so only accumulation-order noise needs absorbing. */
constexpr double kEpsW = 1e-6;
constexpr double kEpsJ = 1e-9;

std::string
fmtDetail(const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

} // namespace

const char *
auditCheckName(AuditCheck c)
{
    constexpr const char *names[kNumAuditChecks] = {
        "fleet_flights", "fleet_requests",   "server_counters",
        "link_conservation", "energy", "budget"};
    return names[static_cast<std::size_t>(c)];
}

void
Auditor::flag(const AuditSnapshot &snap, AuditCheck check, int entity,
              std::string detail)
{
    ++violationCount_;
    ++byCheck_[static_cast<std::size_t>(check)];
    if (trace_)
        trace_->instant(snap.now, Name::AuditViolation, Track::Health,
                        static_cast<std::uint64_t>(
                            entity < 0 ? 0 : entity),
                        static_cast<double>(
                            static_cast<std::size_t>(check)));
    // Retention (and stderr noise) is capped; the counters never are.
    if (log_.size() < kMaxKept) {
        std::fprintf(stderr, "audit: t=%lld us %s violation (entity "
                             "%d): %s\n",
                     static_cast<long long>(snap.now / sim::kUs),
                     auditCheckName(check), entity, detail.c_str());
        log_.push_back({snap.now, check, entity, std::move(detail)});
    }
    if (cfg_.failFast)
        dumpAndAbort(snap);
}

void
Auditor::dumpAndAbort(const AuditSnapshot &snap)
{
    std::fprintf(stderr,
                 "audit: failFast diagnostic dump @ t=%lld us\n"
                 "  flights: created=%llu finished=%llu inflight=%llu\n"
                 "  requests: dispatched=%llu completed=%llu lost=%llu "
                 "lost_to_crash=%llu measured_inflight=%llu\n"
                 "  servers=%zu links=%zu energy_planes=%zu\n"
                 "  budget: enabled=%d floor=%.3f deadband=%.3f "
                 "new_epochs=%zu last_budget=%.3f\n",
                 static_cast<long long>(snap.now / sim::kUs),
                 static_cast<unsigned long long>(snap.flightsCreated),
                 static_cast<unsigned long long>(snap.flightsFinished),
                 static_cast<unsigned long long>(snap.flightsInFlight),
                 static_cast<unsigned long long>(snap.dispatched),
                 static_cast<unsigned long long>(snap.completed),
                 static_cast<unsigned long long>(snap.lost),
                 static_cast<unsigned long long>(snap.lostToCrash),
                 static_cast<unsigned long long>(snap.measuredInFlight),
                 snap.servers.size(), snap.links.size(),
                 snap.energy.size(), snap.budgetEnabled ? 1 : 0,
                 snap.floorW, snap.deadbandW, snap.newEpochs.size(),
                 snap.lastBudgetW);
    for (const AuditViolation &v : log_)
        std::fprintf(stderr, "  violation: t=%lld us %s entity=%d %s\n",
                     static_cast<long long>(v.at / sim::kUs),
                     auditCheckName(v.check), v.entity,
                     v.detail.c_str());
    std::fflush(stderr);
    std::abort();
}

void
Auditor::audit(const AuditSnapshot &snap)
{
    ++audits_;
    lastAuditAt_ = snap.now;

    // (1) Flight conservation: every flight ever created is either
    // finished or still in the flight map — exactly.
    ++checks_;
    if (snap.flightsCreated !=
        snap.flightsFinished + snap.flightsInFlight)
        flag(snap, AuditCheck::FleetFlights, -1,
             fmtDetail("created %llu != finished %llu + inflight %llu",
                       static_cast<unsigned long long>(
                           snap.flightsCreated),
                       static_cast<unsigned long long>(
                           snap.flightsFinished),
                       static_cast<unsigned long long>(
                           snap.flightsInFlight)));
    if (snap.flightsFinished < prevFinished_)
        flag(snap, AuditCheck::FleetFlights, -1,
             fmtDetail("finished count went backwards: %llu -> %llu",
                       static_cast<unsigned long long>(prevFinished_),
                       static_cast<unsigned long long>(
                           snap.flightsFinished)));
    prevFinished_ = snap.flightsFinished;

    // (2) Measurement-window request conservation: injected =
    // completed + lost-to-drop + lost-to-crash + in flight. A crash
    // destroys work loudly — destroyed requests land in lostToCrash,
    // never in an accounting hole.
    ++checks_;
    if (snap.dispatched != snap.completed + snap.lost +
            snap.lostToCrash + snap.measuredInFlight)
        flag(snap, AuditCheck::FleetRequests, -1,
             fmtDetail(
                 "dispatched %llu != completed %llu + lost %llu + "
                 "crash %llu + inflight %llu",
                 static_cast<unsigned long long>(snap.dispatched),
                 static_cast<unsigned long long>(snap.completed),
                 static_cast<unsigned long long>(snap.lost),
                 static_cast<unsigned long long>(snap.lostToCrash),
                 static_cast<unsigned long long>(snap.measuredInFlight)));

    // (3) Per-server counters: completed + aborted never exceeds
    // accepted (outstanding work is non-negative), and all only grow.
    const bool first = prevServers_.size() != snap.servers.size();
    for (std::size_t i = 0; i < snap.servers.size(); ++i) {
        ++checks_;
        const AuditServerCounters &sc = snap.servers[i];
        if (sc.completed + sc.aborted > sc.accepted)
            flag(snap, AuditCheck::ServerCounters, static_cast<int>(i),
                 fmtDetail("completed %llu + aborted %llu > accepted "
                           "%llu",
                           static_cast<unsigned long long>(sc.completed),
                           static_cast<unsigned long long>(sc.aborted),
                           static_cast<unsigned long long>(sc.accepted)));
        if (!first) {
            const AuditServerCounters &pv = prevServers_[i];
            if (sc.accepted < pv.accepted ||
                sc.completed < pv.completed || sc.aborted < pv.aborted)
                flag(snap, AuditCheck::ServerCounters,
                     static_cast<int>(i),
                     fmtDetail("counters went backwards: accepted "
                               "%llu -> %llu, completed %llu -> %llu, "
                               "aborted %llu -> %llu",
                               static_cast<unsigned long long>(
                                   pv.accepted),
                               static_cast<unsigned long long>(
                                   sc.accepted),
                               static_cast<unsigned long long>(
                                   pv.completed),
                               static_cast<unsigned long long>(
                                   sc.completed),
                               static_cast<unsigned long long>(
                                   pv.aborted),
                               static_cast<unsigned long long>(
                                   sc.aborted)));
        }
    }
    prevServers_ = snap.servers;

    // (4) Per-link packet conservation, exact in integers.
    for (std::size_t i = 0; i < snap.links.size(); ++i) {
        ++checks_;
        const AuditLinkCounters &lc = snap.links[i];
        if (lc.offered != lc.delivered + lc.dropped)
            flag(snap, AuditCheck::LinkConservation,
                 static_cast<int>(i),
                 fmtDetail("offered %llu != delivered %llu + dropped "
                           "%llu",
                           static_cast<unsigned long long>(lc.offered),
                           static_cast<unsigned long long>(lc.delivered),
                           static_cast<unsigned long long>(lc.dropped)));
    }

    // (5) Energy accounting: the quantized RAPL counter must bracket
    // the integrated energy within one energy unit, the plane total
    // must equal the sum over its registered loads, and energy is
    // monotone.
    const bool efirst = prevEnergyJ_.size() != snap.energy.size();
    if (efirst)
        prevEnergyJ_.assign(snap.energy.size(), 0.0);
    for (std::size_t i = 0; i < snap.energy.size(); ++i) {
        ++checks_;
        const AuditEnergy &e = snap.energy[i];
        const double counted =
            static_cast<double>(e.counter) * e.unitJ;
        if (e.unitJ > 0.0 &&
            (counted > e.energyJ + kEpsJ ||
             e.energyJ >= counted + e.unitJ + kEpsJ))
            flag(snap, AuditCheck::Energy, e.server,
                 fmtDetail("plane %d counter %llu x %.9f J does not "
                           "bracket energy %.9f J",
                           e.plane,
                           static_cast<unsigned long long>(e.counter),
                           e.unitJ, e.energyJ));
        if (std::abs(e.energyJ - e.loadSumJ) >
            kEpsJ + 1e-12 * std::abs(e.energyJ))
            flag(snap, AuditCheck::Energy, e.server,
                 fmtDetail("plane %d energy %.9f J != load sum %.9f J",
                           e.plane, e.energyJ, e.loadSumJ));
        if (e.energyJ + kEpsJ < prevEnergyJ_[i])
            flag(snap, AuditCheck::Energy, e.server,
                 fmtDetail("plane %d energy went backwards: %.9f -> "
                           "%.9f J",
                           e.plane, prevEnergyJ_[i], e.energyJ));
        prevEnergyJ_[i] = e.energyJ;
    }

    // (6) Rack budget conservation.
    if (snap.budgetEnabled) {
        const double n = static_cast<double>(snap.numServers);
        for (const AuditBudgetEpoch &ep : snap.newEpochs) {
            ++checks_;
            if (ep.allocatedW > ep.budgetW + kEpsW)
                flag(snap, AuditCheck::Budget, -1,
                     fmtDetail("epoch @%lld us granted %.3f W over "
                               "budget %.3f W",
                               static_cast<long long>(ep.at / sim::kUs),
                               ep.allocatedW, ep.budgetW));
            // Outside emergencies every *participating* server is
            // guaranteed its floor, so the grant total can't dip
            // below active * floor. Epochs recorded before liveness
            // tracking (active == 0) cover the whole fleet.
            const std::size_t live =
                ep.active ? ep.active : snap.numServers;
            if (!ep.emergency && ep.allocatedW + kEpsW <
                    static_cast<double>(live) * snap.floorW)
                flag(snap, AuditCheck::Budget, -1,
                     fmtDetail("non-emergency epoch @%lld us granted "
                               "%.3f W < %zu x floor %.3f W",
                               static_cast<long long>(ep.at / sim::kUs),
                               ep.allocatedW, live, snap.floorW));
        }
        // Enforced limits: each within the deadband of some grant that
        // summed to <= the last rack budget, so the fleet-wide enforced
        // total is bounded by lastBudgetW + n * deadband; floors hold
        // per server as long as no emergency ever scaled them down.
        if (!snap.serverLimitW.empty() && snap.lastBudgetW > 0.0) {
            ++checks_;
            double sum = 0.0;
            for (double w : snap.serverLimitW)
                // lint:allow(float-accum) fixed server-index vector
                // order; snapshot taken on the quiescent spine
                sum += w;
            if (sum > snap.lastBudgetW + n * snap.deadbandW + kEpsW)
                flag(snap, AuditCheck::Budget, -1,
                     fmtDetail("enforced limits sum %.3f W > budget "
                               "%.3f W + deadband slack %.3f W",
                               sum, snap.lastBudgetW,
                               n * snap.deadbandW));
            if (!snap.anyEmergencyEver)
                for (std::size_t i = 0; i < snap.serverLimitW.size();
                     ++i) {
                    // A grant issued while the server was out of the
                    // allocation is deliberately zero; it owes nothing
                    // to the floor until the server's next grant.
                    if (i < snap.grantActive.size() &&
                        !snap.grantActive[i])
                        continue;
                    if (snap.serverLimitW[i] +
                            snap.deadbandW + kEpsW <
                        snap.floorW)
                        flag(snap, AuditCheck::Budget,
                             static_cast<int>(i),
                             fmtDetail("enforced limit %.3f W below "
                                       "floor %.3f W (deadband %.3f W)",
                                       snap.serverLimitW[i], snap.floorW,
                                       snap.deadbandW));
                }
        }
    }
}

} // namespace apc::obs
