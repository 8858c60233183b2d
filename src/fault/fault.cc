#include "fault/fault.h"

#include <cassert>
#include <cmath>

namespace apc::fault {

// SplitMix64 finalizer over a keyed accumulator. The three keys are
// spread with odd constants so adjacent (entity, kind, counter) tuples
// land in unrelated regions of the state space.
std::uint64_t
substream(std::uint64_t seed, std::uint64_t entity, std::uint64_t kind,
          std::uint64_t counter)
{
    std::uint64_t z = seed;
    z += (entity + 1) * 0x9E3779B97F4A7C15ULL;
    z += (kind + 1) * 0xC2B2AE3D27D4EB4FULL;
    z += (counter + 1) * 0x165667B19E3779F9ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double
substreamU01(std::uint64_t seed, std::uint64_t entity,
             std::uint64_t kind, std::uint64_t counter)
{
    // 53 high bits -> [0, 1) with full double precision.
    return static_cast<double>(
               substream(seed, entity, kind, counter) >> 11) *
        0x1.0p-53;
}

sim::Tick
substreamExp(std::uint64_t seed, std::uint64_t entity,
             std::uint64_t kind, std::uint64_t counter,
             double mean_ticks)
{
    const double u = substreamU01(seed, entity, kind, counter);
    const double gap = -mean_ticks * std::log1p(-u);
    const auto t = static_cast<sim::Tick>(gap);
    return t < 1 ? 1 : t;
}

FaultPlan::FaultPlan(FaultPlanConfig cfg, std::uint64_t seed,
                     std::uint32_t num_servers)
    : cfg_(std::move(cfg)), seed_(seed), numServers_(num_servers)
{
    std::sort(cfg_.scripted.begin(), cfg_.scripted.end(), faultBefore);
    cursors_.resize(static_cast<std::size_t>(FaultKind::kCount));
    for (std::size_t k = 0; k < cursors_.size(); ++k) {
        const auto kind = static_cast<FaultKind>(k);
        if (hazard(kind).ratePerSec <= 0.0 || numServers_ == 0)
            continue;
        auto &col = cursors_[k];
        col.resize(numServers_);
        for (std::uint32_t e = 0; e < numServers_; ++e)
            advanceCursor(kind, e, col[e]); // prime: first event time
    }
}

const HazardConfig &
FaultPlan::hazard(FaultKind k) const
{
    switch (k) {
    case FaultKind::ServerDrain:
        return cfg_.drain;
    case FaultKind::LinkFlap:
        return cfg_.flap;
    case FaultKind::NicFreeze:
        return cfg_.freeze;
    case FaultKind::ServerCrash:
    case FaultKind::kCount:
        break;
    }
    return cfg_.crash;
}

void
FaultPlan::advanceCursor(FaultKind k, std::uint32_t entity, Cursor &c)
{
    const HazardConfig &hz = hazard(k);
    const double mean_gap =
        static_cast<double>(sim::kSec) / hz.ratePerSec;
    const sim::Tick gap =
        substreamExp(seed_, entity, static_cast<std::uint64_t>(k),
                     c.counter, mean_gap);
    ++c.counter;
    // Renewal: the next failure can only begin after the previous
    // outage window has fully closed.
    c.next += (c.counter > 1 ? hz.mttr : 0) + gap;
}

void
FaultPlan::epoch(sim::Tick from, sim::Tick to,
                 std::vector<FaultEvent> &out)
{
    out.clear();
    if (!cfg_.enabled || to <= from)
        return;
    while (scriptedPos_ < cfg_.scripted.size() &&
           cfg_.scripted[scriptedPos_].at < to) {
        if (cfg_.scripted[scriptedPos_].at >= from)
            out.push_back(cfg_.scripted[scriptedPos_]);
        ++scriptedPos_;
    }
    for (std::size_t k = 0; k < cursors_.size(); ++k) {
        const auto kind = static_cast<FaultKind>(k);
        const HazardConfig &hz = hazard(kind);
        for (std::uint32_t e = 0;
             e < static_cast<std::uint32_t>(cursors_[k].size()); ++e) {
            Cursor &c = cursors_[k][e];
            while (c.next < to) {
                if (c.next >= from)
                    out.push_back({c.next, hz.mttr, kind, e});
                advanceCursor(kind, e, c);
            }
        }
    }
    std::sort(out.begin(), out.end(), faultBefore);
}

sim::Tick
backoffDelay(const RecoveryConfig &cfg, std::uint64_t seed,
             std::uint64_t id, int attempt)
{
    double delay = static_cast<double>(cfg.backoffBase);
    for (int i = 0; i < attempt; ++i) {
        delay *= cfg.backoffFactor;
        if (delay >= static_cast<double>(cfg.backoffCap))
            break;
    }
    if (delay > static_cast<double>(cfg.backoffCap))
        delay = static_cast<double>(cfg.backoffCap);
    // Jitter stream: a dedicated kind id far outside FaultKind so the
    // recovery draws can never collide with the plan's hazard draws.
    constexpr std::uint64_t kJitterKind = 0x4A49545445ULL; // "JITTE"
    const double u = substreamU01(seed, id, kJitterKind,
                                  static_cast<std::uint64_t>(attempt));
    const double jitter = cfg.jitterFrac * (2.0 * u - 1.0);
    const auto t = static_cast<sim::Tick>(delay * (1.0 + jitter));
    return t < 1 ? 1 : t;
}

} // namespace apc::fault
