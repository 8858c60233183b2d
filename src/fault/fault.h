/**
 * @file
 * Deterministic fault injection for the fleet engine.
 *
 * A `FaultPlan` owns the full failure schedule of a run: scripted
 * events the scenario author pins to exact instants, plus stochastic
 * events drawn from per-(entity, kind) hazard processes. All
 * randomness is *counter-based*: every draw is a pure hash of
 * `(seed, entity, kind, counter)`, so the schedule is a function of
 * the configuration alone — byte-identical across thread counts,
 * shard layouts, and epoch boundaries. No stateful RNG exists in this
 * subsystem (the `fault-rng` determinism-lint rule enforces that
 * statically).
 *
 * Faults are *applied* by the fleet's single-threaded route stage, so
 * the sharded spine's determinism contract is untouched: the parallel
 * advance phase only ever sees lifecycle state that was mutated
 * between epochs, in plan order.
 *
 * The same counter-based substream also feeds the client recovery
 * path: retry backoff jitter is drawn from the *request's* substream
 * (keyed by request id and attempt), so failover timing does not
 * depend on the order timeouts are discovered in.
 */

#ifndef APC_FAULT_FAULT_H
#define APC_FAULT_FAULT_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace apc::fault {

/** Failure modes the plan can schedule. */
enum class FaultKind : std::uint8_t
{
    ServerCrash, ///< destroy in-flight work, go Down, restart after mttr
    ServerDrain, ///< stop admission, let work finish, restart after mttr
    LinkFlap,    ///< edge links of the entity forced 100% loss
    NicFreeze,   ///< NIC interrupt moderation frozen (ring fills, drops)
    kCount
};

/** LinkFlap entity addressing the core (ToR uplink) pair: a blackout
 *  that severs every server instead of one edge. */
inline constexpr std::uint32_t kCoreLinkEntity = 0xFFFFFFFFu;

/** One fault instance: what, whom, when, and for how long. */
struct FaultEvent
{
    sim::Tick at = 0;       ///< injection instant
    sim::Tick duration = 0; ///< outage window (Down time / flap length)
    FaultKind kind = FaultKind::ServerCrash;
    std::uint32_t entity = 0; ///< server index (or kCoreLinkEntity)
};

/** Plan order: (at, entity, kind) — total and layout-invariant. */
inline bool
faultBefore(const FaultEvent &a, const FaultEvent &b)
{
    if (a.at != b.at)
        return a.at < b.at;
    if (a.entity != b.entity)
        return a.entity < b.entity;
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
}

// ---------------------------------------------------------------------------
// Counter-based substreams
//
// SplitMix64 finalizer over a keyed accumulator. Stateless: the n-th
// draw of a stream needs no history, so any consumer can evaluate any
// draw at any time on any thread and get the same bits.

/** Raw 64-bit draw of stream (seed, entity, kind) at @p counter. */
std::uint64_t substream(std::uint64_t seed, std::uint64_t entity,
                        std::uint64_t kind, std::uint64_t counter);

/** Uniform double in [0, 1) from the substream. */
double substreamU01(std::uint64_t seed, std::uint64_t entity,
                    std::uint64_t kind, std::uint64_t counter);

/** Exponential gap with the given mean (ticks), never < 1 tick. */
sim::Tick substreamExp(std::uint64_t seed, std::uint64_t entity,
                       std::uint64_t kind, std::uint64_t counter,
                       double mean_ticks);

/** Hazard process for one fault kind over a population of entities. */
struct HazardConfig
{
    /** Mean events per entity per simulated second (0 = off). */
    double ratePerSec = 0.0;
    /** Outage window per event (fixed, so MTTR sweeps are exact). */
    sim::Tick mttr = 20 * sim::kMs;
};

/** Full failure schedule of a run. */
struct FaultPlanConfig
{
    bool enabled = false;

    /** Author-pinned events (any order; the plan sorts them). */
    std::vector<FaultEvent> scripted;

    /** Stochastic hazards, one renewal process per (entity, kind). */
    HazardConfig crash;  ///< per server
    HazardConfig drain;  ///< per server
    HazardConfig flap;   ///< per server edge-link pair
    HazardConfig freeze; ///< per server NIC

    /** Restarting → Up delay after an outage window ends: kernel boot
     *  and cache warm-up the restarted server pays before admitting. */
    sim::Tick restartCost = 2 * sim::kMs;
};

/**
 * Materializes the fault schedule epoch by epoch. Stochastic streams
 * are renewal processes: event n+1 fires `mttr + Exp(1/rate)` after
 * event n, so an entity is never scheduled to fail while its previous
 * outage window is still open. Cursors only memoize how far each
 * stream has been enumerated — the draws themselves are stateless.
 */
class FaultPlan
{
  public:
    FaultPlan(FaultPlanConfig cfg, std::uint64_t seed,
              std::uint32_t num_servers);

    /** All fault events with `at` in [from, to), in faultBefore order,
     *  appended into @p out (cleared first). */
    void epoch(sim::Tick from, sim::Tick to,
               std::vector<FaultEvent> &out);

    const FaultPlanConfig &config() const { return cfg_; }

  private:
    struct Cursor
    {
        sim::Tick next = 0;
        std::uint64_t counter = 0;
    };

    const HazardConfig &hazard(FaultKind k) const;
    void advanceCursor(FaultKind k, std::uint32_t entity, Cursor &c);

    FaultPlanConfig cfg_;
    std::uint64_t seed_;
    std::uint32_t numServers_;
    /** [kind][entity], flattened; empty when the kind's rate is 0. */
    std::vector<std::vector<Cursor>> cursors_;
    std::size_t scriptedPos_ = 0;
};

// ---------------------------------------------------------------------------
// Client recovery (graceful degradation) policy

/** Per-request timeout + capped exponential backoff + failover. */
struct RecoveryConfig
{
    bool enabled = false;

    /** Client gives up waiting on a replica after this long. */
    sim::Tick requestTimeout = 5 * sim::kMs;

    /** Re-dispatch delay after attempt k (0-based failure count):
     *  min(backoffBase * backoffFactor^k, backoffCap), +/- jitter. */
    sim::Tick backoffBase = 200 * sim::kUs;
    double backoffFactor = 2.0;
    sim::Tick backoffCap = 2 * sim::kMs;

    /** Symmetric jitter as a fraction of the delay, drawn from the
     *  request's own counter substream. */
    double jitterFrac = 0.25;

    /** Total dispatch attempts per replica (1 = no failover). */
    int maxAttempts = 3;
};

/**
 * Deterministic backoff delay before re-dispatching request @p id
 * after its @p attempt-th failure (0-based). Jitter comes from the
 * request's substream, so the value is independent of the order the
 * merge stage discovers timeouts in.
 */
sim::Tick backoffDelay(const RecoveryConfig &cfg, std::uint64_t seed,
                       std::uint64_t id, int attempt);

} // namespace apc::fault

#endif // APC_FAULT_FAULT_H
