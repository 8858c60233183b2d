/**
 * @file
 * Server sharding for the fleet execution engine.
 *
 * A shard is a fixed contiguous range of server indices that one worker
 * owns for the duration of a parallel phase: it schedules the shard's
 * staged injections, advances the shard's servers, and stages their
 * outcomes (completions, drops, aborts) into the shard's slot. Because
 * a slot has exactly one writer per phase and slots are cache-line
 * aligned, the staging path is free of both data races and false
 * sharing.
 *
 * Determinism contract: nothing observable may depend on the shard
 * size. Routing happens single-threaded before the parallel phase (so
 * per-server injection order is the routing order regardless of
 * layout), and the drain merges shard outputs back into one stream
 * ordered by (time, server, id) — the same total order a global sort
 * over per-server buffers produced. Reports are therefore bit-identical
 * across any thread count and any shard size.
 */

#ifndef APC_FLEET_SHARD_H
#define APC_FLEET_SHARD_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/attribution.h"
#include "server/server_sim.h"
#include "sim/annotations.h"
#include "sim/time.h"

namespace apc::fleet {

/** Contiguous partition of [0, numServers) into equal-width shards. */
struct ShardLayout
{
    std::size_t numServers = 0;
    std::size_t shardSize = 1;
    std::size_t numShards = 0;

    /**
     * Build a layout. @p shard_size 0 picks one automatically: about
     * four shards per worker (so a straggling worker's unclaimed shards
     * can be absorbed by others), capped at 64 servers per shard (so a
     * slot's working set stays cache-resident).
     */
    static ShardLayout
    make(std::size_t servers, std::size_t shard_size, unsigned threads)
    {
        ShardLayout l;
        l.numServers = servers;
        if (shard_size == 0) {
            const std::size_t workers = std::max(1u, threads);
            shard_size = (servers + 4 * workers - 1) / (4 * workers);
            shard_size = std::clamp<std::size_t>(shard_size, 1, 64);
        }
        l.shardSize = std::max<std::size_t>(1, shard_size);
        l.numShards = servers ? (servers + l.shardSize - 1) / l.shardSize
                              : 0;
        return l;
    }

    std::size_t begin(std::size_t shard) const
    {
        return shard * shardSize;
    }

    std::size_t
    end(std::size_t shard) const
    {
        return std::min(numServers, (shard + 1) * shardSize);
    }

    std::size_t shardOf(std::size_t srv) const { return srv / shardSize; }
};

/** No attribution sums staged with an event. */
inline constexpr std::uint32_t kNoSums = UINT32_MAX;

/** One staged server-side outcome (completion, RX drop or abort). */
struct StagedEvent
{
    sim::Tick at;      ///< server-clock time of the outcome
    std::uint32_t srv; ///< producing server index
    /** Index of the replica's attribution sums in the slot's `sums`,
     *  or kNoSums (fills the padding: the event stays 24 bytes). */
    std::uint32_t sums;
    std::uint64_t id;  ///< fleet request id
};

/** Merge order: time, then server, then id — matches the global sort
 *  the pre-shard engine applied to its per-server buffers. */
inline bool
stagedBefore(const StagedEvent &a, const StagedEvent &b)
{
    if (a.at != b.at)
        return a.at < b.at;
    if (a.srv != b.srv)
        return a.srv < b.srv;
    return a.id < b.id;
}

/** One routed replica waiting to be scheduled into its server. */
struct PendingInject
{
    sim::Tick deliverAt; ///< arrival instant at the server
    sim::Tick service;   ///< dispatcher-chosen demand (<=0 = sample)
    std::uint32_t srv;
    /** Index of the replica's request-leg sums in the slot's `legs`,
     *  or kNoSums. */
    std::uint32_t legs;
    std::uint64_t id;
};

/**
 * Per-shard staging state. `injects` is filled by the single-threaded
 * router and consumed by the shard's worker; the `ended` streams are
 * appended by the shard's servers during an advance (via their end
 * hook) and drained by the single-threaded merge.
 * Cache-line aligned so adjacent shards' slots never share a line
 * (the old per-server vector-of-vectors put buffers mutated by
 * different workers on the same line).
 *
 * The "one writer per phase" rule is modeled as a capability: the
 * staging vectors are APC_GUARDED_BY(writer), so every access site —
 * router, shard worker, server hooks, merge drain — must state its
 * claim with a sim::RoleGuard (a no-op at runtime). Code that touches
 * a slot without claiming the writer role fails the clang
 * -Wthread-safety build; that the claims never overlap across threads
 * is verified by the TSan CI job.
 */
struct alignas(64) ShardSlot
{
    /** Phase-scoped single-writer capability for the staging vectors. */
    sim::Role writer;
    std::vector<PendingInject> injects APC_GUARDED_BY(writer);
    /** Staged server outcomes, one stream per server::End. */
    std::array<std::vector<StagedEvent>, server::kNumEnds> ended
        APC_GUARDED_BY(writer);
    /** Attribution on: request-leg sums of the staged injections
     *  (PendingInject::legs), consumed with them. */
    std::vector<obs::SegmentSums> legs APC_GUARDED_BY(writer);
    /** Attribution on: replica sums of the staged outcomes
     *  (StagedEvent::sums); the next advance clears them once the
     *  merge has consumed those streams. */
    std::vector<obs::ReplicaSums> sums APC_GUARDED_BY(writer);

    /** Stage server @p srv's @p segs; @return the index, or kNoSums
     *  when null. */
    std::uint32_t
    stageSums(std::uint32_t srv, const obs::SegmentSums *segs)
        APC_REQUIRES(writer)
    {
        if (!segs)
            return kNoSums;
        sums.push_back({srv, *segs});
        return static_cast<std::uint32_t>(sums.size() - 1);
    }
};

} // namespace apc::fleet

#endif // APC_FLEET_SHARD_H
