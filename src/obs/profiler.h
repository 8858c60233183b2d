/**
 * @file
 * Engine self-profiling: wall-clock timers around the fleet engine's
 * route/advance/merge/collect pipeline phases and per-shard advance
 * times.
 *
 * This is the only telemetry component that reads the host clock; its
 * measurements therefore differ run to run and MUST never feed
 * simulation results — they surface where the wall-clock goes (the
 * Amdahl residue of the serial spine, advance-phase imbalance across
 * shards) in bench output and as an optional "engine" process in the
 * Perfetto export. Phase totals always accumulate; per-epoch spans are
 * kept up to a fixed cap so long sweeps stay bounded.
 *
 * Thread-safety: begin/end scopes run on the driving thread;
 * `addShardTime` may be called from parallel workers, but each shard
 * index has exactly one writer per phase, so the per-shard accumulation
 * is race-free by the same single-writer argument the staging slots
 * use.
 */

#ifndef APC_OBS_PROFILER_H
#define APC_OBS_PROFILER_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/annotations.h"

namespace apc::obs {

/** Wall-clock profiler for the fleet epoch pipeline. */
class PhaseProfiler
{
  public:
    enum class Phase : std::uint8_t
    {
        Route = 0, ///< traffic generation + dispatch + fabric transit
        Advance,   ///< parallel per-shard server advance
        Merge,     ///< k-way merged completion/drop drain
        Collect,   ///< end-of-run per-server collection
    };
    static constexpr std::size_t kNumPhases = 4;

    static const char *phaseName(Phase p);

    using Clock = std::chrono::steady_clock;

    /** RAII phase timer. */
    class Scope
    {
      public:
        Scope(PhaseProfiler &p, Phase ph)
            : prof_(p), phase_(ph), t0_(Clock::now())
        {
        }
        ~Scope() { prof_.addSpan(phase_, t0_, Clock::now()); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        PhaseProfiler &prof_;
        Phase phase_;
        Clock::time_point t0_;
    };

    /** Anchor the span timeline and size the per-shard table. Clears
     *  any previous measurements. */
    void beginRun(std::size_t num_shards);

    Scope scope(Phase p) { return Scope(*this, p); }

    /** Accumulate one shard's advance time (worker-side). The claim is
     *  element-granular: each shard index has exactly one writer per
     *  phase (the worker advancing that shard), mirroring ShardSlot. */
    void
    addShardTime(std::size_t shard, double sec)
    {
        sim::RoleGuard own(shardTable_);
        shardSec_[shard] += sec;
    }

    /** Accumulated wall-clock seconds in @p p. */
    double totalSec(Phase p) const
    {
        return totalSec_[static_cast<std::size_t>(p)];
    }

    /** Completed scopes of @p p. */
    std::uint64_t count(Phase p) const
    {
        return count_[static_cast<std::size_t>(p)];
    }

    const std::vector<double> &
    shardTimesSec() const
    {
        sim::SharedRoleGuard own(shardTable_);
        return shardSec_;
    }

    /**
     * Advance-phase imbalance: max over shards of accumulated advance
     * time divided by the mean. 1.0 = perfectly balanced (or no data);
     * large values mean one shard serializes the parallel phase.
     */
    double shardImbalance() const;

    /** One recorded pipeline-phase interval (wall-clock µs from the
     *  beginRun anchor). */
    struct EngineSpan
    {
        double startUs;
        double durUs;
        Phase phase;
    };

    const std::vector<EngineSpan> &spans() const { return spans_; }
    std::uint64_t droppedSpans() const { return droppedSpans_; }

  private:
    /** Per-run span cap: phases * epochs beyond this only accumulate
     *  into the totals. */
    static constexpr std::size_t kMaxSpans = 1u << 15;

    void addSpan(Phase p, Clock::time_point t0, Clock::time_point t1);

    Clock::time_point anchor_{};
    double totalSec_[kNumPhases] = {};
    std::uint64_t count_[kNumPhases] = {};
    /** Element-granular single-writer capability for shardSec_ (one
     *  worker per shard index during an advance phase; spine-only
     *  reads between phases). Checked dynamically by the TSan job. */
    mutable sim::Role shardTable_;
    std::vector<double> shardSec_ APC_GUARDED_BY(shardTable_);
    std::vector<EngineSpan> spans_;
    std::uint64_t droppedSpans_ = 0;
};

} // namespace apc::obs

#endif // APC_OBS_PROFILER_H
