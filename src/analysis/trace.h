/**
 * @file
 * SoCWatch-style event tracing.
 *
 * The paper's methodology (Sec. 6) builds on SoCWatch traces of C-state
 * transition events. `TraceRecorder` reproduces that workflow against
 * the simulator: it subscribes to a Soc's package-state changes and the
 * APC control wires, buffers timestamped events, and renders them as
 * CSV for offline analysis (or assertions in tests).
 *
 * Storage is the telemetry subsystem's interned-id ring buffer
 * (obs/tracer.h): every kind/detail string is interned once at
 * subscription time, and each recorded event is one 48-byte POD write —
 * no per-event heap allocation, bounded memory (drop-oldest past the
 * capacity, counted in droppedEvents()).
 */

#ifndef APC_ANALYSIS_TRACE_H
#define APC_ANALYSIS_TRACE_H

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/interner.h"
#include "obs/tracer.h"
#include "soc/soc.h"

namespace apc::analysis {

/** One recorded event (materialized view; storage is POD records). */
struct TraceEvent
{
    sim::Tick when = 0;
    obs::StrId kind = obs::kNoStr;   ///< "pkg", "wire", "core", ...
    obs::StrId detail = obs::kNoStr; ///< e.g. "PC1A", "InL0s=1"
};

/** Records state/wire transitions from a Soc. */
class TraceRecorder
{
  public:
    /**
     * Attach to @p soc. Subscribes to the package-state machinery that
     * exists under the SoC's policy (APMU wires only when present).
     *
     * @param trace_cores also record per-core InCC1 edges (verbose)
     * @param capacity ring capacity in events; the oldest events are
     *   overwritten (and counted) once it fills
     */
    explicit TraceRecorder(soc::Soc &soc, bool trace_cores = false,
                           std::size_t capacity = 1u << 20);

    /** Recorded events oldest-first (materialized from the ring). */
    std::vector<TraceEvent> events() const;

    /** Events currently held. */
    std::size_t size() const { return ring_.size(); }

    /** Events lost to ring wrap-around. */
    std::uint64_t droppedEvents() const { return ring_.dropped(); }

    /** The string behind a TraceEvent::kind / ::detail id. */
    const std::string &str(obs::StrId id) const
    {
        return interner_.str(id);
    }

    /** Number of events with the given kind. */
    std::size_t countKind(const std::string &kind) const;

    /** Number of events matching kind and detail exactly. */
    std::size_t count(const std::string &kind,
                      const std::string &detail) const;

    /** Render as CSV ("time_us,kind,detail").
     *  @return false on IO failure. */
    bool writeCsv(std::FILE *out) const;

    /** Render to a file; @return false on IO failure. */
    bool writeCsv(const std::string &path) const;

  private:
    /** Intern both edge variants of a wire label up front so the
     *  signal callbacks only copy ids. */
    std::array<obs::StrId, 2> wirePair(const std::string &base);

    void record(obs::StrId kind, obs::StrId detail);

    soc::Soc &soc_;
    obs::StringInterner interner_;
    obs::TraceWriter ring_;
    obs::StrId kindPkg_, kindWire_, kindCore_;
    /** Package-state names, pre-interned in soc::PkgState order. */
    std::array<obs::StrId, soc::kNumPkgStates> pkgNames_{};
};

} // namespace apc::analysis

#endif // APC_ANALYSIS_TRACE_H
