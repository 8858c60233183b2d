/**
 * @file
 * Cluster load balancing: one `Dispatcher` for the three dispatch
 * policies.
 *
 * The dispatcher sees the load balancer's view of the fleet: per-server
 * outstanding request counts, refreshed at epoch boundaries
 * (`refresh`) plus the dispatches it made itself since (`onDispatch`)
 * — a realistic, slightly stale view of the backends.
 *
 * The dispatcher is stateful and indexed: it keeps the view in a
 * `MinIndex` (a flat segment tree), so choosing a server is
 * O(log n) instead of the O(n) scan the first fleet engine used — at
 * 10k servers that scan, once per routed replica, was a third of a
 * sweep's wall-clock. Tie-breaking is leftmost, matching the old
 * linear scans bit-for-bit, so dispatch decisions (and therefore every
 * downstream report) are unchanged.
 *
 * Three policies span the energy/latency trade-off the paper's
 * datacenter argument turns on:
 *
 * - **RoundRobin** — classic spreading; every server stays lukewarm, so
 *   none reaches deep package idle (the energy-proportionality worst
 *   case for legacy C-states).
 * - **LeastOutstanding** — join-the-shortest-queue on the stale view;
 *   best tail latency, still spreads load.
 * - **PowerAwarePacking** — fills servers in a fixed order up to a
 *   per-server outstanding budget, so the tail of the fleet drains
 *   completely and can sit in PC6/PC1A; spills to the least-loaded
 *   server when every packed server is at budget.
 *
 * Fanout replicas must land on distinct servers: the fleet `exclude`s
 * each chosen server for the remainder of the request and
 * `clearExclusions` afterwards. Excluded and removed (Down) servers are
 * masked inside the index (count parked at `MinIndex::kInf`), so the
 * queue-depth policies never pick them and round-robin skips them.
 */

#ifndef APC_FLEET_DISPATCH_H
#define APC_FLEET_DISPATCH_H

#include <cstdint>
#include <utility>
#include <vector>

namespace apc::fleet {

/** Dispatch policy selector. */
enum class DispatchKind
{
    RoundRobin,
    LeastOutstanding,
    PowerAwarePacking,
};

/** Display name. */
constexpr const char *
dispatchName(DispatchKind k)
{
    switch (k) {
      case DispatchKind::RoundRobin:
        return "round-robin";
      case DispatchKind::LeastOutstanding:
        return "least-outstanding";
      case DispatchKind::PowerAwarePacking:
        return "power-aware-packing";
    }
    return "?";
}

/**
 * Min-indexed view over per-server outstanding counts: a flat segment
 * tree answering leftmost-argmin and leftmost-below-bound queries in
 * O(log n), with O(log n) point updates. Ties resolve to the lowest
 * index, exactly like a left-to-right linear scan.
 */
class MinIndex
{
  public:
    static constexpr std::uint32_t kInf = UINT32_MAX;
    static constexpr std::size_t npos = SIZE_MAX;

    /** Rebuild from @p values (O(n)). */
    void assign(const std::vector<std::uint32_t> &values);

    std::size_t size() const { return n_; }

    std::uint32_t get(std::size_t i) const { return t_[base_ + i]; }

    /** Set leaf @p i to @p v and repair the path to the root. */
    void set(std::size_t i, std::uint32_t v);

    void add(std::size_t i, std::uint32_t d) { set(i, get(i) + d); }

    /** Lowest index holding the minimum value; npos when empty. */
    std::size_t argmin() const;

    /** Lowest index with value < @p bound; npos when none. */
    std::size_t firstUnder(std::uint32_t bound) const;

  private:
    std::size_t n_ = 0;
    std::size_t base_ = 0; ///< first leaf slot; t_[base_+i] = leaf i
    std::vector<std::uint32_t> t_;
};

/**
 * The dispatch decision maker for all three policies, over one
 * `MinIndex` view of the per-server outstanding counts. Deterministic:
 * the same call sequence yields the same servers (fleet
 * reproducibility depends on it).
 *
 * Call protocol per epoch: `remove`/`reinsert` for servers that went
 * down or came back, one `refresh` with the epoch-boundary outstanding
 * counts, then per replica `pick` + `onDispatch(picked)`; fanout
 * requests additionally `exclude(picked)` after each replica and
 * `clearExclusions` once the request is fully routed. No exclusion
 * spans a `refresh` or a `reinsert`.
 */
class Dispatcher
{
  public:
    /** pick() result when no server is currently pickable. */
    static constexpr std::size_t kNone = SIZE_MAX;

    /** @p pack_budget: PowerAwarePacking's per-server outstanding
     *  budget (unused by the other policies). */
    Dispatcher(DispatchKind kind, std::size_t num_servers,
               std::uint32_t pack_budget);

    /** Load the epoch-boundary backend view (one count per server). */
    void refresh(const std::vector<std::uint32_t> &outstanding);

    /**
     * Choose a server for the next request (or fanout replica). Never
     * returns an excluded or removed server.
     * @return server index in [0, fleet size), or kNone when every
     *         server is excluded or removed
     */
    std::size_t pick();

    /** Account one dispatch to @p srv in the in-epoch view. */
    void onDispatch(std::size_t srv);

    /** Hide @p srv from subsequent picks (replica already there). */
    void exclude(std::size_t srv);

    /** Drop all exclusions (start of the next request). */
    void clearExclusions();

    /**
     * Take @p srv out of the pick set entirely (server Down or
     * Draining). Unlike exclude, a removal survives refresh() and
     * clearExclusions(); only reinsert() undoes it.
     */
    void remove(std::size_t srv);

    /** Return a removed @p srv to the pick set with @p outstanding
     *  live work (no-op for a server in the pick set). */
    void reinsert(std::size_t srv, std::uint32_t outstanding);

  private:
    /** Leftmost least-loaded server; kNone when everything is masked. */
    std::size_t shortestQueue() const;

    DispatchKind kind_;
    std::uint32_t packBudget_;
    std::size_t next_ = 0; ///< round-robin cursor
    MinIndex idx_;
    /** Excluded servers with their parked live counts. */
    std::vector<std::pair<std::size_t, std::uint32_t>> saved_;
    std::vector<std::uint8_t> removed_;
};

} // namespace apc::fleet

#endif // APC_FLEET_DISPATCH_H
