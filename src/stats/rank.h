/**
 * @file
 * Exact-rank percentile machinery shared by the blame report
 * (obs/critpath.cc) and the SLO windows (obs/slo.cc).
 *
 * Everything here works on *ranks*, not interpolated quantiles: the
 * p-quantile of n samples is the smallest element with ceil(n*p)
 * samples at or below it. Exact ranks keep the percentile cut
 * deterministic (no floating-point quantile interpolation), so two
 * runs that produced the same sample multiset always report the same
 * percentile values and band memberships.
 */

#ifndef APC_STATS_RANK_H
#define APC_STATS_RANK_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace apc::stats {

/**
 * Number of samples at or below the p = num/den quantile in a ranked
 * population of @p n: ceil(n * num / den), computed in integers.
 */
constexpr std::size_t
exactRankCount(std::size_t n, std::uint64_t num, std::uint64_t den)
{
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(n) * num + den - 1) / den);
}

/**
 * The report percentile bands: each ranked sample falls into exactly
 * one of <=p50, p50-p95, p95-p99, p99-p999, >p999.
 */
inline constexpr std::size_t kNumPercentileBands = 5;

/** Display label for band @p b ("p50" .. "p100"). */
constexpr const char *
percentileBandLabel(std::size_t b)
{
    constexpr const char *labels[kNumPercentileBands] = {
        "p50", "p95", "p99", "p999", "p100"};
    return labels[b];
}

/**
 * Exact-rank band edges over @p n ranked samples: band b spans ranks
 * [edges[b], edges[b+1]). Edges are cumulative counts, so the bands
 * partition 0..n exactly.
 */
constexpr std::array<std::size_t, kNumPercentileBands + 1>
percentileBandEdges(std::size_t n)
{
    return {0,
            exactRankCount(n, 1, 2),
            exactRankCount(n, 19, 20),
            exactRankCount(n, 99, 100),
            exactRankCount(n, 999, 1000),
            n};
}

/**
 * Exact-rank p = num/den quantile of an ascending-sorted sequence:
 * the smallest element such that ceil(n * p) elements are <= it.
 * The p0 edge case returns the minimum; empty input returns T{}.
 */
template <typename T>
T
quantileSorted(const std::vector<T> &sorted, std::uint64_t num,
               std::uint64_t den)
{
    if (sorted.empty())
        return T{};
    std::size_t k = exactRankCount(sorted.size(), num, den);
    if (k == 0)
        k = 1;
    return sorted[k - 1];
}

/** One ascending-sorted run [first, last) of a multi-run population. */
template <typename T>
struct SortedRun
{
    const T *first = nullptr;
    const T *last = nullptr;
};

/**
 * Exact-rank p = num/den quantile over the union of ascending-sorted
 * @p runs: the value quantileSorted() returns for their sorted
 * concatenation, found without concatenating or sorting. The n - k
 * largest values are popped off a max-heap over the run tails, so the
 * cost is O((n - k + r) log r) for r runs — a few thousand heap steps
 * for a p99 over ~10^5 samples. @p runs is consumed as the heap.
 */
template <typename T>
T
quantileSortedRuns(std::vector<SortedRun<T>> &runs, std::uint64_t num,
                   std::uint64_t den)
{
    runs.erase(std::remove_if(runs.begin(), runs.end(),
                              [](const SortedRun<T> &r) {
                                  return r.first == r.last;
                              }),
               runs.end());
    std::size_t n = 0;
    for (const SortedRun<T> &r : runs)
        n += static_cast<std::size_t>(r.last - r.first);
    if (n == 0)
        return T{};
    std::size_t k = exactRankCount(n, num, den);
    if (k == 0)
        k = 1;
    const auto tail_less = [](const SortedRun<T> &a, const SortedRun<T> &b) {
        return a.last[-1] < b.last[-1];
    };
    std::make_heap(runs.begin(), runs.end(), tail_less);
    for (std::size_t pops = n - k; pops > 0; --pops) {
        std::pop_heap(runs.begin(), runs.end(), tail_less);
        if (--runs.back().last == runs.back().first)
            runs.pop_back();
        else
            std::push_heap(runs.begin(), runs.end(), tail_less);
    }
    return runs.front().last[-1];
}

} // namespace apc::stats

#endif // APC_STATS_RANK_H
