/**
 * @file
 * CDF-table distributions (TrafficGenerator idiom).
 *
 * Datacenter traffic studies publish request-size / service-demand
 * distributions as empirical CDF tables: one `<value> <cdf>` pair per
 * line, values ascending, cdf non-decreasing up to 1 (or 100 — percent
 * tables are auto-normalized). `CdfTable` loads such a file and samples
 * it by inverse transform with linear interpolation between the table
 * points, matching HKUST-SING/TrafficGenerator's `gen_random_cdf`.
 */

#ifndef APC_WORKLOAD_CDF_TABLE_H
#define APC_WORKLOAD_CDF_TABLE_H

#include <string>
#include <vector>

#include "sim/rng.h"

namespace apc::workload {

/** Empirical distribution defined by a piecewise-linear CDF. */
class CdfTable
{
  public:
    /** One CDF point: P(X <= value) = cdf. */
    struct Point
    {
        double value;
        double cdf;
    };

    CdfTable() = default;

    /**
     * Build from points. Values must be non-negative and ascending, cdf
     * non-decreasing with the last entry > 0; a final cdf of 100 (or any
     * value > 1) switches percent interpretation and normalizes by it.
     * Invalid input yields an empty table (check valid()).
     */
    explicit CdfTable(std::vector<Point> points);

    /**
     * Load from a text file: `<value> <cdf>` per line, '#' comments and
     * blank lines ignored. Returns an empty table on IO/parse failure.
     */
    static CdfTable fromFile(const std::string &path);

    /** Parse from an in-memory string (same format as fromFile). */
    static CdfTable fromString(const std::string &text);

    bool valid() const { return !points_.empty(); }
    std::size_t size() const { return points_.size(); }
    const std::vector<Point> &points() const { return points_; }

    /**
     * Sample by inverse transform: draw u ~ U[0,1) and interpolate
     * linearly between the bracketing table points. Mass below the first
     * point's cdf interpolates from (0, 0), TrafficGenerator-style.
     * @return 0 on an empty table.
     */
    double sample(sim::Rng &rng) const;

  private:
    void finalize();

    std::vector<Point> points_; ///< normalized: cdf in [0,1], last == 1
};

} // namespace apc::workload

#endif // APC_WORKLOAD_CDF_TABLE_H
