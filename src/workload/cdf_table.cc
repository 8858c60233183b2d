#include "workload/cdf_table.h"

#include <fstream>
#include <sstream>

namespace apc::workload {

CdfTable::CdfTable(std::vector<Point> points) : points_(std::move(points))
{
    finalize();
}

void
CdfTable::finalize()
{
    if (points_.empty())
        return;
    // Validate monotonicity before normalizing.
    double last_v = -1.0, last_c = 0.0;
    for (const Point &p : points_) {
        if (p.value < last_v || p.cdf < last_c || p.value < 0) {
            points_.clear();
            return;
        }
        last_v = p.value;
        last_c = p.cdf;
    }
    const double top = points_.back().cdf;
    if (top <= 0) {
        points_.clear();
        return;
    }
    // Percent tables (0..100) and unnormalized tables both divide out
    // the final cdf so the table always ends at exactly 1.
    if (top != 1.0)
        for (Point &p : points_)
            p.cdf /= top;
}

CdfTable
CdfTable::fromString(const std::string &text)
{
    std::istringstream in(text);
    std::vector<Point> pts;
    std::string line;
    while (std::getline(in, line)) {
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ls(line);
        double v, c;
        if (ls >> v >> c)
            pts.push_back({v, c});
    }
    return CdfTable(std::move(pts));
}

CdfTable
CdfTable::fromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return CdfTable();
    std::stringstream buf;
    buf << in.rdbuf();
    return fromString(buf.str());
}

double
CdfTable::sample(sim::Rng &rng) const
{
    if (points_.empty())
        return 0.0;
    const double u = rng.uniform();
    double lo_v = 0.0, lo_c = 0.0;
    for (const Point &p : points_) {
        if (u <= p.cdf) {
            if (p.cdf <= lo_c) // vertical step (point mass)
                return p.value;
            const double t = (u - lo_c) / (p.cdf - lo_c);
            return lo_v + t * (p.value - lo_v);
        }
        lo_v = p.value;
        lo_c = p.cdf;
    }
    return points_.back().value;
}

} // namespace apc::workload
