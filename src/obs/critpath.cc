#include "obs/critpath.h"

#include <algorithm>
#include <utility>

#include "obs/fmt.h"
#include "stats/rank.h"

namespace apc::obs {

namespace {

/** Bits needed to write @p v (0 for 0). */
unsigned
bitWidth(std::uint64_t v)
{
    unsigned w = 0;
    for (; v; v >>= 1)
        ++w;
    return w;
}

/**
 * In-place MSD radix sort of [@p first, @p last), whose keys agree on
 * every bit from @p bits up: "American flag sort" (McIlroy, Bostic &
 * McIlroy, "Engineering Radix Sort", Computing Systems 6(1), 1993).
 * Each pass counts one 8-bit digit, swaps every key into its bucket
 * along permutation cycles, and recurses into the buckets; short
 * buckets finish with std::sort. No second key array.
 */
void
flagSort(std::uint64_t *first, std::uint64_t *last, unsigned bits)
{
    constexpr unsigned kDigit = 8;
    constexpr std::size_t kBuckets = std::size_t{1} << kDigit;
    constexpr std::ptrdiff_t kShort = 64;
    if (last - first <= kShort) {
        std::sort(first, last);
        return;
    }
    const unsigned shift = bits > kDigit ? bits - kDigit : 0;
    const std::uint64_t mask = (std::uint64_t{1} << (bits - shift)) - 1;
    const auto digit = [shift, mask](std::uint64_t k) {
        return static_cast<std::size_t>((k >> shift) & mask);
    };
    std::size_t count[kBuckets] = {};
    for (const std::uint64_t *p = first; p != last; ++p)
        ++count[digit(*p)];
    // next[b]: the first key of bucket b not yet in place; end[b]: the
    // bucket's end.
    std::uint64_t *next[kBuckets];
    std::uint64_t *end[kBuckets];
    std::uint64_t *at = first;
    for (std::size_t b = 0; b < kBuckets; ++b) {
        next[b] = at;
        at += count[b];
        end[b] = at;
    }
    for (std::size_t b = 0; b < kBuckets; ++b)
        while (next[b] != end[b]) {
            std::uint64_t k = *next[b];
            for (std::size_t d = digit(k); d != b; d = digit(k))
                std::swap(k, *next[d]++);
            *next[b]++ = k;
        }
    if (shift == 0)
        return;
    at = first;
    for (std::size_t b = 0; b < kBuckets; ++b) {
        flagSort(at, at + count[b], shift);
        at += count[b];
    }
}

} // namespace

Segment
BlameBand::dominant() const
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < kNumSegments; ++i)
        if (segMeanUs[i] > segMeanUs[best])
            best = i;
    return static_cast<Segment>(best);
}

const char *
LatencyAttribution::bandLabel(std::size_t band)
{
    static_assert(kNumBands == stats::kNumPercentileBands,
                  "blame bands mirror the shared percentile bands");
    return stats::percentileBandLabel(band);
}

LatencyAttribution
LatencyAttribution::build(const AttributionResult &res,
                          std::size_t sample_limit)
{
    LatencyAttribution out;
    out.enabled = true;
    out.requests = res.size();
    out.lostExcluded = res.lostExcluded;
    out.violations = res.violations;

    const std::size_t n = res.size();
    if (n == 0)
        return out;

    // Rank requests by end-to-end latency, ties broken by arrival
    // order, and cut the bands at exact ranks: ceil(n*p) requests lie
    // at or below the p-quantile. (arrival, id) is a strict order, so
    // the rank order — and with it every band's FP summation order —
    // does not depend on the order the records were folded in. The
    // sort runs in place over packed 64-bit keys, the latency's 32
    // leading significant bits above the record index (n <= 2^32,
    // which AttributionResult::push enforces), so the build holds 8
    // bytes per record; runs that share those bits (rare) are then put
    // in exact order from the records.
    std::vector<std::uint64_t> order(n);
    std::uint64_t max_e2e = 0;
    for (std::size_t i = 0; i < n; ++i) {
        // The segment holding the largest share of the chain: the
        // first of the largest, or segment 0 when all are 0.
        std::size_t dominant = 0;
        sim::Tick top = 0;
        const AttributionResult::Totals rec =
            res.visit(i, [&dominant, &top](std::size_t s, sim::Tick t) {
                if (t > top) {
                    top = t;
                    dominant = s;
                }
            });
        order[i] = static_cast<std::uint64_t>(rec.e2e);
        max_e2e = std::max(max_e2e, order[i]);
        if (rec.replicas > 1)
            ++out.fanoutRequests;
        ++out.criticalBySegment[dominant];
    }
    const unsigned shift =
        bitWidth(max_e2e) > 32 ? bitWidth(max_e2e) - 32 : 0;
    const unsigned idx_bits = std::max(1u, bitWidth(n - 1));
    const std::uint64_t idx_mask = (std::uint64_t{1} << idx_bits) - 1;
    for (std::size_t i = 0; i < n; ++i)
        order[i] = (order[i] >> shift) << idx_bits | i;
    flagSort(order.data(), order.data() + n,
             idx_bits + bitWidth(max_e2e >> shift));
    for (auto run = order.begin(); run != order.end();) {
        const auto end =
            std::find_if(run, order.end(), [run, idx_bits](auto k) {
                return (k >> idx_bits) != (*run >> idx_bits);
            });
        if (end - run > 1)
            std::sort(run, end, [&res, idx_mask](auto a, auto b) {
                const RequestRecord ra = res[a & idx_mask];
                const RequestRecord rb = res[b & idx_mask];
                return ra.e2e != rb.e2e ? ra.e2e < rb.e2e
                                        : arrivedBefore(ra, rb);
            });
        run = end;
    }
    const auto edges = stats::percentileBandEdges(n);

    // Rank order visits the records at random: fetch a few ahead, both
    // ends of the slot, since every second 48-byte slot straddles two
    // cache lines. A segment's sum skips the records where it is 0:
    // adding +0.0 to a sum of non-negative terms leaves every bit as it
    // was.
    constexpr std::size_t kAhead = 8;
    for (std::size_t b = 0; b < kNumBands; ++b) {
        BlameBand &band = out.bands[b];
        for (std::size_t r = edges[b]; r < edges[b + 1]; ++r) {
            if (r + kAhead < n) {
                const char *ahead = reinterpret_cast<const char *>(
                    &res.slot(order[r + kAhead] & idx_mask));
                __builtin_prefetch(ahead);
                __builtin_prefetch(ahead + sizeof(AttributionResult::Slot) -
                                   1);
            }
            const AttributionResult::Totals rec =
                res.visit(order[r] & idx_mask, [&band](std::size_t s,
                                                       sim::Tick t) {
                    band.segMeanUs[s] += sim::toMicros(t);
                });
            ++band.count;
            band.e2eMeanUs += sim::toMicros(rec.e2e);
        }
        if (band.count > 0) {
            const double inv = 1.0 / static_cast<double>(band.count);
            band.e2eMeanUs *= inv;
            for (double &v : band.segMeanUs)
                v *= inv;
        }
    }

    const std::vector<std::uint32_t> first =
        res.firstByArrival(sample_limit);
    out.samples.reserve(first.size());
    for (const std::uint32_t i : first)
        out.samples.push_back(res[i]);
    return out;
}

double
LatencyAttribution::tailMeanUs(Segment s) const
{
    // The two bands above p99 (p99-p999 and >p999), count-weighted.
    const std::size_t si = static_cast<std::size_t>(s);
    std::uint64_t count = 0;
    double acc = 0.0;
    for (std::size_t b = 3; b < kNumBands; ++b) {
        // lint:allow(float-accum) fixed band-index order over a
        // fixed-shape table; identical on every layout
        acc += bands[b].segMeanUs[si] *
            static_cast<double>(bands[b].count);
        count += bands[b].count;
    }
    return count ? acc / static_cast<double>(count) : 0.0;
}

Segment
LatencyAttribution::tailDominant() const
{
    std::size_t best = 0;
    double best_us = tailMeanUs(static_cast<Segment>(0));
    for (std::size_t i = 1; i < kNumSegments; ++i) {
        const double us = tailMeanUs(static_cast<Segment>(i));
        if (us > best_us) {
            best_us = us;
            best = i;
        }
    }
    return static_cast<Segment>(best);
}

bool
LatencyAttribution::writeJson(std::FILE *out) const
{
    bool ok = true;
    const auto put = [out, &ok](const char *fmt, auto... args) {
        if (std::fprintf(out, fmt, args...) < 0)
            ok = false;
    };
    put("{\n  \"schema_version\": %d,\n", kBlameSchemaVersion);
    put("  \"requests\": %llu,\n",
        static_cast<unsigned long long>(requests));
    put("  \"fanout_requests\": %llu,\n",
        static_cast<unsigned long long>(fanoutRequests));
    put("  \"lost_excluded\": %llu,\n",
        static_cast<unsigned long long>(lostExcluded));
    put("  \"incomplete\": %llu,\n",
        static_cast<unsigned long long>(incomplete));
    put("  \"violations\": %llu,\n",
        static_cast<unsigned long long>(violations));
    put("  \"trace_drops\": %llu,\n",
        static_cast<unsigned long long>(ringDropped));
    put("  \"segments\": [");
    for (std::size_t s = 0; s < kNumSegments; ++s)
        put("%s\"%s\"", s ? ", " : "", segmentName(static_cast<Segment>(s)));
    put("],\n  \"bands\": [\n");
    for (std::size_t b = 0; b < kNumBands; ++b) {
        const BlameBand &band = bands[b];
        put("    {\"band\": \"%s\", \"count\": %llu, "
            "\"e2e_mean_us\": %s, \"dominant\": \"%s\", \"blame_us\": {",
            bandLabel(b), static_cast<unsigned long long>(band.count),
            fmtDouble(band.e2eMeanUs).c_str(),
            segmentName(band.dominant()));
        for (std::size_t s = 0; s < kNumSegments; ++s)
            put("%s\"%s\": %s", s ? ", " : "",
                segmentName(static_cast<Segment>(s)),
                fmtDouble(band.segMeanUs[s]).c_str());
        put("}}%s\n", b + 1 < kNumBands ? "," : "");
    }
    put("  ],\n  \"critical_segment_counts\": {");
    for (std::size_t s = 0; s < kNumSegments; ++s)
        put("%s\"%s\": %llu", s ? ", " : "",
            segmentName(static_cast<Segment>(s)),
            static_cast<unsigned long long>(criticalBySegment[s]));
    put("},\n  \"samples\": [\n");
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const RequestRecord &s = samples[i];
        put("    {\"id\": %llu, \"srv\": %u, \"replicas\": %u, "
            "\"e2e_ticks\": %lld, \"seg_ticks\": {",
            static_cast<unsigned long long>(s.id), s.srv, s.replicas,
            static_cast<long long>(s.e2e));
        for (std::size_t k = 0; k < kNumSegments; ++k)
            put("%s\"%s\": %lld", k ? ", " : "",
                segmentName(static_cast<Segment>(k)),
                static_cast<long long>(s.seg[k]));
        put("}}%s\n", i + 1 < samples.size() ? "," : "");
    }
    put("  ]\n}\n");
    if (std::fflush(out) != 0)
        ok = false;
    return ok && !std::ferror(out);
}

} // namespace apc::obs
