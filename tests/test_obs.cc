/**
 * @file
 * Observability tests: string interner, trace ring-buffer semantics,
 * deterministic merge/digest, Perfetto export shape, metrics sampler,
 * phase profiler — and the contract that matters most: tracing and
 * metrics have ZERO behavioral footprint (fleet reports byte-identical
 * with observability on or off, at any thread count), while the trace
 * itself is identical across thread counts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "fleet/fleet_sim.h"
#include "obs/interner.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/tracer.h"

namespace apc {
namespace {

using sim::kMs;
using sim::kUs;

// ------------------------------------------------------------- interner

TEST(StringInterner, IdsAreStableAndDeduplicated)
{
    obs::StringInterner in;
    const obs::StrId a = in.intern("alpha");
    const obs::StrId b = in.intern("beta");
    EXPECT_NE(a, b);
    EXPECT_EQ(in.intern("alpha"), a); // dedup
    EXPECT_EQ(in.str(a), "alpha");
    EXPECT_EQ(in.str(b), "beta");
    EXPECT_EQ(in.size(), 2u);
}

TEST(StringInterner, BoundedTableRejectsOverflowButNeverForgets)
{
    obs::StringInterner in(2);
    EXPECT_EQ(in.capacity(), 2u);
    const obs::StrId a = in.intern("alpha");
    const obs::StrId b = in.intern("beta");
    ASSERT_NE(a, obs::kNoStr);
    ASSERT_NE(b, obs::kNoStr);

    // Capacity exhausted: first-sight interns are rejected and counted.
    EXPECT_EQ(in.intern("gamma"), obs::kNoStr);
    EXPECT_EQ(in.intern("delta"), obs::kNoStr);
    EXPECT_EQ(in.rejected(), 2u);
    EXPECT_EQ(in.size(), 2u);

    // Re-interning what the table already holds still succeeds, with
    // the same id as the first registration.
    EXPECT_EQ(in.intern("alpha"), a);
    EXPECT_EQ(in.intern("beta"), b);
    EXPECT_EQ(in.rejected(), 2u); // duplicates are not rejections
}

TEST(StringInterner, DuplicateReinternKeepsFirstRegistrationId)
{
    obs::StringInterner in;
    const obs::StrId a = in.intern("series.power");
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(in.intern("series.power"), a);
    EXPECT_EQ(in.size(), 1u);
    // Ids depend only on registration order.
    EXPECT_EQ(in.intern("series.later"), a + 1);
}

TEST(Tracer, InternedIdsSurviveTraceWriterReset)
{
    obs::TraceConfig tc;
    tc.enabled = true;
    obs::Tracer tr(tc, 1);
    const obs::StrId custom = tr.intern("phase.alpha");
    obs::TraceWriter *w = tr.writer(0);
    w->counter(1 * kUs, obs::Name::CapLimitW, obs::Track::Cap, 1.0);
    w->record(obs::TraceKind::Counter, obs::Track::Cap, 2 * kUs, 0,
              custom, 0, 2.0);
    ASSERT_EQ(w->size(), 2u);

    // Reset discards records but not the shared name table: the same
    // string resolves to the same id, and a record written under the
    // old id still renders the right name.
    w->reset();
    EXPECT_EQ(w->size(), 0u);
    EXPECT_EQ(w->recorded(), 0u);
    EXPECT_EQ(w->dropped(), 0u);
    EXPECT_EQ(tr.intern("phase.alpha"), custom);
    EXPECT_STREQ(tr.nameOf(custom), "phase.alpha");
    w->record(obs::TraceKind::Counter, obs::Track::Cap, 3 * kUs, 0,
              custom, 0, 3.0);
    ASSERT_EQ(w->size(), 1u);
    w->forEach([custom](const obs::TraceRecord &r) {
        EXPECT_EQ(r.name, custom);
        EXPECT_EQ(r.seq, 0u); // sequence restarts after reset
    });
}

// ----------------------------------------------------------- ring buffer

TEST(TraceWriter, WrapsOverOldestAndCountsDrops)
{
    obs::TraceWriter w(0, 4);
    for (int i = 0; i < 6; ++i)
        w.instant(i * kUs, obs::Name::NicIrq, obs::Track::Nic,
                  static_cast<std::uint64_t>(i));
    EXPECT_EQ(w.size(), 4u);
    EXPECT_EQ(w.recorded(), 6u);
    EXPECT_EQ(w.dropped(), 2u);
    // Oldest-first visitation: the two earliest records were evicted.
    std::vector<std::uint64_t> ids;
    w.forEach([&ids](const obs::TraceRecord &r) { ids.push_back(r.id); });
    EXPECT_EQ(ids, (std::vector<std::uint64_t>{2, 3, 4, 5}));
}

TEST(TraceWriter, SeqPreservesRecordingOrder)
{
    obs::TraceWriter w(3, 16);
    w.span(5 * kUs, 2 * kUs, obs::Name::Serve, obs::Track::Requests, 7);
    w.counter(1 * kUs, obs::Name::CapLimitW, obs::Track::Cap, 42.5);
    std::vector<std::uint32_t> seqs;
    w.forEach(
        [&seqs](const obs::TraceRecord &r) { seqs.push_back(r.seq); });
    EXPECT_EQ(seqs, (std::vector<std::uint32_t>{0, 1}));
}

// -------------------------------------------------------- merge + digest

TEST(Tracer, MergeIsTimeWriterSeqOrdered)
{
    obs::TraceConfig tc;
    tc.enabled = true;
    obs::Tracer tr(tc, 2);
    // Writer streams are recording-ordered, not time-ordered (spans are
    // recorded at completion with ts = start).
    tr.writer(0)->instant(200 * kUs, obs::Name::NicIrq, obs::Track::Nic);
    tr.writer(0)->instant(100 * kUs, obs::Name::NicIrq, obs::Track::Nic);
    tr.writer(1)->instant(100 * kUs, obs::Name::NicDrop, obs::Track::Nic);
    tr.writer(1)->instant(150 * kUs, obs::Name::NicDrop, obs::Track::Nic);

    const auto m = tr.merged();
    ASSERT_EQ(m.size(), 4u);
    EXPECT_EQ(m[0].rec->ts, 100 * kUs);
    EXPECT_EQ(m[0].writer, 0u);
    EXPECT_EQ(m[1].rec->ts, 100 * kUs);
    EXPECT_EQ(m[1].writer, 1u);
    EXPECT_EQ(m[2].rec->ts, 150 * kUs);
    EXPECT_EQ(m[3].rec->ts, 200 * kUs);

    // Digest covers the semantic payload: same content -> same digest,
    // different content -> (overwhelmingly) different digest.
    const std::uint64_t d = tr.digest();
    EXPECT_EQ(d, tr.digest());
    tr.writer(0)->instant(300 * kUs, obs::Name::NicIrq, obs::Track::Nic);
    EXPECT_NE(d, tr.digest());
}

TEST(Tracer, MergeOfWrappedRingsReservesOnlyLiveRecords)
{
    obs::TraceConfig tc;
    tc.enabled = true;
    tc.ringCapacity = 4;
    obs::Tracer tr(tc, 2);
    for (int i = 0; i < 1000; ++i)
        tr.writer(0)->instant(i * kUs, obs::Name::NicIrq, obs::Track::Nic);
    tr.writer(1)->instant(0, obs::Name::NicDrop, obs::Track::Nic);
    ASSERT_EQ(tr.totalRecorded(), 1001u);

    // Overwritten records are neither merged nor reserved for.
    const auto m = tr.merged();
    EXPECT_EQ(m.size(), 5u);
    EXPECT_LT(m.capacity(), 16u);
}

TEST(Tracer, DynamicNamesResolveAboveStaticVocabulary)
{
    obs::Tracer tr({}, 1);
    const obs::StrId id = tr.intern("custom.metric");
    EXPECT_GE(id, obs::kStaticNames);
    EXPECT_STREQ(tr.nameOf(id), "custom.metric");
    EXPECT_STREQ(
        tr.nameOf(static_cast<obs::StrId>(obs::Name::Request)), "request");
    EXPECT_STREQ(tr.nameOf(static_cast<obs::StrId>(obs::Name::PkgPc1a)),
                 "PC1A");
}

// -------------------------------------------------------- Perfetto export

TEST(Tracer, PerfettoExportShape)
{
    obs::TraceConfig tc;
    tc.enabled = true;
    obs::Tracer tr(tc, 2);
    tr.setEntityLabel(0, "fleet");
    tr.setEntityLabel(1, "server 0");
    tr.writer(0)->span(10 * kUs, 5 * kUs, obs::Name::Request,
                       obs::Track::Requests, 99);
    tr.writer(1)->instant(12 * kUs, obs::Name::NicDrop, obs::Track::Nic,
                          3);
    tr.writer(1)->counter(14 * kUs, obs::Name::CapLimitW, obs::Track::Cap,
                          85.0);

    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *f = open_memstream(&buf, &len);
    ASSERT_TRUE(tr.writePerfettoJson(f));
    std::fclose(f);
    std::string out(buf, len);
    free(buf);

    EXPECT_NE(out.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
    EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);
    // Metadata names both entities and their used tracks.
    EXPECT_NE(out.find("\"args\":{\"name\":\"fleet\"}"),
              std::string::npos);
    EXPECT_NE(out.find("\"args\":{\"name\":\"server 0\"}"),
              std::string::npos);
    EXPECT_NE(out.find("\"args\":{\"name\":\"requests\"}"),
              std::string::npos);
    // One record of each phase kind.
    EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"request\""), std::string::npos);
    // Span timestamps are exported in microseconds.
    EXPECT_NE(out.find("\"ts\":10.0000"), std::string::npos);
    EXPECT_NE(out.find("\"dur\":5.0000"), std::string::npos);
}

TEST(Tracer, PerfettoExportReportsIoFailure)
{
    obs::Tracer tr({}, 1);
    tr.writer(0)->instant(0, obs::Name::NicIrq, obs::Track::Nic);
    EXPECT_FALSE(tr.writePerfettoJson("/nonexistent/dir/trace.json"));
}

// --------------------------------------------------------------- metrics

TEST(MetricsSampler, SamplesOnIntervalAndSkipsUnset)
{
    obs::MetricsConfig mc;
    mc.enabled = true;
    mc.interval = 1 * kMs;
    obs::MetricsSampler m(mc);
    const auto power = m.addSeries("fleet.pkg_power_w");
    const auto budget = m.addSeries("rack.budget_w");
    const auto srv = m.addSeries("server.outstanding", 3);

    EXPECT_TRUE(m.due(0));
    m.beginSample(0);
    m.set(power, 120.5);
    m.set(srv, 4);
    // budget left NaN this row.
    EXPECT_FALSE(m.due(1 * kMs - 1));
    EXPECT_TRUE(m.due(1 * kMs));
    m.beginSample(1 * kMs);
    m.set(power, 118.25);
    m.set(budget, 400.0);

    ASSERT_EQ(m.numSamples(), 2u);
    ASSERT_EQ(m.numSeries(), 3u);
    EXPECT_TRUE(std::isnan(m.series(budget)[0]));
    EXPECT_EQ(m.series(budget)[1], 400.0);
    EXPECT_TRUE(std::isnan(m.series(srv)[1]));

    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *f = open_memstream(&buf, &len);
    ASSERT_TRUE(m.writeCsv(f));
    std::fclose(f);
    std::string csv(buf, len);
    free(buf);
    EXPECT_NE(csv.find("t_us,series,entity,value"), std::string::npos);
    EXPECT_NE(csv.find("fleet.pkg_power_w,,120.5"), std::string::npos);
    EXPECT_NE(csv.find("server.outstanding,3,4"), std::string::npos);
    // The NaN slot produced no row: budget appears exactly once.
    EXPECT_EQ(csv.find("rack.budget_w"), csv.rfind("rack.budget_w"));
}

TEST(MetricsSampler, NonPositiveIntervalClampsInsteadOfSpinning)
{
    obs::MetricsConfig mc;
    mc.enabled = true;
    mc.interval = 0; // would otherwise be due() at every epoch forever
    obs::MetricsSampler m(mc);
    EXPECT_EQ(m.config().interval, 1);
    EXPECT_TRUE(m.due(0));
    m.beginSample(0);
    EXPECT_FALSE(m.due(0)); // time actually advances the schedule
    EXPECT_TRUE(m.due(1));
}

TEST(MetricsSampler, SetBeforeFirstSampleIsDropped)
{
    obs::MetricsConfig mc;
    mc.enabled = true;
    obs::MetricsSampler m(mc);
    const auto id = m.addSeries("fleet.pkg_power_w");
    m.set(id, 42.0); // no row open yet: dropped, not UB
    EXPECT_EQ(m.numSamples(), 0u);
    m.beginSample(0);
    ASSERT_EQ(m.series(id).size(), 1u);
    EXPECT_TRUE(std::isnan(m.series(id)[0]));
}

TEST(MetricsSampler, PartialRowPaddedAndSkippedInCsv)
{
    obs::MetricsConfig mc;
    mc.enabled = true;
    mc.interval = 1 * kMs;
    obs::MetricsSampler m(mc);
    const auto a = m.addSeries("fleet.a");
    const auto b = m.addSeries("fleet.b");
    m.beginSample(0);
    m.set(a, 1.0);
    m.set(b, 2.0);
    m.beginSample(1 * kMs); // final row left partial
    m.set(a, 3.0);

    // Every series spans every row (the partial row is padded with
    // NaN, never ragged), and the CSV skips exactly the unset slots:
    // CSV rows (set values) + NaN slots (unset) = series * samples.
    ASSERT_EQ(m.numSamples(), 2u);
    std::size_t nans = 0;
    for (obs::SeriesId id : {a, b}) {
        EXPECT_EQ(m.series(id).size(), m.numSamples());
        for (double v : m.series(id))
            nans += std::isnan(v) ? 1 : 0;
    }

    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *f = open_memstream(&buf, &len);
    ASSERT_TRUE(m.writeCsv(f));
    std::fclose(f);
    std::string csv(buf, len);
    free(buf);
    std::size_t csv_rows = 0;
    for (char c : csv)
        if (c == '\n')
            ++csv_rows;
    --csv_rows; // header

    EXPECT_EQ(csv_rows, 3u);
    EXPECT_EQ(nans, 1u);
    EXPECT_EQ(csv_rows + nans, m.numSeries() * m.numSamples());
}

// -------------------------------------------------------------- profiler

TEST(PhaseProfiler, AccumulatesAndComputesImbalance)
{
    obs::PhaseProfiler p;
    p.beginRun(4);
    { auto s = p.scope(obs::PhaseProfiler::Phase::Route); }
    { auto s = p.scope(obs::PhaseProfiler::Phase::Route); }
    EXPECT_EQ(p.count(obs::PhaseProfiler::Phase::Route), 2u);
    EXPECT_GE(p.totalSec(obs::PhaseProfiler::Phase::Route), 0.0);
    EXPECT_EQ(p.count(obs::PhaseProfiler::Phase::Merge), 0u);

    // max / mean: (4.0) / ((1+1+2+4)/4) = 2.0
    p.addShardTime(0, 1.0);
    p.addShardTime(1, 1.0);
    p.addShardTime(2, 2.0);
    p.addShardTime(3, 4.0);
    EXPECT_DOUBLE_EQ(p.shardImbalance(), 2.0);

    // beginRun clears prior measurements.
    p.beginRun(2);
    EXPECT_EQ(p.count(obs::PhaseProfiler::Phase::Route), 0u);
    EXPECT_DOUBLE_EQ(p.shardImbalance(), 1.0);
}

// ------------------------------------ zero-footprint contract at scale

fleet::FleetConfig
bigFleet(unsigned threads, std::size_t shard_size, bool observed)
{
    fleet::FleetConfig fc;
    fc.numServers = 1024;
    fc.policy = soc::PackagePolicy::Cpc1a;
    fc.workload = workload::WorkloadConfig::memcachedEtc(0);
    fc.dispatch = fleet::DispatchKind::LeastOutstanding;
    fc.traffic.arrivalKind = workload::ArrivalKind::Poisson;
    fc.traffic.qps = fc.workload.qpsForUtilization(
        0.05, static_cast<int>(fc.numServers) * 10);
    fc.traffic.fanout = {0.05, 4};
    fc.sloUs = 10000.0;
    fc.warmup = 4 * kMs;
    fc.duration = 12 * kMs;
    fc.seed = 77;
    fc.threads = threads;
    fc.shardSize = shard_size;
    fc.trace.enabled = observed;
    fc.metrics.enabled = observed;
    fc.metrics.interval = 2 * kMs;
    return fc;
}

std::string
metricsCsv(const fleet::FleetSim &fleet)
{
    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *f = open_memstream(&buf, &len);
    EXPECT_TRUE(fleet.metrics()->writeCsv(f));
    std::fclose(f);
    std::string out(buf, len);
    free(buf);
    return out;
}

TEST(ObsFleet, TracingHasZeroFootprintAndIsThreadCountInvariant)
{
    // Untraced baseline: the report bytes every observed run must match.
    const fleet::FleetReport untraced =
        fleet::FleetSim(bigFleet(1, 0, false)).run();
    const std::string reference = untraced.csvRow();

    struct Point
    {
        unsigned threads;
        std::size_t shardSize;
    };
    std::uint64_t ref_digest = 0;
    std::string ref_metrics;
    for (const Point &p :
         std::vector<Point>{{1, 0}, {2, 7}, {8, 64}}) {
        fleet::FleetSim fleet(bigFleet(p.threads, p.shardSize, true));
        const fleet::FleetReport rep = fleet.run();
        ASSERT_GT(rep.dispatched, 1000u);
        // Zero behavioral footprint: byte-identical to the untraced run.
        EXPECT_EQ(rep.csvRow(), reference)
            << "threads=" << p.threads << " shardSize=" << p.shardSize;
        // The trace itself is thread-count invariant.
        ASSERT_NE(fleet.tracer(), nullptr);
        EXPECT_GT(fleet.tracer()->totalRecorded(), 1000u);
        ASSERT_NE(fleet.metrics(), nullptr);
        EXPECT_GT(fleet.metrics()->numSamples(), 2u);
        const std::uint64_t d = fleet.tracer()->digest();
        const std::string mcsv = metricsCsv(fleet);
        if (ref_digest == 0) {
            ref_digest = d;
            ref_metrics = mcsv;
        } else {
            EXPECT_EQ(d, ref_digest)
                << "trace digest differs at threads=" << p.threads;
            EXPECT_EQ(mcsv, ref_metrics)
                << "metrics differ at threads=" << p.threads;
        }
    }
}

TEST(ObsFleet, WriteTraceExportsFullVocabulary)
{
    auto fc = bigFleet(2, 16, true);
    fc.numServers = 32;
    fc.traffic.qps = fc.workload.qpsForUtilization(
        0.10, static_cast<int>(fc.numServers) * 10);
    fc.duration = 8 * kMs;
    fleet::FleetSim fleet(fc);
    (void)fleet.run();

    const std::string path = "/tmp/apc_test_obs_trace.json";
    ASSERT_TRUE(fleet.writeTrace(path));
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string out;
    char chunk[4096];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        out.append(chunk, n);
    std::fclose(f);
    std::remove(path.c_str());

    // Request lifecycle spans, package power-state spans, and the
    // engine's wall-clock pipeline phases all made it into the export.
    EXPECT_NE(out.find("\"name\":\"request\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"PC1A\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"route\""), std::string::npos);
    EXPECT_NE(out.find("engine (wall clock)"), std::string::npos);
    EXPECT_NE(out.find("\"args\":{\"name\":\"server 0\"}"),
              std::string::npos);
}

TEST(ObsFleet, MetricsIntervalZeroRejectedAtSetup)
{
    auto fc = bigFleet(1, 0, true);
    fc.numServers = 8;
    fc.traffic.qps = fc.workload.qpsForUtilization(
        0.10, static_cast<int>(fc.numServers) * 10);
    fc.duration = 4 * kMs;
    fc.warmup = 2 * kMs;
    fc.metrics.interval = 0;
    // Rejected at setup, loudly: not a sampler that writes a row every
    // epoch, and not a run that silently drops its metrics.
    EXPECT_THROW(fleet::FleetSim{fc}, std::invalid_argument);
}

TEST(ObsFleet, RunShorterThanOneIntervalStillSamples)
{
    auto fc = bigFleet(1, 0, true);
    fc.numServers = 8;
    fc.traffic.qps = fc.workload.qpsForUtilization(
        0.10, static_cast<int>(fc.numServers) * 10);
    fc.warmup = 2 * kMs;
    fc.duration = 4 * kMs; // shorter than the sampling interval
    fc.metrics.interval = 50 * kMs;
    fleet::FleetSim fleet(fc);
    (void)fleet.run();
    ASSERT_NE(fleet.metrics(), nullptr);
    const obs::MetricsSampler &m = *fleet.metrics();
    // The first epoch boundary is always due: at least one row exists
    // even when the run never reaches a full interval.
    ASSERT_GE(m.numSamples(), 1u);
    for (obs::SeriesId id = 0; id < m.numSeries(); ++id)
        EXPECT_EQ(m.series(id).size(), m.numSamples()) << id;
    EXPECT_FALSE(metricsCsv(fleet).empty());
}

} // namespace
} // namespace apc
