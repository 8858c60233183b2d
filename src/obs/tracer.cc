#include "obs/tracer.h"

#include <algorithm>
#include <cstring>

#include "obs/fmt.h"
#include "obs/profiler.h"

namespace apc::obs {

const char *
trackName(Track t)
{
    constexpr const char *names[kNumTracks] = {
        "requests", "power",  "cap",      "nic",
        "budget",   "engine", "segments", "health"};
    return names[static_cast<std::size_t>(t)];
}

const char *
nameString(Name n)
{
    constexpr const char *names[static_cast<std::size_t>(Name::kCount)] = {
        "request",       "wait",          "serve",
        "lost",          "PC0",           "PC0idle",
        "ACC1",          "PC1A",          "PC2",
        "PC6",           "nic_irq",       "nic_drop",
        "cap_limit_w",   "cap_power_w",   "cap_clamp",
        "cap_duty",      "rack_budget_w", "rack_demand_w",
        "rack_alloc_w",  "budget_emergency",
        "route",         "advance",       "merge",
        "collect",       "seg_xmit_req",  "seg_rto",
        "seg_nic_ring",  "seg_irq_hold",  "seg_wake",
        "seg_queue",     "seg_stall_gate", "seg_serve",
        "seg_stall_dvfs", "seg_xmit_resp", "seg_timeout_wait",
        "seg_failover",  "rack_unmet_w",
        "alert_latency", "alert_availability", "alert_power",
        "burn_latency",  "burn_availability",  "burn_power",
        "audit_violation",
        "srv_crash",     "srv_drain",     "srv_restart",
        "srv_down",      "link_flap",     "nic_freeze",
    };
    return names[static_cast<std::size_t>(n)];
}

Tracer::Tracer(TraceConfig cfg, std::size_t num_writers) : cfg_(cfg)
{
    writers_.reserve(num_writers);
    labels_.reserve(num_writers);
    for (std::size_t i = 0; i < num_writers; ++i) {
        writers_.push_back(std::make_unique<TraceWriter>(
            static_cast<std::uint32_t>(i), cfg_.ringCapacity));
        labels_.push_back("writer " + std::to_string(i));
    }
}

const char *
Tracer::nameOf(StrId id) const
{
    if (id < kStaticNames)
        return nameString(static_cast<Name>(id));
    return interner_.str(id - kStaticNames).c_str();
}

void
Tracer::setEntityLabel(std::size_t writer, std::string label)
{
    labels_[writer] = std::move(label);
}

std::uint64_t
Tracer::totalRecorded() const
{
    std::uint64_t n = 0;
    for (const auto &w : writers_)
        n += w->recorded();
    return n;
}

std::uint64_t
Tracer::totalDropped() const
{
    std::uint64_t n = 0;
    for (const auto &w : writers_)
        n += w->dropped();
    return n;
}

std::vector<Tracer::MergedRecord>
Tracer::merged() const
{
    // Live records only: recorded() also counts what the rings have
    // already overwritten.
    std::size_t live = 0;
    for (const auto &w : writers_)
        live += w->size();
    std::vector<MergedRecord> out;
    out.reserve(live);
    for (std::size_t wi = 0; wi < writers_.size(); ++wi)
        writers_[wi]->forEach([&out, wi](const TraceRecord &r) {
            out.push_back({&r, static_cast<std::uint32_t>(wi)});
        });
    // (ts, writer, seq): a total order — seq is unique per writer — so
    // the merged stream is identical for any thread count/shard layout
    // that produced the same per-writer streams.
    std::sort(out.begin(), out.end(),
              [](const MergedRecord &a, const MergedRecord &b) {
                  if (a.rec->ts != b.rec->ts)
                      return a.rec->ts < b.rec->ts;
                  if (a.writer != b.writer)
                      return a.writer < b.writer;
                  return a.rec->seq < b.rec->seq;
              });
    return out;
}

std::uint64_t
Tracer::digest() const
{
    std::uint64_t h = 1469598103934665603ULL; // FNV-1a offset basis
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 1099511628211ULL;
        }
    };
    for (const MergedRecord &m : merged()) {
        const TraceRecord &r = *m.rec;
        std::uint64_t vbits;
        static_assert(sizeof(vbits) == sizeof(r.value));
        std::memcpy(&vbits, &r.value, sizeof(vbits));
        mix(static_cast<std::uint64_t>(r.ts));
        mix(static_cast<std::uint64_t>(r.dur));
        mix(r.id);
        mix(vbits);
        mix(r.name);
        mix(m.writer);
        mix((static_cast<std::uint64_t>(r.kind) << 8) | r.track);
    }
    return h;
}

namespace {

/** Escape a label for embedding in a JSON string literal. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out.push_back(c);
    }
    return out;
}

} // namespace

bool
Tracer::writePerfettoJson(std::FILE *out, const PhaseProfiler *engine,
                          const std::vector<FlowEvent> *flows) const
{
    bool ok = true;
    const auto put = [out, &ok](const char *fmt, auto... args) {
        if (std::fprintf(out, fmt, args...) < 0)
            ok = false;
    };

    put("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    bool first = true;
    const auto sep = [&first, &put] {
        if (!first)
            put(",\n");
        first = false;
    };

    // Process/thread naming metadata: one "process" per entity, one
    // "thread" per track.
    for (std::size_t wi = 0; wi < writers_.size(); ++wi) {
        if (writers_[wi]->size() == 0)
            continue;
        sep();
        put("{\"ph\":\"M\",\"pid\":%u,\"name\":\"process_name\","
            "\"args\":{\"name\":\"%s\"}}",
            writers_[wi]->entity(), jsonEscape(labels_[wi]).c_str());
        bool used[kNumTracks] = {};
        writers_[wi]->forEach(
            [&used](const TraceRecord &r) { used[r.track] = true; });
        for (std::size_t t = 0; t < kNumTracks; ++t) {
            if (!used[t])
                continue;
            sep();
            put("{\"ph\":\"M\",\"pid\":%u,\"tid\":%zu,"
                "\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                writers_[wi]->entity(), t,
                trackName(static_cast<Track>(t)));
        }
    }

    for (const MergedRecord &m : merged()) {
        const TraceRecord &r = *m.rec;
        const std::uint32_t pid = writers_[m.writer]->entity();
        const NumBuf ts = fmtFixed(sim::toMicros(r.ts), 4);
        sep();
        switch (static_cast<TraceKind>(r.kind)) {
        case TraceKind::Span:
            put("{\"ph\":\"X\",\"pid\":%u,\"tid\":%u,\"ts\":%s,"
                "\"dur\":%s,\"name\":\"%s\",\"args\":{\"id\":%llu}}",
                pid, r.track, ts.c_str(),
                fmtFixed(sim::toMicros(r.dur), 4).c_str(),
                nameOf(r.name), static_cast<unsigned long long>(r.id));
            break;
        case TraceKind::Instant:
            put("{\"ph\":\"i\",\"s\":\"t\",\"pid\":%u,\"tid\":%u,"
                "\"ts\":%s,\"name\":\"%s\",\"args\":{\"id\":%llu,"
                "\"value\":%s}}",
                pid, r.track, ts.c_str(), nameOf(r.name),
                static_cast<unsigned long long>(r.id),
                fmtDouble(r.value).c_str());
            break;
        case TraceKind::Counter:
            put("{\"ph\":\"C\",\"pid\":%u,\"tid\":%u,\"ts\":%s,"
                "\"name\":\"%s\",\"args\":{\"value\":%s}}",
                pid, r.track, ts.c_str(), nameOf(r.name),
                fmtDouble(r.value).c_str());
            break;
        }
    }

    // Flow arrows (attribution): 's'/'t'/'f' steps keyed by request id.
    // The viewer draws an arrow client arrival -> serving server ->
    // client delivery for every sampled request.
    if (flows) {
        constexpr const char *ph[3] = {"s", "t", "f"};
        for (const FlowEvent &fe : *flows) {
            if (fe.phase > 2)
                continue;
            sep();
            put("{\"ph\":\"%s\",%s\"cat\":\"request\","
                "\"name\":\"req_flow\",\"id\":%llu,\"pid\":%u,"
                "\"tid\":%u,\"ts\":%s}",
                ph[fe.phase], fe.phase == 2 ? "\"bp\":\"e\"," : "",
                static_cast<unsigned long long>(fe.id), fe.pid, fe.track,
                fmtFixed(sim::toMicros(fe.ts), 4).c_str());
        }
    }

    // Wall-clock pipeline-phase spans as a separate "engine" process
    // (different clock domain; deliberately outside digest()).
    if (engine && !engine->spans().empty()) {
        const auto pid = static_cast<std::uint32_t>(writers_.size());
        sep();
        put("{\"ph\":\"M\",\"pid\":%u,\"name\":\"process_name\","
            "\"args\":{\"name\":\"engine (wall clock)\"}}",
            pid);
        sep();
        put("{\"ph\":\"M\",\"pid\":%u,\"tid\":%d,"
            "\"name\":\"thread_name\",\"args\":{\"name\":\"pipeline\"}}",
            pid, static_cast<int>(Track::Engine));
        for (const PhaseProfiler::EngineSpan &s : engine->spans()) {
            sep();
            put("{\"ph\":\"X\",\"pid\":%u,\"tid\":%d,\"ts\":%s,"
                "\"dur\":%s,\"name\":\"%s\",\"args\":{}}",
                pid, static_cast<int>(Track::Engine),
                fmtFixed(s.startUs, 3).c_str(),
                fmtFixed(s.durUs, 3).c_str(),
                PhaseProfiler::phaseName(s.phase));
        }
    }

    put("\n]}\n");
    if (std::fflush(out) != 0)
        ok = false;
    return ok && !std::ferror(out);
}

bool
Tracer::writePerfettoJson(const std::string &path,
                          const PhaseProfiler *engine,
                          const std::vector<FlowEvent> *flows) const
{
    return writeFile(path, [&](std::FILE *f) {
        return writePerfettoJson(f, engine, flows);
    });
}

} // namespace apc::obs
