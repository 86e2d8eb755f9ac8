#include "host_telemetry.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "json.hh"

namespace salam::obs
{

const char *
hostPhaseName(HostPhase phase)
{
    switch (phase) {
      case HostPhase::Elaboration: return "elaboration";
      case HostPhase::EngineSchedule: return "engine_schedule";
      case HostPhase::MemoryModel: return "memory_model";
      case HostPhase::EventLoop: return "event_loop";
      case HostPhase::StatsEmit: return "stats_emit";
      case HostPhase::ReportIo: return "report_io";
      case HostPhase::Other: return "other";
    }
    return "unknown";
}

std::uint64_t
sampleRssPeakKb()
{
#if defined(__linux__)
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0;
    char line[256];
    std::uint64_t kb = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        unsigned long long value = 0;
        if (std::sscanf(line, "VmHWM: %llu kB", &value) == 1) {
            kb = value;
            break;
        }
    }
    std::fclose(f);
    return kb;
#else
    return 0;
#endif
}

namespace
{

/**
 * Registry of live TimedMutex instances. Guarded by a plain mutex:
 * registration happens at (mostly static) construction and snapshots
 * are rare; the hot path — lock()/unlock() on a registered mutex —
 * never touches the registry.
 */
struct MutexRegistry
{
    std::mutex guard;
    std::vector<TimedMutex *> live;

    static MutexRegistry &
    instance()
    {
        // Leaked intentionally: TimedMutexes with static storage
        // duration may be destroyed after any registry object with
        // static duration would be.
        static MutexRegistry *reg = new MutexRegistry();
        return *reg;
    }
};

} // namespace

TimedMutex::TimedMutex(std::string name) : mutexName(std::move(name))
{
    MutexRegistry &reg = MutexRegistry::instance();
    std::lock_guard<std::mutex> hold(reg.guard);
    reg.live.push_back(this);
}

TimedMutex::~TimedMutex()
{
    MutexRegistry &reg = MutexRegistry::instance();
    std::lock_guard<std::mutex> hold(reg.guard);
    reg.live.erase(
        std::remove(reg.live.begin(), reg.live.end(), this),
        reg.live.end());
}

TimedMutex::Stats
TimedMutex::stats() const
{
    Stats s;
    s.name = mutexName;
    s.acquisitions = acq.load(std::memory_order_relaxed);
    s.contended = cont.load(std::memory_order_relaxed);
    s.waitNanos = waitNs.load(std::memory_order_relaxed);
    return s;
}

std::vector<TimedMutex::Stats>
TimedMutex::snapshotAll()
{
    MutexRegistry &reg = MutexRegistry::instance();
    std::lock_guard<std::mutex> hold(reg.guard);
    std::vector<Stats> out;
    out.reserve(reg.live.size());
    for (const TimedMutex *m : reg.live)
        out.push_back(m->stats());
    return out;
}

std::uint64_t
TimedMutex::totalWaitNanos()
{
    MutexRegistry &reg = MutexRegistry::instance();
    std::lock_guard<std::mutex> hold(reg.guard);
    std::uint64_t total = 0;
    for (const TimedMutex *m : reg.live)
        total += m->waitNs.load(std::memory_order_relaxed);
    return total;
}

std::uint64_t
HostTelemetry::selfNanosTotal() const
{
    std::uint64_t sum = 0;
    for (const PhaseTotals &t : totals)
        sum += t.selfNanos;
    return sum;
}

void
HostTelemetry::mergeFrom(const HostTelemetry &other)
{
    for (unsigned i = 0; i < numHostPhases; ++i) {
        totals[i].count += other.totals[i].count;
        totals[i].totalNanos += other.totals[i].totalNanos;
        totals[i].selfNanos += other.totals[i].selfNanos;
    }
    peakRssKbValue = std::max(peakRssKbValue, other.peakRssKbValue);
}

namespace
{

void
writePhasesAndAlloc(JsonBuilder &json, const HostTelemetry &tel)
{
    json.beginObject("phases");
    for (unsigned i = 0; i < numHostPhases; ++i) {
        const PhaseTotals &t = tel.phases()[i];
        json.beginObject(hostPhaseName(static_cast<HostPhase>(i)))
            .field("count", t.count)
            .field("seconds",
                   static_cast<double>(t.totalNanos) / 1e9)
            .field("self_seconds",
                   static_cast<double>(t.selfNanos) / 1e9)
            .endObject();
    }
    json.endObject();
    json.field("self_seconds_total",
               static_cast<double>(tel.selfNanosTotal()) / 1e9);
    json.beginObject("alloc")
        .field("peak_rss_kb", tel.peakRssKb())
        .endObject();
}

void
writeLockArray(JsonBuilder &json)
{
    json.beginArray("locks");
    for (const TimedMutex::Stats &s : TimedMutex::snapshotAll()) {
        json.beginObject()
            .field("name", s.name)
            .field("acquisitions", s.acquisitions)
            .field("contended", s.contended)
            .field("wait_seconds",
                   static_cast<double>(s.waitNanos) / 1e9)
            .endObject();
    }
    json.endArray();
}

} // namespace

void
HostTelemetry::writeJson(std::ostream &os) const
{
    JsonBuilder json;
    json.beginObject();
    json.field("schema", "host_telemetry_v1");
    writePhasesAndAlloc(json, *this);
    json.endObject();
    os << json.str();
}

std::string
HostTelemetry::dumpJsonString() const
{
    std::ostringstream os;
    writeJson(os);
    return os.str();
}

void
HostTelemetry::writeJsonWithLocks(std::ostream &os) const
{
    JsonBuilder json;
    json.beginObject();
    json.field("schema", "host_telemetry_v1");
    writePhasesAndAlloc(json, *this);
    writeLockArray(json);
    json.endObject();
    os << json.str();
}

} // namespace salam::obs
