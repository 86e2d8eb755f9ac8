/**
 * @file
 * HostTelemetry: phase-timer nesting, TimedMutex counters, JSON
 * output, and per-context isolation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>

#include "obs/host_telemetry.hh"
#include "obs/json_reader.hh"
#include "sim/sim_context.hh"

using namespace salam;
using namespace salam::obs;
using salam::obs::JsonValue;
using salam::obs::parseJson;

namespace
{

/** Busy-wait so elapsed wall time is strictly positive. */
void
spinNanos(std::uint64_t ns)
{
    const std::uint64_t start = hostNowNs();
    while (hostNowNs() - start < ns) {
    }
}

TEST(TimedMutex, UncontendedLockCountsAcquisitionsOnly)
{
    TimedMutex m("ut_uncontended");
    for (int i = 0; i < 3; ++i) {
        std::lock_guard<TimedMutex> hold(m);
    }
    EXPECT_TRUE(m.try_lock());
    m.unlock();

    TimedMutex::Stats s = m.stats();
    EXPECT_EQ(s.name, "ut_uncontended");
    EXPECT_EQ(s.acquisitions, 4u);
    EXPECT_EQ(s.contended, 0u);
    EXPECT_EQ(s.waitNanos, 0u);
}

TEST(TimedMutex, ContendedLockCountsWaitTime)
{
    TimedMutex m("ut_contended");
    m.lock();
    std::thread waiter([&m] {
        m.lock();
        m.unlock();
    });
    // The contended counter increments *before* the blocking wait,
    // so spinning on it makes the handoff deterministic.
    while (m.stats().contended == 0)
        std::this_thread::yield();
    spinNanos(100'000);
    m.unlock();
    waiter.join();

    TimedMutex::Stats s = m.stats();
    EXPECT_EQ(s.acquisitions, 2u);
    EXPECT_EQ(s.contended, 1u);
    EXPECT_GT(s.waitNanos, 0u);
}

TEST(TimedMutex, RegistrySnapshotSeesLiveInstances)
{
    std::uint64_t wait_before = TimedMutex::totalWaitNanos();
    {
        TimedMutex m("ut_registry_probe");
        m.lock();
        m.unlock();
        bool found = false;
        for (const TimedMutex::Stats &s :
             TimedMutex::snapshotAll()) {
            if (s.name == "ut_registry_probe") {
                found = true;
                EXPECT_EQ(s.acquisitions, 1u);
            }
        }
        EXPECT_TRUE(found);
    }
    // Destroyed instances leave the registry.
    for (const TimedMutex::Stats &s : TimedMutex::snapshotAll())
        EXPECT_NE(s.name, "ut_registry_probe");
    EXPECT_GE(TimedMutex::totalWaitNanos(), wait_before);
}

TEST(HostTelemetry, NestedPhasesAttributeSelfTime)
{
    HostTelemetry tel;
    tel.beginPhase(HostPhase::Elaboration);
    spinNanos(200'000);
    tel.beginPhase(HostPhase::StatsEmit);
    spinNanos(200'000);
    tel.endPhase();
    tel.endPhase();

    const PhaseTotals &elab = tel.phase(HostPhase::Elaboration);
    const PhaseTotals &stats = tel.phase(HostPhase::StatsEmit);
    EXPECT_EQ(elab.count, 1u);
    EXPECT_EQ(stats.count, 1u);
    // The outer phase includes the inner; self time excludes it.
    EXPECT_GE(elab.totalNanos, stats.totalNanos);
    EXPECT_LT(elab.selfNanos, elab.totalNanos);
    EXPECT_EQ(stats.selfNanos, stats.totalNanos);
    EXPECT_EQ(tel.selfNanosTotal(),
              elab.selfNanos + stats.selfNanos);
}

TEST(HostTelemetry, BulkAttributionCountsAsChildTime)
{
    HostTelemetry tel;
    tel.beginPhase(HostPhase::Elaboration);
    spinNanos(10'000);
    tel.addPhaseTime(HostPhase::MemoryModel, 100, 3);
    tel.endPhase();

    const PhaseTotals &mm = tel.phase(HostPhase::MemoryModel);
    EXPECT_EQ(mm.count, 3u);
    EXPECT_EQ(mm.totalNanos, 100u);
    EXPECT_EQ(mm.selfNanos, 100u);
    const PhaseTotals &elab = tel.phase(HostPhase::Elaboration);
    // No self-time underflow: self <= total always.
    EXPECT_LE(elab.selfNanos, elab.totalNanos);
}

TEST(HostTelemetry, ScopedPhaseIsNoOpWithoutTelemetry)
{
    SimContext ctx;
    ScopedSimContext bind(ctx);
    ASSERT_EQ(SimContext::current().hostTelemetry(), nullptr);
    {
        ScopedHostPhase scope(HostPhase::Elaboration);
    }
    SUCCEED();
}

TEST(HostTelemetry, ScopedPhaseBindsToCurrentContextOnly)
{
    HostTelemetry mine;
    HostTelemetry other;
    SimContext ctx;
    ctx.setHostTelemetry(&mine);
    ScopedSimContext bind(ctx);
    {
        ScopedHostPhase scope(HostPhase::ReportIo);
        spinNanos(10'000);
    }
    EXPECT_EQ(mine.phase(HostPhase::ReportIo).count, 1u);
    EXPECT_GT(mine.phase(HostPhase::ReportIo).totalNanos, 0u);
    EXPECT_EQ(other.phase(HostPhase::ReportIo).count, 0u);
}

TEST(HostTelemetry, MergeFoldsPhasesAndAllocationCounters)
{
    HostTelemetry a;
    a.addPhaseTime(HostPhase::EngineSchedule, 100, 2);
    HostTelemetry b;
    b.addPhaseTime(HostPhase::EngineSchedule, 50, 1);
    b.addPhaseTime(HostPhase::EventLoop, 25, 5);

    HostTelemetry merged;
    merged.mergeFrom(a);
    merged.mergeFrom(b);
    EXPECT_EQ(merged.phase(HostPhase::EngineSchedule).count, 3u);
    EXPECT_EQ(merged.phase(HostPhase::EngineSchedule).totalNanos,
              150u);
    EXPECT_EQ(merged.phase(HostPhase::EventLoop).count, 5u);
}

TEST(HostTelemetry, JsonOutputParsesAndNamesEveryPhase)
{
    HostTelemetry tel;
    tel.addPhaseTime(HostPhase::MemoryModel, 2'000'000'000ull, 4);
    tel.samplePeakRss();

    std::ostringstream os;
    tel.writeJsonWithLocks(os);
    JsonValue doc = parseJson(os.str());
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("schema").string, "host_telemetry_v1");
    for (unsigned i = 0; i < numHostPhases; ++i) {
        const char *name =
            hostPhaseName(static_cast<HostPhase>(i));
        EXPECT_TRUE(doc.at("phases").at(name).isObject()) << name;
    }
    EXPECT_DOUBLE_EQ(
        doc.at("phases").at("memory_model").at("seconds").number,
        2.0);
    EXPECT_DOUBLE_EQ(
        doc.at("phases").at("memory_model").at("count").number,
        4.0);
#if defined(__linux__)
    EXPECT_GT(doc.at("alloc").at("peak_rss_kb").number, 0.0);
#endif
    EXPECT_TRUE(doc.at("locks").isArray());
}

} // namespace
