/**
 * @file
 * Interval time-series statistics tests: dump/reset semantics of
 * the registry (including Formula stats), interval rows summing to
 * whole-run totals, termination without a hang, and per-interval
 * power derivation.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/interval_stats.hh"
#include "obs/json_reader.hh"
#include "sim/event_queue.hh"
#include "sim/statistics.hh"

using namespace salam;
using salam::obs::IntervalStats;
using salam::obs::JsonValue;
using salam::obs::parseJson;

namespace
{

/**
 * Regression for StatRegistry::resetAll() with Formula inputs:
 * resettable kinds go back to zero, while formulas recompute from
 * their live inputs — dump, reset, advance, re-dump.
 */
TEST(IntervalStats, ResetAllClearsResettablesButNotFormulas)
{
    StatRegistry reg;
    Stat &count = reg.add("t.count", "a scalar");
    VectorStat &vec =
        reg.addVector("t.vec", "a vector", {"a", "b"});
    Histogram &hist = reg.addHistogram("t.hist", "a histogram",
                                       0.0, 10.0, 5);
    double live_input = 0.0;
    reg.addFormula("t.ratio", "live formula",
                   [&live_input] { return live_input / 2.0; });

    count += 5.0;
    vec.add(0, 3.0);
    hist.sample(4.0);
    live_input = 8.0;

    JsonValue before = parseJson(reg.dumpJsonString());
    EXPECT_EQ(before.at("t.count").at("value").number, 5.0);
    EXPECT_EQ(before.at("t.vec").at("value").number, 3.0);
    EXPECT_EQ(before.at("t.hist").at("count").number, 1.0);
    EXPECT_EQ(before.at("t.ratio").at("value").number, 4.0);

    reg.resetAll();

    // Resettables are zero; the formula still reads its live input.
    EXPECT_EQ(count.value(), 0.0);
    EXPECT_EQ(vec.value(), 0.0);
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(reg.find("t.ratio")->value(), 4.0);

    // Advance and re-dump: only post-reset deltas in resettables.
    count += 2.0;
    vec.add(1, 7.0);
    hist.sample(9.0);
    hist.sample(1.0);
    live_input = 20.0;

    JsonValue after = parseJson(reg.dumpJsonString());
    EXPECT_EQ(after.at("t.count").at("value").number, 2.0);
    EXPECT_EQ(after.at("t.vec").at("lanes").at("a").number, 0.0);
    EXPECT_EQ(after.at("t.vec").at("lanes").at("b").number, 7.0);
    EXPECT_EQ(after.at("t.hist").at("count").number, 2.0);
    EXPECT_EQ(after.at("t.ratio").at("value").number, 10.0);
}

/**
 * Drives a counter from scheduled events and checks that the
 * per-interval deltas sum back to the whole-run total.
 */
TEST(IntervalStats, RowDeltasSumToWholeRunTotal)
{
    EventQueue queue;
    StatRegistry reg;
    Stat &work = reg.add("w.done", "units of work");

    // 1 unit at each of ticks 10, 20, ..., 250.
    constexpr unsigned n_events = 25;
    for (unsigned i = 1; i <= n_events; ++i)
        queue.schedule(i * 10, [&work] { ++work; }, "work");

    IntervalStats::Config cfg;
    cfg.intervalTicks = 60; // boundaries at 60, 120, 180, 240
    IntervalStats intervals(queue, reg, cfg);
    intervals.start();

    queue.run();
    intervals.finalize();

    // Partial tail (ticks 241..250) captured by finalize().
    ASSERT_GE(intervals.rows().size(), 2u);
    double sum = 0.0;
    std::uint64_t expect_index = 0;
    Tick prev_end = 0;
    for (const IntervalStats::Row &row : intervals.rows()) {
        EXPECT_EQ(row.index, expect_index++);
        EXPECT_EQ(row.startTick, prev_end);
        EXPECT_GT(row.endTick, row.startTick);
        prev_end = row.endTick;
        JsonValue doc = parseJson(row.statsJson);
        sum += doc.at("w.done").at("value").number;
    }
    EXPECT_EQ(sum, static_cast<double>(n_events));
}

/**
 * Without an active() predicate the series must terminate on its
 * own once the boundary event is the only thing left in the queue —
 * EventQueue::run() drains until empty, so this is the hang test.
 */
TEST(IntervalStats, TerminatesWhenQueueOtherwiseEmpty)
{
    EventQueue queue;
    StatRegistry reg;
    queue.schedule(35, [] {}, "payload");

    IntervalStats::Config cfg;
    cfg.intervalTicks = 10;
    IntervalStats intervals(queue, reg, cfg);
    intervals.start();

    Tick last = queue.run(100000);
    EXPECT_LE(last, 50u); // did not free-run to the limit
    intervals.finalize();
    EXPECT_FALSE(intervals.rows().empty());
}

/** The active() predicate bounds the series. */
TEST(IntervalStats, ActivePredicateStopsTheSeries)
{
    EventQueue queue;
    StatRegistry reg;
    bool running = true;
    queue.schedule(95, [&running] { running = false; }, "stop");

    IntervalStats::Config cfg;
    cfg.intervalTicks = 20;
    cfg.active = [&running] { return running; };
    IntervalStats intervals(queue, reg, cfg);
    intervals.start();

    queue.run();
    intervals.finalize();

    // Boundaries at 20/40/60/80 fire; at 100 the predicate is
    // false, so only the finalize() tail follows.
    ASSERT_EQ(intervals.rows().size(), 5u);
    EXPECT_EQ(intervals.rows().back().endTick, 100u);
}

/** Per-interval power: ΔpJ over Δns, from the energy probe. */
TEST(IntervalStats, EnergyProbeYieldsPerIntervalPower)
{
    EventQueue queue;
    StatRegistry reg;
    // Keep the queue busy through two full intervals.
    for (Tick t = 1; t <= 4000; t += 100)
        queue.schedule(t, [] {}, "busy");

    double energy_pj = 0.0;
    IntervalStats::Config cfg;
    cfg.intervalTicks = 2000; // 2 ns at 1 ps per tick
    IntervalStats intervals(queue, reg, cfg);
    intervals.setEnergyProbe([&energy_pj] { return energy_pj; });

    // 6 pJ in the first interval, then nothing.
    queue.schedule(500, [&energy_pj] { energy_pj = 6.0; }, "e");
    intervals.start();

    queue.run();
    intervals.finalize();

    ASSERT_GE(intervals.rows().size(), 2u);
    // 6 pJ / 2 ns = 3 mW; second interval is idle.
    EXPECT_DOUBLE_EQ(intervals.rows()[0].dynamicPowerMw, 3.0);
    EXPECT_DOUBLE_EQ(intervals.rows()[1].dynamicPowerMw, 0.0);
}

/** JSONL serialization: one valid JSON object per row line. */
TEST(IntervalStats, WritesValidJsonl)
{
    EventQueue queue;
    StatRegistry reg;
    Stat &s = reg.add("x.y", "scalar");
    for (Tick t = 5; t <= 50; t += 5)
        queue.schedule(t, [&s] { ++s; }, "tick");

    IntervalStats::Config cfg;
    cfg.intervalTicks = 25;
    IntervalStats intervals(queue, reg, cfg);
    intervals.start();
    queue.run();
    intervals.finalize();

    std::ostringstream os;
    intervals.writeJsonl(os);
    std::istringstream lines(os.str());
    std::string line;
    unsigned n = 0;
    while (std::getline(lines, line)) {
        JsonValue doc = parseJson(line);
        EXPECT_EQ(doc.at("index").number, static_cast<double>(n));
        EXPECT_TRUE(doc.at("stats").isObject());
        ++n;
    }
    EXPECT_EQ(n, intervals.rows().size());
}

} // namespace
