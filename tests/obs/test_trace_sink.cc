/** Tests for TraceSink and its Chrome trace_event JSON export. */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/json_reader.hh"
#include "obs/run_report.hh"
#include "obs/trace_sink.hh"

using namespace salam::obs;
using salam::obs::JsonValue;
using salam::obs::parseJson;

namespace
{

TEST(TraceSink, EmptySinkProducesValidDocument)
{
    TraceSink sink;
    std::ostringstream os;
    sink.writeChromeTrace(os);
    JsonValue doc = parseJson(os.str());
    ASSERT_TRUE(doc.isObject());
    EXPECT_TRUE(doc.at("traceEvents").isArray());
    EXPECT_TRUE(doc.at("traceEvents").array.empty());
}

TEST(TraceSink, RecordsRenderWithCorrectPhases)
{
    TraceSink sink;
    sink.recordSlice(1'000'000, 2'000'000, "acc", "compute", "fmul",
                     {{"lat", 4.0}});
    sink.recordInstant(3'000'000, "acc", "engine", "import loop");
    sink.recordCounter(5'000'000, "spm", "queue", {{"pending", 3.0}});

    std::ostringstream os;
    sink.writeChromeTrace(os);
    JsonValue doc = parseJson(os.str());
    const auto &events = doc.at("traceEvents").array;

    // Metadata thread_name records come first, one per object.
    std::size_t meta = 0;
    for (const auto &ev : events) {
        if (ev.at("ph").string == "M")
            ++meta;
    }
    EXPECT_EQ(meta, 2u); // "acc" and "spm"

    bool saw_slice = false, saw_instant = false, saw_counter = false;
    for (const auto &ev : events) {
        const std::string &ph = ev.at("ph").string;
        if (ph == "X") {
            saw_slice = true;
            // 1e6 ps = 1 us.
            EXPECT_DOUBLE_EQ(ev.at("ts").number, 1.0);
            EXPECT_DOUBLE_EQ(ev.at("dur").number, 2.0);
            EXPECT_EQ(ev.at("name").string, "fmul");
            EXPECT_DOUBLE_EQ(ev.at("args").at("lat").number, 4.0);
        } else if (ph == "i") {
            saw_instant = true;
            EXPECT_EQ(ev.at("s").string, "t");
        } else if (ph == "C") {
            saw_counter = true;
            EXPECT_DOUBLE_EQ(ev.at("args").at("pending").number,
                             3.0);
        }
    }
    EXPECT_TRUE(saw_slice);
    EXPECT_TRUE(saw_instant);
    EXPECT_TRUE(saw_counter);
}

TEST(TraceSink, ObjectsMapToStableThreadIds)
{
    TraceSink sink;
    sink.recordInstant(0, "a", "x", "e1");
    sink.recordInstant(1, "b", "x", "e2");
    sink.recordInstant(2, "a", "x", "e3");

    std::ostringstream os;
    sink.writeChromeTrace(os);
    JsonValue doc = parseJson(os.str());

    double tid_a = -1.0, tid_b = -1.0;
    for (const auto &ev : doc.at("traceEvents").array) {
        if (ev.at("ph").string != "i")
            continue;
        if (ev.at("name").string == "e1")
            tid_a = ev.at("tid").number;
        if (ev.at("name").string == "e2")
            tid_b = ev.at("tid").number;
        if (ev.at("name").string == "e3") {
            EXPECT_DOUBLE_EQ(ev.at("tid").number, tid_a);
        }
    }
    EXPECT_NE(tid_a, tid_b);
}

TEST(TraceSink, CapDropsInsteadOfGrowing)
{
    TraceSink sink(4);
    for (int i = 0; i < 10; ++i)
        sink.recordInstant(static_cast<std::uint64_t>(i), "o", "c",
                           "e");
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.dropped(), 6u);
    sink.clear();
    EXPECT_TRUE(sink.empty());
    EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, EscapesSpecialCharactersInNames)
{
    TraceSink sink;
    sink.recordInstant(0, "obj\"ect", "cat", "line\nbreak\\slash");
    std::ostringstream os;
    sink.writeChromeTrace(os);
    JsonValue doc = parseJson(os.str()); // throws if corrupt
    bool found = false;
    for (const auto &ev : doc.at("traceEvents").array) {
        if (ev.at("ph").string == "i") {
            EXPECT_EQ(ev.at("name").string, "line\nbreak\\slash");
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(RunReport, WritesParseableSelfContainedJson)
{
    RunReport report;
    report.run = "test.kernel";
    report.cycles = 1234;
    report.simSeconds = 0.25;
    report.compileSeconds = 0.125;
    report.extra = {{"unroll", 8.0}, {"ports", 2.0}};
    report.statsJson = "{\"a.b\": {\"value\": 1}}";

    std::ostringstream os;
    report.writeJson(os);
    JsonValue doc = parseJson(os.str());
    EXPECT_EQ(doc.at("run").string, "test.kernel");
    EXPECT_DOUBLE_EQ(doc.at("cycles").number, 1234.0);
    EXPECT_DOUBLE_EQ(doc.at("sim_seconds").number, 0.25);
    EXPECT_DOUBLE_EQ(doc.at("unroll").number, 8.0);
    EXPECT_DOUBLE_EQ(
        doc.at("stats").at("a.b").at("value").number, 1.0);
}

TEST(RunReport, EmptyStatsOmittedButStillValid)
{
    RunReport report;
    report.run = "bare";
    std::ostringstream os;
    report.writeJson(os);
    JsonValue doc = parseJson(os.str());
    EXPECT_EQ(doc.at("run").string, "bare");
}

} // namespace
