/** @file Unit tests for the statistics registry. */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/json_reader.hh"
#include "sim/statistics.hh"

using namespace salam;
using salam::obs::parseJson;

TEST(Statistics, AddAndAccumulate)
{
    StatRegistry reg;
    Stat &s = reg.add("acc.cycles", "total cycles");
    ++s;
    s += 9.0;
    EXPECT_DOUBLE_EQ(s.value(), 10.0);
    EXPECT_DOUBLE_EQ(reg.find("acc.cycles")->value(), 10.0);
}

TEST(Statistics, FindMissingReturnsNull)
{
    StatRegistry reg;
    EXPECT_EQ(reg.find("nope"), nullptr);
}

TEST(Statistics, DuplicateNamePanics)
{
    StatRegistry reg;
    reg.add("x", "first");
    EXPECT_DEATH(reg.add("x", "second"), "duplicate statistic");
}

TEST(Statistics, SumByPrefix)
{
    StatRegistry reg;
    reg.add("acc0.power.fu", "fu power").set(2.0);
    reg.add("acc0.power.reg", "reg power").set(3.0);
    reg.add("acc1.power.fu", "fu power").set(5.0);
    EXPECT_DOUBLE_EQ(reg.sumByPrefix("acc0.power."), 5.0);
    EXPECT_DOUBLE_EQ(reg.sumByPrefix("acc"), 10.0);
    EXPECT_DOUBLE_EQ(reg.sumByPrefix("zzz"), 0.0);
}

TEST(Statistics, DumpContainsNamesAndValues)
{
    StatRegistry reg;
    reg.add("a.b", "a stat").set(7.0);
    std::ostringstream os;
    reg.dump(os);
    EXPECT_NE(os.str().find("a.b"), std::string::npos);
    EXPECT_NE(os.str().find("7"), std::string::npos);
}

TEST(Statistics, ResetAllZeroes)
{
    StatRegistry reg;
    reg.add("a", "").set(1.0);
    reg.add("b", "").set(2.0);
    reg.resetAll();
    EXPECT_DOUBLE_EQ(reg.find("a")->value(), 0.0);
    EXPECT_DOUBLE_EQ(reg.find("b")->value(), 0.0);
}

TEST(Histogram, BucketsSamplesByRange)
{
    StatRegistry reg;
    Histogram &h =
        reg.addHistogram("h", "test histogram", 0.0, 10.0, 5);
    h.sample(0.0);  // bucket 0: [0, 2)
    h.sample(1.9);  // bucket 0
    h.sample(2.0);  // bucket 1: [2, 4)
    h.sample(9.99); // bucket 4: [8, 10)
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(4), 1u);
    EXPECT_DOUBLE_EQ(h.bucketLow(1), 2.0);
    EXPECT_DOUBLE_EQ(h.bucketHigh(1), 4.0);
}

TEST(Histogram, UnderflowAndOverflowCaptured)
{
    StatRegistry reg;
    Histogram &h = reg.addHistogram("h", "", 10.0, 20.0, 2);
    h.sample(9.999);  // below min
    h.sample(-50.0);  // below min
    h.sample(20.0);   // at max -> overflow (range is half-open)
    h.sample(1e9);    // far above
    h.sample(15.0);   // in range
    EXPECT_EQ(h.underflow(), 2u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.minValue(), -50.0);
    EXPECT_DOUBLE_EQ(h.maxValue(), 1e9);
}

TEST(Histogram, SingleValueAndWeightedSamples)
{
    StatRegistry reg;
    // Degenerate range: min == max still works (width forced to 1).
    Histogram &h = reg.addHistogram("h", "", 5.0, 5.0, 1);
    h.sample(5.0, 3);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), 5.0);
    EXPECT_DOUBLE_EQ(h.value(), 5.0);
    EXPECT_EQ(h.underflow(), 0u);
}

TEST(Histogram, ResetClearsEverything)
{
    StatRegistry reg;
    Histogram &h = reg.addHistogram("h", "", 0.0, 4.0, 2);
    h.sample(1.0);
    h.sample(100.0);
    reg.resetAll();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.bucketCount(0), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(VectorStat, LanesByIndexAndName)
{
    StatRegistry reg;
    VectorStat &v = reg.addVector("v", "stall causes",
                                  {"load", "store", "compute"});
    v.add(0);
    v.add(0, 4.0);
    v.set(2, 7.0);
    EXPECT_EQ(v.size(), 3u);
    EXPECT_DOUBLE_EQ(v.lane(0), 5.0);
    EXPECT_DOUBLE_EQ(v.lane("load"), 5.0);
    EXPECT_DOUBLE_EQ(v.lane("compute"), 7.0);
    EXPECT_DOUBLE_EQ(v.lane("unknown"), 0.0);
    EXPECT_DOUBLE_EQ(v.value(), 12.0); // scalar summary = sum
}

TEST(Formula, RecomputesAfterResetAll)
{
    StatRegistry reg;
    Stat &busy = reg.add("busy", "");
    Stat &total = reg.add("total", "");
    reg.addFormula("util", "busy/total", [&busy, &total] {
        return total.value() == 0.0
            ? 0.0
            : busy.value() / total.value();
    });
    busy.set(30.0);
    total.set(60.0);
    EXPECT_DOUBLE_EQ(reg.find("util")->value(), 0.5);

    // A formula holds no state: after resetAll it reflects the
    // (reset) inputs instead of a stale cached value.
    reg.resetAll();
    EXPECT_DOUBLE_EQ(reg.find("util")->value(), 0.0);
    busy.set(10.0);
    total.set(40.0);
    EXPECT_DOUBLE_EQ(reg.find("util")->value(), 0.25);
}

TEST(Statistics, DumpJsonParsesBackWithAllKinds)
{
    StatRegistry reg;
    reg.add("obj.grp.scalar", "a scalar").set(42.0);
    Histogram &h =
        reg.addHistogram("obj.grp.hist", "a histogram", 0.0, 8.0, 4);
    h.sample(1.0);
    h.sample(3.0);
    h.sample(100.0);
    VectorStat &v =
        reg.addVector("obj.grp.vec", "a vector", {"a", "b"});
    v.add(0, 2.0);
    v.add(1, 3.0);
    reg.addFormula("obj.grp.formula", "a formula",
                   [] { return 0.125; });

    auto doc = parseJson(reg.dumpJsonString());
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.object.size(), 4u);

    const auto &scalar = doc.at("obj.grp.scalar");
    EXPECT_EQ(scalar.at("kind").string, "scalar");
    EXPECT_DOUBLE_EQ(scalar.at("value").number, 42.0);

    const auto &hist = doc.at("obj.grp.hist");
    EXPECT_EQ(hist.at("kind").string, "histogram");
    EXPECT_DOUBLE_EQ(hist.at("count").number, 3.0);
    EXPECT_DOUBLE_EQ(hist.at("overflow").number, 1.0);
    ASSERT_TRUE(hist.at("buckets").isArray());
    EXPECT_EQ(hist.at("buckets").array.size(), 4u);

    const auto &vec = doc.at("obj.grp.vec");
    EXPECT_EQ(vec.at("kind").string, "vector");
    EXPECT_DOUBLE_EQ(vec.at("lanes").at("a").number, 2.0);
    EXPECT_DOUBLE_EQ(vec.at("value").number, 5.0);

    const auto &formula = doc.at("obj.grp.formula");
    EXPECT_EQ(formula.at("kind").string, "formula");
    EXPECT_DOUBLE_EQ(formula.at("value").number, 0.125);
}

TEST(Statistics, DumpJsonEscapesDescriptions)
{
    StatRegistry reg;
    reg.add("s", "has \"quotes\" and\nnewlines").set(1.0);
    auto doc = parseJson(reg.dumpJsonString());
    EXPECT_EQ(doc.at("s").at("desc").string,
              "has \"quotes\" and\nnewlines");
}
