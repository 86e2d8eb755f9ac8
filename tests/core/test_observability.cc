/**
 * @file
 * End-to-end observability test: a small GEMM run with tracing on
 * must emit a valid Chrome trace_event document and a stats dump
 * containing histogram, vector, and formula statistics.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/compute_unit.hh"
#include "ir/ir_builder.hh"
#include "kernels/machsuite.hh"
#include "mem/backdoor.hh"
#include "mem/cache.hh"
#include "mem/simple_dram.hh"
#include "obs/json_reader.hh"

using namespace salam;
using namespace salam::core;
using namespace salam::mem;
using salam::obs::JsonValue;
using salam::obs::parseJson;

namespace
{

/** Runs a 2x2 GEMM through an accelerator with tracing enabled. */
struct TracedGemm
{
    Simulation sim;
    ComputeUnit *cu = nullptr;
    ir::Module mod{"m"};
    ir::IRBuilder builder{mod};

    TracedGemm()
    {
        sim.enableTracing();

        auto kernel = kernels::makeGemm(2, 1);
        ir::Function *fn = kernel->build(builder);

        DeviceConfig dev;
        DramConfig dcfg;
        dcfg.range = AddrRange{0, 1 << 20};
        auto &dram = sim.create<SimpleDram>("dram", 1000, dcfg);
        auto &cache =
            sim.create<Cache>("l1", dev.clockPeriod, CacheConfig{});
        bindPorts(cache.memSide(), dram.port());

        CommInterfaceConfig icfg;
        icfg.mmrRange = AddrRange{0x8000'0000, 0x8000'0000 + 256};
        icfg.dataPorts.push_back({"cache", {dcfg.range}});
        auto &comm = sim.create<CommInterface>(
            "comm", dev.clockPeriod, icfg);
        bindPorts(comm.dataPort(0), cache.cpuSide());
        cu = &sim.create<ComputeUnit>("acc", *fn, dev, comm);

        ir::FlatMemory staging;
        kernel->seed(staging, 0x1000);
        std::vector<std::uint8_t> bytes(kernel->footprintBytes());
        staging.readBytes(0x1000, bytes.size(), bytes.data());
        dram.backdoorWrite(0x1000, bytes.data(), bytes.size());
        cu->start(kernel->args(0x1000));
        sim.run();
        sim.finalizeAll();
    }
};

TEST(Observability, GemmRunEmitsValidChromeTrace)
{
    TracedGemm t;
    ASSERT_TRUE(t.cu->finished());
    ASSERT_NE(t.sim.traceSink(), nullptr);
    EXPECT_GT(t.sim.traceSink()->size(), 0u);

    std::ostringstream os;
    t.sim.traceSink()->writeChromeTrace(os);
    JsonValue doc = parseJson(os.str()); // throws if malformed
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("displayTimeUnit").string, "ns");

    const auto &events = doc.at("traceEvents").array;
    ASSERT_FALSE(events.empty());

    std::set<std::string> phases;
    for (const auto &ev : events) {
        const std::string &ph = ev.at("ph").string;
        phases.insert(ph);
        // Every non-metadata event is timestamped and attributed.
        if (ph != "M") {
            EXPECT_TRUE(ev.at("ts").isNumber());
            EXPECT_GE(ev.at("ts").number, 0.0);
        }
        EXPECT_TRUE(ev.at("pid").isNumber());
        EXPECT_TRUE(ev.at("tid").isNumber());
    }
    // Metadata, complete slices, counters, and instants all present.
    EXPECT_TRUE(phases.count("M"));
    EXPECT_TRUE(phases.count("X"));
    EXPECT_TRUE(phases.count("C"));
    EXPECT_TRUE(phases.count("i"));

    // Durations on slices are non-negative.
    for (const auto &ev : events) {
        if (ev.at("ph").string == "X") {
            EXPECT_GE(ev.at("dur").number, 0.0);
        }
    }
}

TEST(Observability, GemmRunStatsIncludeAllKinds)
{
    TracedGemm t;
    JsonValue doc = parseJson(t.sim.stats().dumpJsonString());
    ASSERT_TRUE(doc.isObject());

    // At least one histogram, one vector, and one formula.
    const auto &hist = doc.at("acc.engine.mem_queue_occupancy");
    EXPECT_EQ(hist.at("kind").string, "histogram");
    EXPECT_GT(hist.at("count").number, 0.0);

    const auto &vec = doc.at("acc.engine.stall_causes");
    EXPECT_EQ(vec.at("kind").string, "vector");
    ASSERT_TRUE(vec.at("lanes").isObject());
    EXPECT_TRUE(vec.at("lanes").has("compute_only"));

    const auto &fu = doc.at("acc.engine.fu_utilization");
    EXPECT_EQ(fu.at("kind").string, "formula");
    EXPECT_GE(fu.at("value").number, 0.0);
    EXPECT_LE(fu.at("value").number, 1.0);

    // The run made progress, so engine formulas are non-zero.
    EXPECT_GT(doc.at("acc.engine.total_cycles").at("value").number,
              0.0);
    EXPECT_GT(doc.at("acc.engine.dynamic_insts").at("value").number,
              0.0);

    // Cache and event-queue instrumentation present too.
    EXPECT_GT(doc.at("l1.cache.hits").at("value").number, 0.0);
    EXPECT_GT(doc.at("sim.event_queue.serviced").at("value").number,
              0.0);
}

TEST(Observability, TracingOffMeansNoSink)
{
    Simulation sim;
    EXPECT_EQ(sim.traceSink(), nullptr);
}

} // namespace
