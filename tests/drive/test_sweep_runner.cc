/** @file SweepRunner: determinism, isolation, and aggregation. */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "drive/sweep_runner.hh"
#include "drive/testbench.hh"
#include "kernels/machsuite.hh"
#include "obs/json_reader.hh"
#include "obs/run_report.hh"
#include "sim/sim_context.hh"

using namespace salam;
using namespace salam::drive;
using salam::obs::JsonReader;
using salam::obs::JsonValue;

namespace
{

/**
 * One real simulation per point: GEMM on the accel fixture with a
 * per-point port count, payload = cycles + full stats dump + run
 * report. Any cross-point leakage (shared engine state, shared stat
 * registry, shared context) shows up as a payload mismatch between
 * serial and parallel runs.
 */
std::string
simulatePoint(std::size_t idx)
{
    const unsigned ports = 1u << (idx % 4);

    auto kernel = kernels::makeGemm(8, 2);
    ir::Module mod("sweep");
    ir::IRBuilder b(mod);
    ir::Function *fn = kernel->buildOptimized(b);

    core::DeviceConfig dev;
    dev.readPortsPerCycle = ports;
    dev.writePortsPerCycle = ports;

    mem::ScratchpadConfig spm_cfg = drive::Testbench::defaultSpm();
    spm_cfg.readPorts = ports;
    spm_cfg.writePorts = ports;
    drive::Testbench sys(*fn, dev, spm_cfg);
    std::string check = sys.runKernel(*kernel);
    if (!check.empty())
        fatal("point %zu: %s", idx, check.c_str());
    std::uint64_t cycles = sys.cu->cycleCount();

    obs::RunReport report;
    report.run = "gemm.p" + std::to_string(ports);
    report.cycles = cycles;
    report.outcome = "ok";
    report.statsJson = sys.sim.stats().dumpJsonString();
    std::ostringstream report_os;
    report.writeJson(report_os);

    std::ostringstream os;
    os << "{\"cycles\": " << cycles
       << ", \"report\": " << report_os.str() << "}";
    return os.str();
}

} // namespace

TEST(SweepRunner, SerialAndParallelPayloadsBitIdentical)
{
    constexpr std::size_t points = 8;

    SweepRunner::Options serial_opts;
    serial_opts.threads = 1;
    SweepRunner serial(serial_opts);
    auto serial_results = serial.run(points, simulatePoint);

    SweepRunner::Options parallel_opts;
    parallel_opts.threads = 4;
    SweepRunner parallel(parallel_opts);
    auto parallel_results = parallel.run(points, simulatePoint);

    ASSERT_EQ(serial_results.size(), points);
    ASSERT_EQ(parallel_results.size(), points);
    EXPECT_EQ(serial.lastThreads(), 1u);
    EXPECT_EQ(parallel.lastThreads(), 4u);

    for (std::size_t i = 0; i < points; ++i) {
        ASSERT_TRUE(serial_results[i].ok) << serial_results[i].error;
        ASSERT_TRUE(parallel_results[i].ok)
            << parallel_results[i].error;
        EXPECT_EQ(serial_results[i].index, i);
        EXPECT_EQ(parallel_results[i].index, i);
        // The whole point of context isolation: per-point stats and
        // report JSON must not depend on what ran concurrently.
        EXPECT_EQ(serial_results[i].payload,
                  parallel_results[i].payload)
            << "payload diverged at point " << i;

        JsonValue doc =
            JsonReader(parallel_results[i].payload).parse();
        EXPECT_GT(doc.at("cycles").number, 0.0);
        EXPECT_EQ(doc.at("report").at("outcome").string, "ok");
    }
}

TEST(SweepRunner, FailedPointIsIsolated)
{
    SweepRunner::Options opts;
    opts.threads = 4;
    SweepRunner runner(opts);
    auto results = runner.run(6, [](std::size_t idx) {
        if (idx == 2)
            fatal("point %zu exploded", idx);
        if (idx == 4)
            throw std::runtime_error("plain failure");
        return std::string("{\"idx\": ") + std::to_string(idx) +
            "}";
    });

    ASSERT_EQ(results.size(), 6u);
    for (std::size_t i : {0u, 1u, 3u, 5u}) {
        EXPECT_TRUE(results[i].ok) << i;
        EXPECT_EQ(results[i].outcome, "ok");
    }
    EXPECT_FALSE(results[2].ok);
    EXPECT_EQ(results[2].outcome, "fault");
    EXPECT_NE(results[2].error.find("point 2 exploded"),
              std::string::npos);
    EXPECT_FALSE(results[4].ok);
    EXPECT_EQ(results[4].outcome, "error");
    EXPECT_EQ(results[4].error, "plain failure");
}

TEST(SweepRunner, WorkerContextsInheritFlagMaskButNotMore)
{
    SimContext launcher;
    launcher.setFlagMask(0b101);
    launcher.addTerminationHook(
        [](const std::string &, const std::string &) {
            FAIL() << "worker fatal must not reach launcher hooks";
        });
    ScopedSimContext bind(launcher);

    SweepRunner::Options opts;
    opts.threads = 2;
    SweepRunner runner(opts);
    auto results = runner.run(4, [](std::size_t idx) {
        if (SimContext::current().flagMask() != 0b101)
            throw std::runtime_error("flag mask not inherited");
        if (&SimContext::current() ==
            &SimContext::processDefault()) {
            throw std::runtime_error("worker not context-bound");
        }
        if (idx == 3)
            fatal("deliberate");
        return std::string();
    });
    for (std::size_t i : {0u, 1u, 2u})
        EXPECT_TRUE(results[i].ok) << results[i].error;
    EXPECT_FALSE(results[3].ok);
    EXPECT_EQ(&SimContext::current(), &launcher);
}

TEST(SweepRunner, ThreadCountClampsToPointCount)
{
    SweepRunner::Options opts;
    opts.threads = 16;
    SweepRunner runner(opts);
    auto results = runner.run(3, [](std::size_t) {
        return std::string();
    });
    EXPECT_EQ(results.size(), 3u);
    EXPECT_EQ(runner.lastThreads(), 3u);
}

TEST(SweepRunner, AggregateJsonIsWellFormed)
{
    SweepRunner::Options opts;
    opts.threads = 2;
    SweepRunner runner(opts);
    auto results = runner.run(3, [](std::size_t idx) {
        if (idx == 1)
            throw std::runtime_error("bad \"point\"");
        return std::string("{\"value\": ") + std::to_string(idx) +
            "}";
    });

    std::ostringstream os;
    SweepRunner::writeAggregateJson(os, "unit\"test", results,
                                    runner.lastThreads(),
                                    runner.lastWallSeconds());
    JsonValue doc = JsonReader(os.str()).parse();
    EXPECT_EQ(doc.at("sweep").string, "unit\"test");
    EXPECT_EQ(doc.at("points").number, 3.0);
    EXPECT_EQ(doc.at("failed_points").number, 1.0);
    EXPECT_EQ(doc.at("threads").number, 2.0);
    ASSERT_EQ(doc.at("results").array.size(), 3u);
    EXPECT_EQ(doc.at("results").array[0].at("point")
                  .at("value").number, 0.0);
    EXPECT_EQ(doc.at("results").array[1].at("outcome").string,
              "error");
    EXPECT_EQ(doc.at("results").array[1].at("error").string,
              "bad \"point\"");
    EXPECT_EQ(doc.at("results").array[2].at("point")
                  .at("value").number, 2.0);
}

TEST(SweepRunner, HostTelemetryRecordsTimelinesAndWorkers)
{
    constexpr std::size_t points = 6;
    SweepRunner::Options opts;
    opts.threads = 2;
    opts.hostTelemetry = true;
    opts.captureSimTracePoint = -1;
    SweepRunner runner(opts);
    auto results = runner.run(points, simulatePoint);
    for (const auto &r : results)
        ASSERT_TRUE(r.ok) << r.error;

    const SweepHostSummary &host = runner.hostSummary();
    EXPECT_TRUE(host.enabled);
    EXPECT_EQ(host.threads, 2u);
    EXPECT_GT(host.wallSeconds, 0.0);
    EXPECT_GT(host.effectiveSpeedup, 0.0);

    // Every point has a complete, ordered span set on a valid
    // worker.
    ASSERT_EQ(host.timelines.size(), points);
    std::size_t worker_points = 0;
    for (std::size_t i = 0; i < points; ++i) {
        const SweepPointTimeline &tl = host.timelines[i];
        EXPECT_EQ(tl.index, i);
        EXPECT_LT(tl.worker, host.threads) << i;
        EXPECT_LE(tl.pickedNs, tl.setupEndNs) << i;
        EXPECT_LE(tl.setupEndNs, tl.runEndNs) << i;
        EXPECT_LE(tl.runEndNs, tl.endNs) << i;
        EXPECT_GT(tl.runEndNs - tl.setupEndNs, 0u) << i;
    }
    ASSERT_EQ(host.workerPoints.size(), host.threads);
    for (unsigned w = 0; w < host.threads; ++w)
        worker_points += host.workerPoints[w];
    EXPECT_EQ(worker_points, points);

    // The merged telemetry saw real engine/memory event time.
    EXPECT_GT(host.merged.phase(obs::HostPhase::EngineSchedule)
                  .count, 0u);
    EXPECT_GT(host.merged.phase(obs::HostPhase::MemoryModel).count,
              0u);
    EXPECT_GT(host.merged.selfNanosTotal(), 0u);
}

TEST(SweepRunner, HostAggregateJsonAccountsForAllPoints)
{
    constexpr std::size_t points = 5;
    SweepRunner::Options opts;
    opts.threads = 4;
    opts.hostTelemetry = true;
    opts.captureSimTracePoint = -1;
    SweepRunner runner(opts);
    auto results = runner.run(points, simulatePoint);

    std::ostringstream os;
    SweepRunner::writeAggregateJson(os, "host-e2e", results,
                                    runner.lastThreads(),
                                    runner.lastWallSeconds(),
                                    &runner.hostSummary());
    JsonValue doc = JsonReader(os.str()).parse();
    EXPECT_EQ(doc.at("points").number,
              static_cast<double>(points));
    const JsonValue &host = doc.at("host");
    EXPECT_EQ(host.at("schema").string, "sweep_host_telemetry_v1");
    EXPECT_EQ(host.at("threads").number,
              static_cast<double>(runner.lastThreads()));
    ASSERT_EQ(host.at("workers").array.size(),
              runner.lastThreads());
    double worker_points = 0.0;
    for (const JsonValue &w : host.at("workers").array) {
        EXPECT_GE(w.at("busy_fraction").number, 0.0);
        worker_points += w.at("points").number;
    }
    EXPECT_EQ(worker_points, static_cast<double>(points));
    ASSERT_EQ(host.at("points").array.size(), points);
    for (std::size_t i = 0; i < points; ++i) {
        const JsonValue &p = host.at("points").array[i];
        EXPECT_EQ(p.at("index").number, static_cast<double>(i));
        EXPECT_LT(p.at("worker").number,
                  static_cast<double>(runner.lastThreads()));
        EXPECT_GT(p.at("run_seconds").number, 0.0);
    }
    EXPECT_TRUE(host.at("telemetry").isObject());
    EXPECT_TRUE(host.at("locks").isArray());
}

TEST(SweepRunner, HostTelemetryFilesAreWellFormed)
{
    SweepRunner::Options opts;
    opts.threads = 2;
    opts.hostTelemetry = true;
    opts.captureSimTracePoint = -1;
    SweepRunner runner(opts);
    auto results = runner.run(4, simulatePoint);
    for (const auto &r : results)
        ASSERT_TRUE(r.ok) << r.error;

    // Under the test harness's temp dir, never the source tree.
    const std::string path = ::testing::TempDir() +
        "ut_sweep_host_telemetry.json";
    ASSERT_TRUE(runner.writeHostTelemetryFiles(path, "ut-sweep"));

    std::ifstream json_in(path);
    ASSERT_TRUE(json_in.good());
    std::stringstream json_ss;
    json_ss << json_in.rdbuf();
    JsonValue doc = JsonReader(json_ss.str()).parse();
    EXPECT_EQ(doc.at("sweep").string, "ut-sweep");
    EXPECT_TRUE(doc.at("host").at("telemetry").isObject());

    // The Chrome trace carries host-scope (pid 1) worker tracks.
    std::ifstream trace_in(path + ".trace.json");
    ASSERT_TRUE(trace_in.good());
    std::stringstream trace_ss;
    trace_ss << trace_in.rdbuf();
    JsonValue trace = JsonReader(trace_ss.str()).parse();
    bool saw_worker_track = false;
    bool saw_host_slice = false;
    for (const JsonValue &ev : trace.at("traceEvents").array) {
        if (ev.at("ph").string == "M" &&
            ev.at("name").string == "thread_name" &&
            ev.at("args").at("name").string.rfind("worker", 0) ==
                0) {
            saw_worker_track = true;
        }
        if (ev.at("ph").string == "X" &&
            ev.at("pid").number == 1.0)
            saw_host_slice = true;
    }
    EXPECT_TRUE(saw_worker_track);
    EXPECT_TRUE(saw_host_slice);
}
