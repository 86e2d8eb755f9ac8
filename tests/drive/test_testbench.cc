/** @file The single-accelerator testbench, its policies and recorder. */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "drive/testbench.hh"
#include "kernels/machsuite.hh"
#include "obs/json_reader.hh"
#include "obs/result_store.hh"
#include "sim/sim_context.hh"

using namespace salam;
using salam::drive::BenchMemory;
using salam::drive::ObsOptions;

/**
 * runConfigHash is both the --resume key and the store's configHash,
 * so a changed key string would silently stop existing stores from
 * resuming: these values are the ones those stores hold.
 */
TEST(Testbench, RunConfigHashIsPinned)
{
    core::DeviceConfig fig13;
    fig13.setFuLimit(hw::FuType::FpAddSubDouble, 8);
    fig13.setFuLimit(hw::FuType::FpMultiplierDouble, 8);
    fig13.readPortsPerCycle = fig13.writePortsPerCycle = 4;
    fig13.readQueueSize = fig13.writeQueueSize = 16;
    BenchMemory fig13_mem;
    fig13_mem.spmReadPorts = fig13_mem.spmWritePorts = 4;
    EXPECT_EQ(drive::runConfigHash("gemm", fig13, fig13_mem),
              0xc6a77757fd72abddull);

    core::DeviceConfig sequential;
    sequential.blockSequentialImport = true;
    BenchMemory banked;
    banked.spmLatency = 3;
    banked.spmBanks = 4;
    EXPECT_EQ(drive::runConfigHash("gemm", sequential, banked),
              0x0e14313a26e685feull);

    BenchMemory axi;
    axi.useInterconnect = true;
    axi.interconnect.kind = mem::InterconnectKind::AxiBus;
    axi.interconnect.busWidthBytes = 4;
    axi.interconnect.maxOutstandingPerRequester = 2;
    EXPECT_EQ(drive::runConfigHash("gemm", {}, axi),
              0x2f2600486d8a7a05ull);
}

/**
 * Per-run artifacts are last-writer-wins files, so they serialize a
 * sweep whatever width it asked for — including a bench's own
 * default width.
 */
TEST(Testbench, PerRunArtifactsForceOneSweepThread)
{
    ObsOptions plain;
    EXPECT_EQ(drive::effectiveSweepThreads(plain), 1u);
    EXPECT_EQ(drive::effectiveSweepThreads(plain, 4), 4u);
    plain.sweepThreads = 3;
    EXPECT_EQ(drive::effectiveSweepThreads(plain, 4), 3u);

    const std::function<void(ObsOptions &)> artifacts[] = {
        [](ObsOptions &o) { o.traceOut = "t.json"; },
        [](ObsOptions &o) { o.statsOut = "s.json"; },
        [](ObsOptions &o) { o.profileOut = "p.json"; },
        [](ObsOptions &o) { o.statsInterval = 100; },
        [](ObsOptions &o) { o.injectSpecs = {"bit_flip@spm"}; },
    };
    for (const auto &set : artifacts) {
        ObsOptions o;
        set(o);
        EXPECT_EQ(drive::effectiveSweepThreads(o, 4), 1u);
        o.sweepThreads = 0;
        EXPECT_EQ(drive::effectiveSweepThreads(o), 1u);
    }
}

/**
 * A per-run artifact blocks the fast path: the point is simulated in
 * full, so the file the user asked for is written.
 */
TEST(Testbench, FastModeFallsBackForPerRunArtifacts)
{
    const std::string stats =
        ::testing::TempDir() + "ut_testbench_fast_stats.json";
    std::remove(stats.c_str());
    ObsOptions options;
    options.simMode = "auto";
    options.statsOut = stats;
    auto kernel = kernels::makeGemm(8, 2);
    drive::BenchRun run = drive::runSalamMode(options, *kernel, "n8u2");
    EXPECT_EQ(run.simMode, "full-fallback");
    EXPECT_NE(run.fallbackReason.find("--stats-out"), std::string::npos)
        << run.fallbackReason;
    std::ifstream is(stats);
    ASSERT_TRUE(is) << stats;
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    EXPECT_TRUE(obs::parseJson(text).isObject());

    // Without the artifact the same point replays, with the same
    // cycle count.
    options.statsOut.clear();
    drive::BenchRun fast =
        drive::runSalamMode(options, *kernel, "n8u2");
    EXPECT_EQ(fast.simMode, "fast");
    EXPECT_EQ(fast.cycles, run.cycles);
}

/**
 * A run that dies through fatal() still lands in the store: the
 * termination hook records the fatal outcome and the stats through
 * recordRun, and flushes before the run unwinds.
 */
TEST(Testbench, FatalRunRecordsItsOutcomeInTheStore)
{
    const std::string store =
        ::testing::TempDir() + "ut_testbench_fatal_store";
    std::filesystem::remove_all(store);
    ObsOptions options;
    options.storeOut = store;
    options.benchName = "unit";
    // A flipped exponent bit in a scratchpad response breaks the
    // golden check.
    options.injectSpecs = {"bit_flip@spm:nth=20:bit=62"};
    auto kernel = kernels::makeGemm(8, 2);

    SimContext ctx;
    ctx.setFatalMode(SimContext::FatalMode::Throw);
    {
        ScopedSimContext bind(ctx);
        try {
            drive::runSalam(options, *kernel);
            ADD_FAILURE() << "the flipped bit passed the golden check";
        } catch (const FatalError &e) {
            EXPECT_EQ(e.outcome(), "fault") << e.what();
        }
    }

    obs::StoreReader reader = obs::StoreReader::load(store);
    ASSERT_TRUE(reader.ok()) << reader.error();
    obs::RecordFilter runs;
    runs.kind = "run";
    std::vector<const obs::LoadedRecord *> records =
        reader.select(runs);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0]->bench, "unit");
    EXPECT_EQ(records[0]->kernel, "gemm");
    EXPECT_EQ(records[0]->outcome, "fault");
    EXPECT_EQ(records[0]->record.stringOr("outcome", ""), "fault");
    ASSERT_TRUE(records[0]->record.has("stats"));
    EXPECT_TRUE(records[0]->record.at("stats").isObject());
    std::filesystem::remove_all(store);
}
