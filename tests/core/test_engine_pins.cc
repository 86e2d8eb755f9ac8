/**
 * @file
 * Engine identity pins for the memory paths the trace replay cannot
 * reach: a cache-backed accelerator, GEMM behind the crossbar and
 * behind a narrow 1-credit AXI-like bus. The expected numbers were
 * recorded from the polling reservation-window scan the event-driven
 * issue logic replaced; any scheduling change shows up here as a
 * changed cycle, stall or issue count. The profiler test proves that
 * attaching a profiler leaves every EngineStats field unchanged.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/accel_fixture.hh"
#include "kernels/machsuite.hh"
#include "mem/backdoor.hh"
#include "mem/cache.hh"
#include "mem/interconnect.hh"
#include "mem/simple_dram.hh"
#include "obs/critical_path.hh"
#include "obs/host_telemetry.hh"

using namespace salam;
using namespace salam::core;
using namespace salam::mem;

namespace
{

/** Cycle, stall and issue counters in one comparable line. */
std::string
scheduleSummary(const EngineStats &s)
{
    std::ostringstream os;
    os << "cycles=" << s.totalCycles << " exec=" << s.newExecCycles
       << " stall=" << s.stallCycles << " lanes=" << s.stallLoadOnly
       << "," << s.stallStoreOnly << "," << s.stallComputeOnly << ","
       << s.stallLoadCompute << "," << s.stallStoreCompute << ","
       << s.stallLoadStore << "," << s.stallLoadStoreCompute << ","
       << s.stallEmpty << " issue=" << s.loadsIssued << ","
       << s.storesIssued << "," << s.fpOpsIssued << ","
       << s.intOpsIssued << "," << s.otherOpsIssued
       << " dyn=" << s.dynamicInstructions;
    return os.str();
}

/** GEMM through accelerator -> L1 cache -> DRAM. */
EngineStats
runCachedGemm()
{
    auto kernel = kernels::makeGemm(8, 2);
    ir::Module mod("m");
    ir::IRBuilder b(mod);
    ir::Function *fn = kernel->buildOptimized(b);

    Simulation sim;
    DeviceConfig dev;
    DramConfig dcfg;
    dcfg.range = AddrRange{0, 1 << 20};
    dcfg.accessLatency = 40'000;
    auto &dram = sim.create<SimpleDram>("dram", 1000, dcfg);
    auto &cache = sim.create<Cache>("l1", dev.clockPeriod, CacheConfig{});
    bindPorts(cache.memSide(), dram.port());

    CommInterfaceConfig icfg;
    icfg.mmrRange = AddrRange{0x8000'0000, 0x8000'0000 + 256};
    icfg.dataPorts.push_back({"cache", {dcfg.range}});
    auto &comm = sim.create<CommInterface>("comm", dev.clockPeriod, icfg);
    bindPorts(comm.dataPort(0), cache.cpuSide());
    auto &cu = sim.create<ComputeUnit>("acc", *fn, dev, comm);

    constexpr std::uint64_t base = 0x1000;
    DramBackdoor backdoor(dram);
    kernel->seed(backdoor, base);
    cu.start(kernel->args(base));
    sim.run();
    // The write-back cache still holds the results, so DRAM is not
    // golden-checked here; the schedule is what this pins.
    EXPECT_TRUE(cu.finished());
    return cu.stats();
}

/** GEMM with its SPM behind a modeled fabric. */
EngineStats
runFabricGemm(const InterconnectConfig &ic)
{
    auto kernel = kernels::makeGemm(8, 2);
    ir::Module mod("m");
    ir::IRBuilder b(mod);
    ir::Function *fn = kernel->buildOptimized(b);

    Simulation sim;
    DeviceConfig dev;
    dev.readPortsPerCycle = dev.writePortsPerCycle = 4;
    ScratchpadConfig scfg = test::AccelSystem::defaultSpm();
    auto &spm = sim.create<Scratchpad>("spm", dev.clockPeriod, scfg);
    CommInterfaceConfig ccfg;
    ccfg.mmrRange = AddrRange{test::mmrBase, test::mmrBase + 256};
    ccfg.dataPorts.push_back({"spm", {scfg.range}});
    auto &comm = sim.create<CommInterface>("comm", dev.clockPeriod, ccfg);
    Interconnect &fabric =
        makeInterconnect(sim, "fabric", dev.clockPeriod, ic);
    fabric.connectDevice(spm.port(0), scfg.range);
    bindPorts(comm.dataPort(0), fabric.addRequester("acc.data"));
    auto &cu = sim.create<ComputeUnit>("acc", *fn, dev, comm);

    ScratchpadBackdoor backdoor(spm);
    kernel->seed(backdoor, test::spmBase);
    cu.start(kernel->args(test::spmBase));
    sim.run();
    EXPECT_TRUE(cu.finished());
    EXPECT_EQ(kernel->check(backdoor, test::spmBase), "");
    return cu.stats();
}

/**
 * Run @p kernel on the SPM fixture, optionally profiled; with
 * @p causes, also return the critical path's per-cause cycles.
 */
EngineStats
runProfiled(const kernels::Kernel &kernel, bool profile,
            std::string *causes = nullptr)
{
    ir::Module mod("m");
    ir::IRBuilder b(mod);
    ir::Function *fn = kernel.buildOptimized(b);
    DeviceConfig dev;
    dev.setFuLimit(hw::FuType::FpAddSubDouble, 1);
    dev.setFuLimit(hw::FuType::IntAdder, 2);
    ScratchpadConfig scfg = test::AccelSystem::defaultSpm();
    scfg.readPorts = 1;
    scfg.latencyCycles = 2;
    test::AccelSystem sys(*fn, dev, scfg);
    if (profile)
        sys.sim.enableProfiling();
    ScratchpadBackdoor backdoor(*sys.spm);
    kernel.seed(backdoor, test::spmBase);
    sys.run(kernel.args(test::spmBase));
    EXPECT_EQ(kernel.check(backdoor, test::spmBase), "");
    if (causes != nullptr) {
        sys.sim.finalizeAll();
        obs::CriticalPathReport report = obs::analyzeCriticalPath(
            *sys.sim.profilers().front().second);
        std::ostringstream os;
        for (std::uint64_t cycles : report.causeCycles)
            os << cycles << ",";
        *causes = os.str();
    }
    return sys.cu->stats();
}

} // namespace

TEST(EnginePins, CacheBackedGemm)
{
    EXPECT_EQ(scheduleSummary(runCachedGemm()),
              "cycles=1364 exec=1239 stall=125 lanes=0,0,118,1,5,0,0,1 "
              "issue=1024,64,1024,3664,986 dyn=6762");
}

TEST(EnginePins, GemmBehindCrossbar)
{
    InterconnectConfig ic;
    ic.kind = InterconnectKind::Crossbar;
    EXPECT_EQ(scheduleSummary(runFabricGemm(ic)),
              "cycles=1363 exec=1203 stall=160 lanes=0,2,114,24,19,0,0,1 "
              "issue=1024,64,1024,3664,986 dyn=6762");
}

TEST(EnginePins, GemmBehindNarrowOneCreditBus)
{
    InterconnectConfig ic;
    ic.kind = InterconnectKind::AxiBus;
    ic.busWidthBytes = 4;
    ic.maxOutstandingPerRequester = 1;
    EXPECT_EQ(scheduleSummary(runFabricGemm(ic)),
              "cycles=3273 exec=1863 stall=1410 "
              "lanes=0,2,2,70,2,58,1275,1 issue=1024,64,1024,3664,986 "
              "dyn=6762");
}

/**
 * A profiler visits more of the window each cycle to attribute wait
 * causes; it must not change a single simulated statistic.
 */
TEST(EnginePins, ProfilerLeavesStatsUnchanged)
{
    for (auto make : {+[] { return kernels::makeGemm(8, 4); },
                      +[] { return kernels::makeBfs(32, 3); },
                      +[] { return kernels::makeSpmv(16, 6, true, 2); },
                      +[] { return kernels::makeMdKnn(16, 8, 2); }}) {
        auto kernel = make();
        SCOPED_TRACE(kernel->name());
        EngineStats plain = runProfiled(*kernel, false);
        EngineStats profiled = runProfiled(*kernel, true);
        EXPECT_EQ(scheduleSummary(profiled), scheduleSummary(plain));
        for (std::size_t t = 0; t < hw::numFuTypes; ++t) {
            EXPECT_EQ(profiled.fuBusyCycleSum[t], plain.fuBusyCycleSum[t])
                << "fuBusyCycleSum[" << t << "]";
        }
        EXPECT_EQ(profiled.cyclesWithLoadIssue, plain.cyclesWithLoadIssue);
        EXPECT_EQ(profiled.cyclesWithStoreIssue,
                  plain.cyclesWithStoreIssue);
        EXPECT_EQ(profiled.cyclesWithFpIssue, plain.cyclesWithFpIssue);
        EXPECT_EQ(profiled.cyclesWithLoadAndStoreIssue,
                  plain.cyclesWithLoadAndStoreIssue);
        EXPECT_EQ(profiled.cyclesWithLoadAndFpIssue,
                  plain.cyclesWithLoadAndFpIssue);
        EXPECT_EQ(profiled.committedInstructions,
                  plain.committedInstructions);
        EXPECT_EQ(profiled.fuEnergyPj, plain.fuEnergyPj);
        EXPECT_EQ(profiled.registerReadEnergyPj,
                  plain.registerReadEnergyPj);
        EXPECT_EQ(profiled.registerWriteEnergyPj,
                  plain.registerWriteEnergyPj);
    }
}

/**
 * Wait causes come from visits a profiler forces the issue scan to
 * make (closed classes, gated FU hand-offs); pin the attribution.
 */
TEST(EnginePins, ProfiledGemmCauses)
{
    std::string causes;
    runProfiled(*kernels::makeGemm(8, 4), true, &causes);
    EXPECT_EQ(causes, "0,270,0,1143,0,0,412,4,0,0,0,0,0,0,");
}

/**
 * DynInst arena hits and misses are host telemetry: every dynamic
 * instance is one arena request, noted into the bound context's
 * HostTelemetry when the kernel finishes.
 */
TEST(EngineHostCounters, ArenaRequestsReachHostTelemetry)
{
    obs::HostTelemetry telemetry;
    SimContext ctx;
    ctx.setHostTelemetry(&telemetry);
    ScopedSimContext bind(ctx);
    EngineStats stats = runProfiled(*kernels::makeGemm(8, 4), false);
    EXPECT_GT(telemetry.arenaHits(), 0u);
    EXPECT_GT(telemetry.arenaMisses(), 0u);
    EXPECT_EQ(telemetry.arenaHits() + telemetry.arenaMisses(),
              stats.dynamicInstructions);
}
