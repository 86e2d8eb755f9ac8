/** @file Trace-reuse fast path: replay fidelity and fallback. */

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <sstream>

#include "core/accel_fixture.hh"
#include "core/dyn_trace.hh"
#include "core/static_cdfg.hh"
#include "drive/trace_replay.hh"
#include "kernels/machsuite.hh"
#include "mem/backdoor.hh"

using namespace salam;

namespace
{

/** One full simulation of a (dev, spm) point; the replay oracle. */
struct FullRun
{
    core::EngineStats stats;
    std::uint64_t spmReads = 0;
    std::uint64_t spmWrites = 0;
};

FullRun
runFull(const kernels::Kernel &kernel, const core::DeviceConfig &dev,
        mem::ScratchpadConfig spm_cfg, core::DynTrace *capture = nullptr)
{
    // Fresh IR per run, like the benches: kernel IR construction is
    // deterministic, so static ids agree across builds.
    ir::Module mod("replay_full");
    ir::IRBuilder b(mod);
    ir::Function *fn = kernel.buildOptimized(b);

    std::uint64_t bytes =
        ((kernel.footprintBytes() + 0xFFF) & ~0xFFFull) + 0x1000;
    spm_cfg.range = mem::AddrRange{test::spmBase,
                                   test::spmBase +
                                       std::max(bytes, test::spmSize)};
    test::AccelSystem sys(*fn, dev, spm_cfg);
    if (capture != nullptr) {
        sys.cu->enableTraceCapture(capture);
        capture->capturedBlockSequential = dev.blockSequentialImport;
    }

    mem::ScratchpadBackdoor backdoor(*sys.spm);
    kernel.seed(backdoor, test::spmBase);
    sys.run(kernel.args(test::spmBase));
    EXPECT_EQ(kernel.check(backdoor, test::spmBase), "")
        << kernel.name();

    FullRun out;
    out.stats = sys.cu->stats();
    out.spmReads = sys.spm->readCount();
    out.spmWrites = sys.spm->writeCount();
    return out;
}

/** A captured kernel: trace, replay IR and shared skeleton. */
struct KernelCapture
{
    std::unique_ptr<kernels::Kernel> kernel;
    core::DynTrace trace;
    std::unique_ptr<ir::Module> mod;
    ir::Function *fn = nullptr;
    drive::ReplayPrep prep;
};

/**
 * Capture @p kernel the way the sweep benches and perfbench do: wide
 * issue ports, SPM ports and memory queues, dedicated FUs, and the
 * replay points' block-sequential import regime.
 */
std::unique_ptr<KernelCapture>
captureKernel(std::unique_ptr<kernels::Kernel> kernel,
              bool block_sequential)
{
    auto c = std::make_unique<KernelCapture>();
    c->kernel = std::move(kernel);
    core::DeviceConfig cap;
    cap.blockSequentialImport = block_sequential;
    cap.readPortsPerCycle = cap.writePortsPerCycle = 64;
    cap.readQueueSize = cap.writeQueueSize = 64;
    mem::ScratchpadConfig scfg = test::AccelSystem::defaultSpm();
    scfg.readPorts = scfg.writePorts = 64;
    runFull(*c->kernel, cap, scfg, &c->trace);

    c->mod = std::make_unique<ir::Module>("replay_ir");
    ir::IRBuilder b(*c->mod);
    c->fn = c->kernel->buildOptimized(b);
    core::StaticCdfg cdfg(*c->fn, cap);
    c->prep = drive::buildReplayPrep(cdfg, c->trace);
    return c;
}

drive::ReplayResult
replayCaptured(const KernelCapture &c, const core::DeviceConfig &dev,
               const mem::ScratchpadConfig &spm_cfg)
{
    core::StaticCdfg cdfg(*c.fn, dev);
    drive::ReplaySpmConfig spm;
    spm.rangeStart = test::spmBase;
    spm.latencyCycles = spm_cfg.latencyCycles;
    spm.readPorts = spm_cfg.readPorts;
    spm.writePorts = spm_cfg.writePorts;
    spm.banks = spm_cfg.banks;
    spm.wordBytes = spm_cfg.wordBytes;
    drive::TraceReplayer replayer(cdfg, dev, c.trace, spm, &c.prep);
    return replayer.run();
}

/** The GEMM capture shared by the fixed-grid tests below. */
const KernelCapture &
captured()
{
    static const std::unique_ptr<KernelCapture> c =
        captureKernel(kernels::makeGemm(8, 2), false);
    return *c;
}

/**
 * Field-by-field: the fast path promises the stats are bit-identical,
 * not merely close, so doubles compare exactly too. Returns the first
 * field where @p fast and @p full differ, as "name: fast=X full=Y",
 * or "" when every field matches.
 */
std::string
firstDifference(const drive::ReplayResult &fast, const FullRun &full)
{
    std::ostringstream os;
    os.precision(17);
#define SALAM_DIFF_FIELD(expr_fast, expr_full, label)                 \
    if ((expr_fast) != (expr_full)) {                                 \
        os << label << ": fast=" << (expr_fast)                       \
           << " full=" << (expr_full);                                \
        return os.str();                                              \
    }
#define SALAM_DIFF_STAT(f) SALAM_DIFF_FIELD(fast.stats.f, full.stats.f, #f)
    SALAM_DIFF_STAT(totalCycles);
    SALAM_DIFF_STAT(newExecCycles);
    SALAM_DIFF_STAT(stallCycles);
    SALAM_DIFF_STAT(stallLoadOnly);
    SALAM_DIFF_STAT(stallStoreOnly);
    SALAM_DIFF_STAT(stallComputeOnly);
    SALAM_DIFF_STAT(stallLoadCompute);
    SALAM_DIFF_STAT(stallStoreCompute);
    SALAM_DIFF_STAT(stallLoadStore);
    SALAM_DIFF_STAT(stallLoadStoreCompute);
    SALAM_DIFF_STAT(stallEmpty);
    SALAM_DIFF_STAT(loadsIssued);
    SALAM_DIFF_STAT(storesIssued);
    SALAM_DIFF_STAT(fpOpsIssued);
    SALAM_DIFF_STAT(intOpsIssued);
    SALAM_DIFF_STAT(otherOpsIssued);
    SALAM_DIFF_STAT(dynamicInstructions);
    SALAM_DIFF_STAT(committedInstructions);
    SALAM_DIFF_STAT(cyclesWithLoadIssue);
    SALAM_DIFF_STAT(cyclesWithStoreIssue);
    SALAM_DIFF_STAT(cyclesWithFpIssue);
    SALAM_DIFF_STAT(cyclesWithLoadAndStoreIssue);
    SALAM_DIFF_STAT(cyclesWithLoadAndFpIssue);
    SALAM_DIFF_STAT(fuEnergyPj);
    SALAM_DIFF_STAT(registerReadEnergyPj);
    SALAM_DIFF_STAT(registerWriteEnergyPj);
    for (std::size_t t = 0; t < hw::numFuTypes; ++t) {
        SALAM_DIFF_FIELD(fast.stats.fuBusyCycleSum[t],
                         full.stats.fuBusyCycleSum[t],
                         "fuBusyCycleSum[" << t << "]");
    }
    SALAM_DIFF_FIELD(fast.spmReads, full.spmReads, "spmReads");
    SALAM_DIFF_FIELD(fast.spmWrites, full.spmWrites, "spmWrites");
#undef SALAM_DIFF_STAT
#undef SALAM_DIFF_FIELD
    return {};
}

/** One replay configuration of the equivalence grid. */
struct PointConfig
{
    const char *name;
    unsigned ports;      // engine issue ports + SPM ports
    unsigned fpLimit;    // 0 = dedicated FUs
    unsigned spmLatency;
    unsigned banks;
};

void
toConfigs(const PointConfig &p, core::DeviceConfig &dev,
          mem::ScratchpadConfig &spm)
{
    dev = core::DeviceConfig{};
    dev.readPortsPerCycle = p.ports;
    dev.writePortsPerCycle = p.ports;
    if (p.fpLimit != 0) {
        dev.setFuLimit(hw::FuType::FpAddSubDouble, p.fpLimit);
        dev.setFuLimit(hw::FuType::FpMultiplierDouble, p.fpLimit);
    }
    spm = test::AccelSystem::defaultSpm();
    spm.readPorts = p.ports;
    spm.writePorts = p.ports;
    spm.latencyCycles = p.spmLatency;
    spm.banks = p.banks;
}

} // namespace

TEST(TraceReplay, PrepBuildsCleanly)
{
    const KernelCapture &c = captured();
    ASSERT_FALSE(c.trace.empty());
    EXPECT_EQ(c.prep.error, "");
}

/**
 * The tentpole guarantee: replaying the captured trace under a
 * different FU/port/latency/bank configuration produces the exact
 * EngineStats a full simulation of that configuration produces.
 */
TEST(TraceReplay, FastMatchesFullAcrossConfigs)
{
    const PointConfig grid[] = {
        {"default", 2, 0, 1, 1},
        {"narrow_ports", 1, 0, 1, 1},
        {"fu_limited", 2, 1, 1, 1},
        {"slow_banked_spm", 4, 2, 4, 2},
    };
    for (const PointConfig &p : grid) {
        SCOPED_TRACE(p.name);
        core::DeviceConfig dev;
        mem::ScratchpadConfig spm;
        toConfigs(p, dev, spm);

        FullRun full = runFull(*captured().kernel, dev, spm);
        drive::ReplayResult fast = replayCaptured(captured(), dev, spm);
        ASSERT_TRUE(fast.ok) << fast.error;
        EXPECT_EQ(firstDifference(fast, full), "");
    }
}

/** The grid must actually exercise different schedules. */
TEST(TraceReplay, ConfigsChangeTheSchedule)
{
    core::DeviceConfig dev;
    mem::ScratchpadConfig spm;
    toConfigs({"narrow", 1, 1, 4, 1}, dev, spm);
    drive::ReplayResult narrow = replayCaptured(captured(), dev, spm);
    ASSERT_TRUE(narrow.ok) << narrow.error;

    toConfigs({"wide", 4, 0, 1, 1}, dev, spm);
    drive::ReplayResult wide = replayCaptured(captured(), dev, spm);
    ASSERT_TRUE(wide.ok) << wide.error;

    EXPECT_LT(wide.stats.totalCycles, narrow.stats.totalCycles);
}

/**
 * Directed fallback: every condition that makes trace reuse unsound
 * must be reported by fastPathBlocker(), and a sound configuration
 * must not be.
 */
TEST(TraceReplay, FallbackBlockers)
{
    core::DeviceConfig dev;

    core::DynTrace empty;
    EXPECT_NE(drive::fastPathBlocker(empty, dev, false), "");

    const KernelCapture &c = captured();
    EXPECT_EQ(drive::fastPathBlocker(c.trace, dev, false), "");

    // Fault injection makes outcomes schedule-dependent.
    EXPECT_NE(drive::fastPathBlocker(c.trace, dev, true), "");

    // Block-sequential import changes the capture regime itself.
    core::DeviceConfig seq = dev;
    seq.blockSequentialImport = !c.trace.capturedBlockSequential;
    EXPECT_NE(drive::fastPathBlocker(c.trace, seq, false), "");

    // A modeled interconnect in the memory path: the replay models
    // a private scratchpad only, so fabric arbitration/credit
    // timing would be silently dropped.
    EXPECT_NE(drive::fastPathBlocker(c.trace, dev, false, true), "");
    EXPECT_EQ(drive::fastPathBlocker(c.trace, dev, false, false), "");
}

/** A trace that does not match the static CDFG is rejected, not
 * replayed wrong. */
TEST(TraceReplay, MismatchedTraceIsRejected)
{
    const KernelCapture &c = captured();
    core::DynTrace corrupt = c.trace;
    corrupt.insts[0].staticId = 0xFFFFFFu;

    core::DeviceConfig dev;
    core::StaticCdfg cdfg(*c.fn, dev);
    drive::ReplayPrep prep = drive::buildReplayPrep(cdfg, corrupt);
    EXPECT_NE(prep.error, "");

    drive::ReplaySpmConfig spm;
    spm.rangeStart = test::spmBase;
    drive::TraceReplayer replayer(cdfg, dev, corrupt, spm);
    drive::ReplayResult res = replayer.run();
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error, "");
}

/** An empty trace cannot be replayed. */
TEST(TraceReplay, EmptyTraceFailsGracefully)
{
    const KernelCapture &c = captured();
    core::DynTrace empty;
    core::DeviceConfig dev;
    core::StaticCdfg cdfg(*c.fn, dev);
    drive::ReplaySpmConfig spm;
    spm.rangeStart = test::spmBase;
    drive::TraceReplayer replayer(cdfg, dev, empty, spm);
    drive::ReplayResult res = replayer.run();
    EXPECT_FALSE(res.ok);
}

namespace
{

/** Every kernels::makeKernel name, plus guarded spmv. */
const char *const gateKernels[] = {
    "bfs-queue", "fft-strided", "gemm",      "md-grid",
    "md-knn",    "nw",          "spmv-crs",  "spmv-guarded",
    "stencil2d", "stencil3d",   "conv2d",    "relu",
    "maxpool",
};

/** @p name at the timed suite's (test_kernels_timed.cc) sizes. */
std::unique_ptr<kernels::Kernel>
makeGateKernel(const std::string &name)
{
    if (name == "gemm")
        return kernels::makeGemm(8, 4);
    if (name == "fft-strided")
        return kernels::makeFft(64);
    if (name == "md-knn")
        return kernels::makeMdKnn(16, 8, 2);
    if (name == "md-grid")
        return kernels::makeMdGrid(2, 3);
    if (name == "nw")
        return kernels::makeNw(16);
    if (name == "stencil2d")
        return kernels::makeStencil2d(12, 12, 2);
    if (name == "stencil3d")
        return kernels::makeStencil3d(4, 6, 6, 2);
    if (name == "bfs-queue")
        return kernels::makeBfs(32, 3);
    if (name == "spmv-crs")
        return kernels::makeSpmv(16, 6);
    if (name == "spmv-guarded")
        return kernels::makeSpmv(16, 6, true, 2);
    return kernels::makeKernel(name);
}

/** One seeded point of the differential gate. */
struct GatePoint
{
    core::DeviceConfig dev;
    mem::ScratchpadConfig spm;
    std::string text;
};

/**
 * Draw a replay configuration: memory queues 2-64, issue and SPM
 * ports 1-8, SPM latency 1-3, banks 1-4, and int/FP FU pools that
 * are dedicated or 1-4 wide.
 */
GatePoint
drawGatePoint(std::mt19937_64 &rng, bool block_sequential)
{
    auto pick = [&rng](std::initializer_list<unsigned> values) {
        return *(values.begin() + rng() % values.size());
    };
    GatePoint p;
    p.dev.blockSequentialImport = block_sequential;
    p.dev.readQueueSize = pick({2, 4, 8, 16, 32, 64});
    p.dev.writeQueueSize = pick({2, 4, 8, 16, 32, 64});
    p.dev.readPortsPerCycle = pick({1, 2, 4, 8});
    p.dev.writePortsPerCycle = pick({1, 2, 4, 8});
    unsigned int_limit = pick({0, 1, 2, 4});
    unsigned fp_limit = pick({0, 1, 2, 4});
    p.dev.setFuLimit(hw::FuType::IntAdder, int_limit);
    p.dev.setFuLimit(hw::FuType::IntMultiplier, int_limit);
    p.dev.setFuLimit(hw::FuType::FpAddSubDouble, fp_limit);
    p.dev.setFuLimit(hw::FuType::FpMultiplierDouble, fp_limit);
    p.dev.setFuLimit(hw::FuType::FpAddSub, fp_limit);
    p.dev.setFuLimit(hw::FuType::FpMultiplier, fp_limit);
    p.spm = test::AccelSystem::defaultSpm();
    p.spm.readPorts = pick({1, 2, 4, 8});
    p.spm.writePorts = pick({1, 2, 4, 8});
    p.spm.latencyCycles = pick({1, 2, 3});
    p.spm.banks = pick({1, 2, 3, 4});

    std::ostringstream os;
    os << "block_seq=" << block_sequential
       << " rq=" << p.dev.readQueueSize
       << " wq=" << p.dev.writeQueueSize
       << " rports=" << p.dev.readPortsPerCycle
       << " wports=" << p.dev.writePortsPerCycle
       << " int_fu=" << int_limit << " fp_fu=" << fp_limit
       << " spm_rports=" << p.spm.readPorts
       << " spm_wports=" << p.spm.writePorts
       << " spm_lat=" << p.spm.latencyCycles
       << " banks=" << p.spm.banks;
    p.text = os.str();
    return p;
}

/** Seeded points per kernel and import regime. */
constexpr unsigned gatePointsPerRegime = 8;

} // namespace

class ReplayIdentityGate : public ::testing::TestWithParam<const char *>
{};

/**
 * Differential gate: for each kernel and both import regimes, replay
 * the capture at seeded random configurations and require the full
 * simulation's exact EngineStats and SPM access counts.
 */
TEST_P(ReplayIdentityGate, FastMatchesFullAtSeededConfigs)
{
    const std::string name = GetParam();
    for (bool block_sequential : {false, true}) {
        auto c = captureKernel(makeGateKernel(name), block_sequential);
        ASSERT_EQ(c->prep.error, "") << name;
        // Per-kernel seed (FNV-1a of the name): adding a kernel
        // leaves the others' points unchanged.
        std::uint64_t seed = 0xcbf29ce484222325ull;
        for (char ch : name)
            seed = (seed ^ static_cast<unsigned char>(ch)) *
                0x100000001b3ull;
        if (block_sequential)
            seed ^= 0x5eedull;
        std::mt19937_64 rng(seed);
        for (unsigned i = 0; i < gatePointsPerRegime; ++i) {
            GatePoint p = drawGatePoint(rng, block_sequential);
            FullRun full = runFull(*c->kernel, p.dev, p.spm);
            drive::ReplayResult fast = replayCaptured(*c, p.dev, p.spm);
            ASSERT_TRUE(fast.ok) << name << " seed=" << seed
                                 << " point=" << i << " " << p.text
                                 << ": " << fast.error;
            std::string diff = firstDifference(fast, full);
            EXPECT_EQ(diff, "") << "kernel=" << name << " seed=" << seed
                                << " point=" << i << " " << p.text;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, ReplayIdentityGate, ::testing::ValuesIn(gateKernels),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        for (auto &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name;
    });

/**
 * Directed: with a full reservation window, the branch still holds
 * its slot while it imports its successor block, so the import waits
 * one more cycle. Replaying md-knn at deep memory queues, a slow
 * two-bank SPM and 8 ports reaches exactly that state.
 */
TEST(TraceReplay, BranchHoldsItsSlotDuringImportMdKnn)
{
    auto c = captureKernel(kernels::makeMdKnn(), false);
    ASSERT_EQ(c->prep.error, "");
    core::DeviceConfig dev;
    dev.readQueueSize = dev.writeQueueSize = 64;
    dev.readPortsPerCycle = dev.writePortsPerCycle = 8;
    mem::ScratchpadConfig spm = test::AccelSystem::defaultSpm();
    spm.readPorts = spm.writePorts = 8;
    spm.latencyCycles = 3;
    spm.banks = 2;
    FullRun full = runFull(*c->kernel, dev, spm);
    drive::ReplayResult fast = replayCaptured(*c, dev, spm);
    ASSERT_TRUE(fast.ok) << fast.error;
    EXPECT_EQ(firstDifference(fast, full), "");
}

/** Directed: the same capacity rule on stencil3d at 16-deep queues. */
TEST(TraceReplay, BranchHoldsItsSlotDuringImportStencil3d)
{
    auto c = captureKernel(kernels::makeStencil3d(), false);
    ASSERT_EQ(c->prep.error, "");
    core::DeviceConfig dev;
    dev.readQueueSize = dev.writeQueueSize = 16;
    dev.readPortsPerCycle = dev.writePortsPerCycle = 8;
    mem::ScratchpadConfig spm = test::AccelSystem::defaultSpm();
    spm.readPorts = spm.writePorts = 8;
    spm.latencyCycles = 3;
    spm.banks = 1;
    FullRun full = runFull(*c->kernel, dev, spm);
    drive::ReplayResult fast = replayCaptured(*c, dev, spm);
    ASSERT_TRUE(fast.ok) << fast.error;
    EXPECT_EQ(firstDifference(fast, full), "");
}
