/** @file Trace-reuse fast path: replay fidelity and fallback. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <sstream>

#include "core/dyn_trace.hh"
#include "core/static_cdfg.hh"
#include "drive/testbench.hh"
#include "drive/trace_replay.hh"
#include "ir/interpreter.hh"
#include "kernels/machsuite.hh"

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
        mem::ScratchpadConfig spm_cfg)
{
    // Fresh IR per run, like the benches: kernel IR construction is
    // deterministic, so static ids agree across builds.
    ir::Module mod("replay_full");
    ir::IRBuilder b(mod);
    ir::Function *fn = kernel.buildOptimized(b);

    spm_cfg.range.end = std::max(
        spm_cfg.range.end, drive::Testbench::kernelSpm(kernel, {}).range.end);
    drive::Testbench tb(*fn, dev, spm_cfg);
    EXPECT_EQ(tb.runKernel(kernel), "") << kernel.name();
    return {tb.cu->stats(), tb.spm->readCount(), tb.spm->writeCount()};
}

/** A captured kernel: trace, replay IR and validated prep. */
struct KernelCapture : drive::TraceCache::Entry
{
    std::unique_ptr<kernels::Kernel> kernel;
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
    core::DeviceConfig dev;
    dev.blockSequentialImport = block_sequential;
    drive::TraceCache::Entry entry = drive::captureTraceEntry(*kernel, dev);
    return std::make_unique<KernelCapture>(
        KernelCapture{std::move(entry), std::move(kernel)});
}

drive::ReplayResult
replayCaptured(const KernelCapture &c, const core::DeviceConfig &dev,
               const mem::ScratchpadConfig &spm_cfg)
{
    core::StaticCdfg cdfg(*c.fn, dev);
    return drive::TraceReplayer(cdfg, dev, c.trace,
                                drive::replaySpmConfig(spm_cfg),
                                c.prep.get())
        .run();
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
    spm = drive::Testbench::defaultSpm();
    spm.readPorts = p.ports;
    spm.writePorts = p.ports;
    spm.latencyCycles = p.spmLatency;
    spm.banks = p.banks;
}

/**
 * The static instruction id of each record of @p trace, read as
 * buildReplayPrep reads the trace: whole-block imports from the entry
 * block, each branch word naming the next block. @p trace must have
 * passed buildReplayPrep.
 */
std::vector<unsigned>
staticIdsOf(const core::StaticCdfg &cdfg, const core::DynTrace &trace)
{
    std::vector<unsigned> ids;
    unsigned block = cdfg.blockInfo(cdfg.function().entry()).id;
    while (ids.size() < trace.insts.size()) {
        const core::StaticBlockInfo &binfo = cdfg.blockInfoById(block);
        for (unsigned i = 0; i < binfo.numInsts; ++i)
            ids.push_back(binfo.firstInstId + i);
        block = static_cast<unsigned>(trace.insts.at(ids.size() - 1).word);
    }
    return ids;
}

} // namespace

TEST(TraceReplay, PrepBuildsCleanly)
{
    const KernelCapture &c = captured();
    ASSERT_FALSE(c.trace.empty());
    EXPECT_EQ(c.prep->error, "");
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

/**
 * A trace whose length does not match the IR's block chain is
 * rejected, not replayed wrong: a record dropped mid-trace shifts
 * every later word off its instance, and a record appended runs past
 * the final ret.
 */
TEST(TraceReplay, MismatchedTraceIsRejected)
{
    const KernelCapture &c = captured();
    core::DynTrace dropped = c.trace;
    dropped.insts.erase(dropped.insts.begin() +
                        static_cast<std::ptrdiff_t>(
                            dropped.insts.size() / 2));
    core::DynTrace appended = c.trace;
    appended.insts.emplace_back();

    core::DeviceConfig dev;
    core::StaticCdfg cdfg(*c.fn, dev);
    drive::ReplaySpmConfig spm;
    spm.rangeStart = drive::Testbench::spmBase;
    for (const core::DynTrace *corrupt : {&dropped, &appended}) {
        SCOPED_TRACE(corrupt == &dropped ? "dropped" : "appended");
        drive::ReplayPrep prep = drive::buildReplayPrep(cdfg, *corrupt);
        EXPECT_NE(prep.error, "");

        drive::TraceReplayer replayer(cdfg, dev, *corrupt, spm);
        drive::ReplayResult res = replayer.run();
        EXPECT_FALSE(res.ok);
        EXPECT_NE(res.error, "");
    }
}

/** An empty trace cannot be replayed. */
TEST(TraceReplay, EmptyTraceFailsGracefully)
{
    const KernelCapture &c = captured();
    core::DynTrace empty;
    core::DeviceConfig dev;
    core::StaticCdfg cdfg(*c.fn, dev);
    drive::ReplaySpmConfig spm;
    spm.rangeStart = drive::Testbench::spmBase;
    drive::TraceReplayer replayer(cdfg, dev, empty, spm);
    drive::ReplayResult res = replayer.run();
    EXPECT_FALSE(res.ok);
}

/**
 * The replay refuses the scratchpad configs the Scratchpad
 * constructor refuses, instead of dividing by zero or never
 * returning.
 */
TEST(TraceReplay, UnservableSpmConfigsAreRejected)
{
    const KernelCapture &c = captured();
    core::DeviceConfig dev;
    core::StaticCdfg cdfg(*c.fn, dev);
    struct Bad
    {
        const char *field;
        void (*spoil)(drive::ReplaySpmConfig &);
        const char *message;
    };
    const Bad bad[] = {
        {"banks", [](drive::ReplaySpmConfig &s) { s.banks = 0; },
         "at least one bank"},
        {"wordBytes",
         [](drive::ReplaySpmConfig &s) { s.wordBytes = 0; },
         "at least one byte"},
        {"readPorts",
         [](drive::ReplaySpmConfig &s) { s.readPorts = 0; },
         "at least one port"},
        {"writePorts",
         [](drive::ReplaySpmConfig &s) { s.writePorts = 0; },
         "at least one port"},
    };
    for (const Bad &b : bad) {
        SCOPED_TRACE(b.field);
        drive::ReplaySpmConfig spm;
        spm.rangeStart = drive::Testbench::spmBase;
        b.spoil(spm);
        drive::TraceReplayer replayer(cdfg, dev, c.trace, spm);
        drive::ReplayResult res = replayer.run();
        EXPECT_FALSE(res.ok);
        EXPECT_NE(res.error.find(b.message), std::string::npos)
            << res.error;
    }
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
 * ports 1-8, SPM latency 1-3, banks 1-4, int/FP FU pools that are
 * dedicated or 1-4 wide, and a 75-500 MHz clock.
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
    p.spm = drive::Testbench::defaultSpm();
    p.spm.readPorts = pick({1, 2, 4, 8});
    p.spm.writePorts = pick({1, 2, 4, 8});
    p.spm.latencyCycles = pick({1, 2, 3});
    p.spm.banks = pick({1, 2, 3, 4});
    // Drawn last: a new axis leaves the earlier axes' draws as
    // they were.
    unsigned mhz = pick({75, 100, 200, 333, 500});
    p.dev.clockPeriod = periodFromMhz(mhz);

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
       << " banks=" << p.spm.banks << " clock_mhz=" << mhz;
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
        ASSERT_EQ(c->prep->error, "") << name;
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
 * The capture's words themselves, not only the schedules replayed
 * from them: for every gate kernel, the load and store words in seq
 * order are the interpreter's access addresses in execution order,
 * and the branch words are the interpreter's block sequence. A wrong
 * address that kept every bank and overlap outcome would pass the
 * identity gate, but not this.
 */
TEST(TraceReplay, CaptureWordsMatchTheInterpreter)
{
    for (const char *name : gateKernels) {
        SCOPED_TRACE(name);
        auto c = captureKernel(makeGateKernel(name), false);
        ASSERT_EQ(c->prep->error, "");
        core::DeviceConfig dev;
        core::StaticCdfg cdfg(*c->fn, dev);

        std::vector<std::uint64_t> addrs;
        std::vector<unsigned> blocks;
        ir::FlatMemory mem;
        c->kernel->seed(mem, drive::Testbench::spmBase);
        ir::Interpreter interp(mem);
        interp.setObserver([&](const ir::ExecRecord &rec) {
            if (rec.inst->opcode() == ir::Opcode::Load ||
                rec.inst->opcode() == ir::Opcode::Store)
                addrs.push_back(rec.memAddr);
            if (rec.inst == rec.block->instruction(0))
                blocks.push_back(cdfg.blockInfo(rec.block).id);
        });
        interp.run(*c->fn, c->kernel->args(drive::Testbench::spmBase));

        std::vector<std::uint64_t> trace_addrs;
        std::vector<unsigned> trace_blocks{
            cdfg.blockInfo(c->fn->entry()).id};
        const std::vector<unsigned> ids = staticIdsOf(cdfg, c->trace);
        for (std::size_t seq = 0; seq < ids.size(); ++seq) {
            ir::Opcode op = cdfg.infoById(ids[seq]).inst->opcode();
            std::uint64_t word = c->trace.insts[seq].word;
            if (op == ir::Opcode::Load || op == ir::Opcode::Store)
                trace_addrs.push_back(word);
            else if (op == ir::Opcode::Br)
                trace_blocks.push_back(static_cast<unsigned>(word));
        }

        ASSERT_FALSE(addrs.empty());
        EXPECT_EQ(trace_addrs.size(), addrs.size());
        auto access = std::mismatch(trace_addrs.begin(),
                                    trace_addrs.end(), addrs.begin(),
                                    addrs.end());
        EXPECT_TRUE(access.first == trace_addrs.end())
            << "first differing access: #"
            << access.first - trace_addrs.begin();
        EXPECT_EQ(trace_blocks.size(), blocks.size());
        auto block = std::mismatch(trace_blocks.begin(),
                                   trace_blocks.end(), blocks.begin(),
                                   blocks.end());
        EXPECT_TRUE(block.first == trace_blocks.end())
            << "first differing block import: #"
            << block.first - trace_blocks.begin();
    }
}

/**
 * Directed: with a full reservation window, the branch still holds
 * its slot while it imports its successor block, so the import waits
 * one more cycle. Replaying md-knn at deep memory queues, a slow
 * two-bank SPM and 8 ports reaches exactly that state.
 */
TEST(TraceReplay, BranchHoldsItsSlotDuringImportMdKnn)
{
    auto c = captureKernel(kernels::makeMdKnn(), false);
    ASSERT_EQ(c->prep->error, "");
    core::DeviceConfig dev;
    dev.readQueueSize = dev.writeQueueSize = 64;
    dev.readPortsPerCycle = dev.writePortsPerCycle = 8;
    mem::ScratchpadConfig spm = drive::Testbench::defaultSpm();
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
    ASSERT_EQ(c->prep->error, "");
    core::DeviceConfig dev;
    dev.readQueueSize = dev.writeQueueSize = 16;
    dev.readPortsPerCycle = dev.writePortsPerCycle = 8;
    mem::ScratchpadConfig spm = drive::Testbench::defaultSpm();
    spm.readPorts = spm.writePorts = 8;
    spm.latencyCycles = 3;
    spm.banks = 1;
    FullRun full = runFull(*c->kernel, dev, spm);
    drive::ReplayResult fast = replayCaptured(*c, dev, spm);
    ASSERT_TRUE(fast.ok) << fast.error;
    EXPECT_EQ(firstDifference(fast, full), "");
}

/**
 * The engine imports whichever block a branch record names, so a
 * record naming the other successor must be refused up front, not
 * replayed as a different schedule. Flips the 10th conditional
 * branch of the GEMM capture.
 */
TEST(TraceReplay, BranchTargetMustNameTheNextBlock)
{
    const KernelCapture &c = captured();
    core::DeviceConfig dev;
    core::StaticCdfg cdfg(*c.fn, dev);
    core::DynTrace flipped = c.trace;
    const std::vector<unsigned> ids = staticIdsOf(cdfg, c.trace);
    unsigned conditional = 0;
    bool done = false;
    for (std::size_t seq = 0; seq < ids.size(); ++seq) {
        const auto *br = dynamic_cast<const ir::BranchInst *>(
            cdfg.infoById(ids[seq]).inst);
        if (br == nullptr || !br->isConditional() || ++conditional < 10)
            continue;
        unsigned if_true = cdfg.blockInfo(br->ifTrue()).id;
        unsigned if_false = cdfg.blockInfo(br->ifFalse()).id;
        ASSERT_NE(if_true, if_false);
        std::uint64_t &word = flipped.insts[seq].word;
        word = word == if_true ? if_false : if_true;
        done = true;
        break;
    }
    ASSERT_TRUE(done) << "the capture has fewer than 10 conditional "
                         "branches";

    EXPECT_NE(drive::buildReplayPrep(cdfg, flipped).error, "");
    drive::ReplaySpmConfig spm;
    spm.rangeStart = drive::Testbench::spmBase;
    drive::ReplayResult res =
        drive::TraceReplayer(cdfg, dev, flipped, spm).run();
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error, "");
}

/**
 * Every GEMM unroll variant shares block layout and opcodes at the
 * front, so only the IR identity stamped at capture tells a GEMM
 * n8/u2 trace from GEMM n16/u2's IR.
 */
TEST(TraceReplay, TraceOfAnotherKernelVariantIsRejected)
{
    const KernelCapture &c = captured();
    ASSERT_NE(c.trace.irHash, 0u);
    ir::Module mod("other_variant");
    ir::IRBuilder b(mod);
    ir::Function *fn = kernels::makeGemm(16, 2)->buildOptimized(b);
    core::DeviceConfig dev;
    core::StaticCdfg cdfg(*fn, dev);

    drive::ReplayPrep prep = drive::buildReplayPrep(cdfg, c.trace);
    EXPECT_NE(prep.error.find("IR hash"), std::string::npos)
        << prep.error;
    drive::ReplaySpmConfig spm;
    spm.rangeStart = drive::Testbench::spmBase;
    drive::ReplayResult res =
        drive::TraceReplayer(cdfg, dev, c.trace, spm).run();
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error, "");
}

/**
 * Configs a full simulation refuses (it fatal()s) are errors, not
 * hangs: an empty read queue, no write port, and a reservation queue
 * smaller than a block the trace imports.
 */
TEST(TraceReplay, InvalidDeviceConfigsAreRejected)
{
    const KernelCapture &c = captured();
    struct Bad
    {
        const char *field;
        void (*spoil)(core::DeviceConfig &);
    };
    const Bad bad[] = {
        {"readQueueSize",
         [](core::DeviceConfig &d) { d.readQueueSize = 0; }},
        {"writePortsPerCycle",
         [](core::DeviceConfig &d) { d.writePortsPerCycle = 0; }},
        {"reservationQueueSize",
         [](core::DeviceConfig &d) { d.reservationQueueSize = 4; }},
    };
    for (const Bad &b : bad) {
        SCOPED_TRACE(b.field);
        core::DeviceConfig dev;
        b.spoil(dev);
        mem::ScratchpadConfig spm = drive::Testbench::defaultSpm();
        drive::ReplayResult res = replayCaptured(c, dev, spm);
        EXPECT_FALSE(res.ok);
        EXPECT_NE(res.error, "");
    }
}
