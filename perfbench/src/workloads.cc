/**
 * @file
 * The four benchmark workloads.
 *
 *  - gemm-full: full event-driven simulation of GEMM n16/u16 over
 *    seeded fig13-style datapath and scratchpad points.
 *  - irregular-full: full simulation of small-window, data-dependent
 *    kernels (bfs-queue, spmv-crs-guarded dataset 2, fft-strided).
 *  - sweep-fast: trace-reuse replay of GEMM n32/u32 and md-knn, one
 *    capture per kernel in set-up, result store on.
 *  - cnn-system: the fig16 conv -> ReLU -> max-pool pipeline in all
 *    three integrations, built through SalamSystem and
 *    AcceleratorCluster over seeded fabric settings.
 *
 * Every call into a layer is wrapped in a Scope, so the traced run
 * can attribute host time to the layer that spent it.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/compute_unit.hh"
#include "core/dma.hh"
#include "core/dyn_trace.hh"
#include "core/power_report.hh"
#include "core/static_cdfg.hh"
#include "drive/trace_replay.hh"
#include "kernels/machsuite.hh"
#include "mem/axi_bus.hh"
#include "mem/backdoor.hh"
#include "mem/crossbar.hh"
#include "mem/scratchpad.hh"
#include "obs/result_store.hh"
#include "obs/run_report.hh"
#include "sim/simulation.hh"
#include "sys/system.hh"
#include "workload.hh"

namespace perfbench
{

namespace
{

using namespace salam;

// ---------------------------------------------------------------
// Seeded sampling
// ---------------------------------------------------------------

std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t x = a ^ (b + 0x9E3779B97F4A7C15ull + (a << 6) + (a >> 2));
    x ^= x >> 31;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 29;
    return x;
}

/**
 * Value of axis @p axis at point @p index. Within each block of
 * values.size() consecutive points every value appears exactly once,
 * in an order drawn from (seed, axis, block). Every run therefore
 * simulates the same mix of configurations whatever its seed or
 * length, which keeps throughput comparable across seeds.
 */
unsigned
pick(std::uint64_t seed, unsigned axis, std::size_t index,
     const std::vector<unsigned> &values)
{
    const std::size_t n = values.size();
    std::vector<unsigned> order(values);
    kernels::Lcg rng(mix(mix(seed, axis), index / n));
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBelow(i)]);
    return order[index % n];
}

constexpr unsigned unlimited = 0;

// ---------------------------------------------------------------
// Host-phase deltas from the simulator's own telemetry
// ---------------------------------------------------------------

/** Phase time the simulator's HostTelemetry accrued over one call. */
class PhaseDelta
{
  public:
    explicit PhaseDelta(const obs::HostTelemetry *tel)
        : tel(tel), before(snapshot())
    {}

    /** Attach the accrued time as children of span @p span. */
    void
    attach(Tracer &tracer, int span) const
    {
        if (tel == nullptr)
            return;
        auto after = snapshot();
        auto d = [&](obs::HostPhase p) {
            auto i = static_cast<unsigned>(p);
            return after[i] - before[i];
        };
        std::uint64_t other = 0;
        for (obs::HostPhase p :
             {obs::HostPhase::Elaboration, obs::HostPhase::StatsEmit,
              obs::HostPhase::ReportIo, obs::HostPhase::Other})
            other += d(p);
        tracer.addPhases(
            span, {{"core.engine", d(obs::HostPhase::EngineSchedule)},
                   {"mem.model", d(obs::HostPhase::MemoryModel)},
                   {"sim.event_loop", d(obs::HostPhase::EventLoop)},
                   {"sim.other", other}});
    }

  private:
    std::array<std::uint64_t, obs::numHostPhases>
    snapshot() const
    {
        std::array<std::uint64_t, obs::numHostPhases> s{};
        if (tel != nullptr) {
            for (unsigned i = 0; i < obs::numHostPhases; ++i)
                s[i] = tel->phases()[i].selfNanos;
        }
        return s;
    }

    const obs::HostTelemetry *tel;
    std::array<std::uint64_t, obs::numHostPhases> before;
};

/**
 * DynInst arena counters, while EngineStats still carries them (they
 * are host allocation telemetry, not simulated statistics).
 */
template <typename Stats>
void
addArenaCounts(PointCounts &c, const Stats &s)
{
    if constexpr (requires { s.arenaHits + s.arenaMisses; }) {
        c.arenaHits += s.arenaHits;
        c.arenaMisses += s.arenaMisses;
    }
}

void
addEngineCounts(PointCounts &c, const core::EngineStats &s)
{
    c.dynInsts += s.dynamicInstructions;
    c.simCycles += s.totalCycles;
    c.stallCycles += s.stallCycles;
    c.stallMemCycles += s.stallsInvolvingMemory();
    addArenaCounts(c, s);
}

// ---------------------------------------------------------------
// Single-accelerator testbench (kernel + private SPM + interface)
// ---------------------------------------------------------------

struct AccelConfig
{
    core::DeviceConfig dev;
    unsigned spmReadPorts = 2;
    unsigned spmWritePorts = 2;
    unsigned spmLatency = 1;
    unsigned spmBanks = 1;

    std::string
    describe(const std::string &kernel) const
    {
        char buf[256];
        std::snprintf(
            buf, sizeof(buf),
            "kernel=%s dev_ports=%u/%u queues=%u/%u fu_int_add=%u "
            "fu_fp_add=%u fu_fp_mul=%u spm_ports=%u/%u spm_latency=%u "
            "spm_banks=%u",
            kernel.c_str(), dev.readPortsPerCycle, dev.writePortsPerCycle,
            dev.readQueueSize, dev.writeQueueSize,
            dev.fuLimit(hw::FuType::IntAdder),
            dev.fuLimit(hw::FuType::FpAddSubDouble),
            dev.fuLimit(hw::FuType::FpMultiplierDouble), spmReadPorts,
            spmWritePorts, spmLatency, spmBanks);
        return buf;
    }
};

constexpr std::uint64_t spmBase = 0x10000;

std::uint64_t
spmBytes(const kernels::Kernel &kernel)
{
    return ((kernel.footprintBytes() + 0xFFF) & ~0xFFFull) + 0x1000;
}

struct FullRun
{
    PointRecord rec;
    core::EngineStats stats;
    std::uint64_t spmReads = 0;
    std::uint64_t spmWrites = 0;
};

/**
 * One full event-driven simulation of @p kernel, golden-checked.
 * With @p capture, also records the dynamic trace.
 */
FullRun
runFull(const kernels::Kernel &kernel, const AccelConfig &cfg,
        RunContext &ctx, long point, core::DynTrace *capture = nullptr)
{
    Tracer &tr = ctx.tracer;
    FullRun out;
    PointRecord &rec = out.rec;

    auto mod = std::make_unique<ir::Module>("perfbench");
    ir::IRBuilder builder(*mod);
    ir::Function *fn = nullptr;
    {
        Scope s(tr, "ir.build", point);
        fn = kernel.build(builder);
    }
    {
        Scope s(tr, "opt.passes", point);
        opt::PassManager::run(*fn, kernel.defaultPasses());
    }
    rec.counts.staticInsts = fn->instructionCount();

    std::unique_ptr<Simulation> sim;
    mem::Scratchpad *spm = nullptr;
    core::CommInterface *comm = nullptr;
    {
        Scope s(tr, "sim.elaborate", point);
        sim = std::make_unique<Simulation>();
        mem::ScratchpadConfig scfg;
        scfg.range = mem::AddrRange{spmBase, spmBase + spmBytes(kernel)};
        scfg.latencyCycles = cfg.spmLatency;
        scfg.readPorts = cfg.spmReadPorts;
        scfg.writePorts = cfg.spmWritePorts;
        scfg.banks = cfg.spmBanks;
        spm = &sim->create<mem::Scratchpad>("spm", cfg.dev.clockPeriod,
                                            scfg);
        core::CommInterfaceConfig ccfg;
        ccfg.mmrRange = mem::AddrRange{0x2000, 0x2000 + 256};
        ccfg.dataPorts.push_back({"spm", {scfg.range}});
        comm = &sim->create<core::CommInterface>(
            "comm", cfg.dev.clockPeriod, ccfg);
        mem::bindPorts(comm->dataPort(0), spm->port(0));
    }
    core::ComputeUnit *cu = nullptr;
    {
        Scope s(tr, "core.elaborate", point);
        cu = &sim->create<core::ComputeUnit>("acc", *fn, cfg.dev, *comm);
    }
    if (capture != nullptr)
        cu->enableTraceCapture(capture);
    mem::ScratchpadBackdoor backdoor(*spm);
    {
        Scope s(tr, "kernels.seed", point);
        kernel.seed(backdoor, spmBase);
    }
    {
        PhaseDelta phases(ctx.telemetry);
        Scope s(tr, "sim.run", point);
        std::uint64_t t0 = nowNs();
        cu->start(kernel.args(spmBase));
        sim->run();
        rec.simulateSec = secondsSince(t0);
        s.end();
        phases.attach(tr, s.spanId());
    }
    if (!cu->finished())
        rec.fail("event queue drained with the kernel unfinished");
    {
        Scope s(tr, "core.report", point);
        core::AcceleratorReport report = core::buildReport(*cu, spm);
        sim->finalizeAll();
        std::string dump = sim->stats().dumpJsonString();
        if (report.cycles != cu->cycleCount() || dump.empty())
            rec.fail("report disagrees with the compute unit");
    }
    if (ctx.corruptNextOutput) {
        // Overwrite the whole footprint with 1.0 doubles. Checks that
        // recompute the reference from the inputs in memory still
        // fail: every output of a sum or product over 1.0s is not 1.0.
        ctx.corruptNextOutput = false;
        std::vector<double> junk(kernel.footprintBytes() / 8, 1.0);
        backdoor.writeBytes(spmBase, junk.size() * 8, junk.data());
    }
    {
        Scope s(tr, "kernels.check", point);
        std::string why = kernel.check(backdoor, spmBase);
        if (!why.empty())
            rec.fail("golden check: " + why);
    }

    out.stats = cu->stats();
    out.spmReads = spm->readCount();
    out.spmWrites = spm->writeCount();
    addEngineCounts(rec.counts, out.stats);
    rec.counts.spmAccesses = out.spmReads + out.spmWrites;
    rec.counts.events = sim->eventQueue().numServiced();
    rec.simTicks = sim->curTick();
    {
        Scope s(tr, "sim.teardown", point);
        sim.reset();
        mod.reset();
    }
    return out;
}

/**
 * gemm-full point: the fig13 axes scaled to GEMM n16/u16, whose
 * inner loop issues 16 multiply-adds per iteration.
 */
AccelConfig
sampleGemm(std::uint64_t seed, std::size_t i)
{
    AccelConfig c;
    unsigned fu = pick(seed, 1, i, {2, 4, 8, 16});
    c.dev.setFuLimit(hw::FuType::FpAddSubDouble, fu);
    c.dev.setFuLimit(hw::FuType::FpMultiplierDouble, fu);
    unsigned ports = pick(seed, 2, i, {2, 4, 8});
    c.dev.readPortsPerCycle = c.dev.writePortsPerCycle = ports;
    c.spmReadPorts = c.spmWritePorts = ports;
    unsigned queue = pick(seed, 3, i, {16, 32, 64});
    c.dev.readQueueSize = c.dev.writeQueueSize = queue;
    c.spmLatency = pick(seed, 4, i, {1, 2, 3});
    c.spmBanks = pick(seed, 5, i, {1, 2, 4});
    return c;
}

/**
 * sweep-fast point: the fig13 axes for GEMM n32/u32 and md-knn. Queue
 * depth 64 is left out: there, with SPM latency 3 and 2 banks, md-knn
 * replays one newExecCycles away from full simulation (ports 8 and
 * 16, every FU limit), so those points would fail the fast-vs-full
 * cross-check.
 */
AccelConfig
sampleReplay(std::uint64_t seed, std::size_t i)
{
    AccelConfig c;
    unsigned fu = pick(seed, 1, i, {8, 16, 32, 64});
    c.dev.setFuLimit(hw::FuType::FpAddSubDouble, fu);
    c.dev.setFuLimit(hw::FuType::FpMultiplierDouble, fu);
    unsigned ports = pick(seed, 2, i, {4, 8, 16});
    c.dev.readPortsPerCycle = c.dev.writePortsPerCycle = ports;
    c.spmReadPorts = c.spmWritePorts = ports;
    unsigned queue = pick(seed, 3, i, {16, 32});
    c.dev.readQueueSize = c.dev.writeQueueSize = queue;
    c.spmLatency = pick(seed, 4, i, {1, 2, 3});
    c.spmBanks = pick(seed, 5, i, {1, 2, 4});
    return c;
}

/** Small-window point for the data-dependent kernels. */
AccelConfig
sampleNarrow(std::uint64_t seed, std::size_t i)
{
    AccelConfig c;
    unsigned ports = pick(seed, 1, i, {1, 2, 4});
    c.dev.readPortsPerCycle = c.dev.writePortsPerCycle = ports;
    c.spmReadPorts = c.spmWritePorts = ports;
    unsigned queue = pick(seed, 2, i, {2, 4, 8, 16});
    c.dev.readQueueSize = c.dev.writeQueueSize = queue;
    c.dev.setFuLimit(hw::FuType::IntAdder,
                     pick(seed, 3, i, {unlimited, 2, 4}));
    unsigned fp = pick(seed, 4, i, {unlimited, 2, 4});
    c.dev.setFuLimit(hw::FuType::FpAddSubDouble, fp);
    c.dev.setFuLimit(hw::FuType::FpMultiplierDouble, fp);
    c.spmLatency = pick(seed, 5, i, {1, 2, 3});
    c.spmBanks = pick(seed, 6, i, {1, 2, 4});
    return c;
}

using KernelFactory = std::function<std::unique_ptr<kernels::Kernel>()>;
using Sampler = AccelConfig (*)(std::uint64_t, std::size_t);

constexpr unsigned kernelAxis = 0;

// ---------------------------------------------------------------
// gemm-full, irregular-full
// ---------------------------------------------------------------

class FullSimWorkload : public Workload
{
  public:
    FullSimWorkload(std::uint64_t seed, std::vector<KernelFactory> factories,
                    Sampler sampler, std::size_t batch, unsigned passes)
        : seed(seed), factories(std::move(factories)), sampler(sampler),
          batch(batch), passCount(passes)
    {}

    void
    setup(RunContext &ctx) override
    {
        kernelSet.clear();
        for (const KernelFactory &make : factories)
            kernelSet.push_back(make());
        // One warm-up point per kernel at the default configuration:
        // allocator pools and lazily built tables fill before timing.
        for (const auto &kernel : kernelSet) {
            FullRun warm = runFull(*kernel, AccelConfig{}, ctx, -1);
            if (!warm.rec.ok)
                throw std::runtime_error("warm-up " + kernel->name() +
                                         ": " + warm.rec.error);
        }
    }

    PointRecord
    runPoint(std::size_t index, RunContext &ctx) override
    {
        return runFull(kernelAt(index), sampler(seed, index), ctx,
                       static_cast<long>(index))
            .rec;
    }

    std::string
    describe(std::size_t index) const override
    {
        return sampler(seed, index).describe(kernelAt(index).name());
    }

    std::size_t batchSize() const override { return batch; }

    unsigned passes() const override { return passCount; }

  private:
    const kernels::Kernel &
    kernelAt(std::size_t index) const
    {
        std::vector<unsigned> ids(kernelSet.size());
        std::iota(ids.begin(), ids.end(), 0u);
        return *kernelSet[pick(seed, kernelAxis, index, ids)];
    }

    std::uint64_t seed;
    std::vector<KernelFactory> factories;
    Sampler sampler;
    std::size_t batch;
    unsigned passCount;
    std::vector<std::unique_ptr<kernels::Kernel>> kernelSet;
};

// ---------------------------------------------------------------
// sweep-fast
// ---------------------------------------------------------------

/** One kernel's captured trace, replay IR and shared skeleton. */
struct Capture
{
    std::unique_ptr<kernels::Kernel> kernel;
    core::DynTrace trace;
    std::unique_ptr<ir::Module> module;
    const ir::Function *fn = nullptr;
    std::unique_ptr<const drive::ReplayPrep> prep;
};

/** EngineStats fields a replay must reproduce bit for bit. */
std::string
statsMismatch(const core::EngineStats &a, const core::EngineStats &b)
{
#define PERFBENCH_CMP(field)                                              \
    if (!(a.field == b.field))                                            \
        return #field;
    PERFBENCH_CMP(totalCycles)
    PERFBENCH_CMP(newExecCycles)
    PERFBENCH_CMP(stallCycles)
    PERFBENCH_CMP(stallLoadOnly)
    PERFBENCH_CMP(stallStoreOnly)
    PERFBENCH_CMP(stallComputeOnly)
    PERFBENCH_CMP(stallLoadCompute)
    PERFBENCH_CMP(stallStoreCompute)
    PERFBENCH_CMP(stallLoadStore)
    PERFBENCH_CMP(stallLoadStoreCompute)
    PERFBENCH_CMP(stallEmpty)
    PERFBENCH_CMP(loadsIssued)
    PERFBENCH_CMP(storesIssued)
    PERFBENCH_CMP(fpOpsIssued)
    PERFBENCH_CMP(intOpsIssued)
    PERFBENCH_CMP(otherOpsIssued)
    PERFBENCH_CMP(dynamicInstructions)
    PERFBENCH_CMP(committedInstructions)
    PERFBENCH_CMP(cyclesWithLoadIssue)
    PERFBENCH_CMP(cyclesWithStoreIssue)
    PERFBENCH_CMP(cyclesWithFpIssue)
    PERFBENCH_CMP(cyclesWithLoadAndStoreIssue)
    PERFBENCH_CMP(cyclesWithLoadAndFpIssue)
    PERFBENCH_CMP(fuBusyCycleSum)
    PERFBENCH_CMP(fuEnergyPj)
    PERFBENCH_CMP(registerReadEnergyPj)
    PERFBENCH_CMP(registerWriteEnergyPj)
#undef PERFBENCH_CMP
    return "";
}

class SweepFastWorkload : public Workload
{
  public:
    SweepFastWorkload(std::uint64_t seed, std::string work_dir)
        : seed(seed), storeDir(std::move(work_dir) + "/sweep-fast-store")
    {}

    ~SweepFastWorkload() override
    {
        resultStore.reset();
        std::error_code ec;
        std::filesystem::remove_all(storeDir, ec);
    }

    void
    setup(RunContext &ctx) override
    {
        resultStore.reset();
        std::error_code ec;
        std::filesystem::remove_all(storeDir, ec);
        std::string error;
        resultStore = obs::ResultStore::open(storeDir, &error);
        if (!resultStore)
            throw std::runtime_error("result store: " + error);

        captures.clear();
        captures.push_back(capture(kernels::makeGemm(32, 32), ctx));
        captures.push_back(capture(kernels::makeMdKnn(), ctx));
    }

    PointRecord
    runPoint(std::size_t index, RunContext &ctx) override
    {
        return replay(index, ctx, nullptr);
    }

    std::vector<PointRecord>
    verify(std::size_t done, RunContext &ctx,
           std::size_t &checked) override
    {
        // A seeded subset of up to four of the points this run did.
        std::vector<std::size_t> chosen;
        kernels::Lcg rng(mix(seed, 0xF00D));
        for (std::size_t k = 0; k < 4 * done && chosen.size() < 4; ++k) {
            std::size_t i = rng.nextBelow(done);
            if (std::find(chosen.begin(), chosen.end(), i) == chosen.end())
                chosen.push_back(i);
        }
        std::vector<PointRecord> failures;
        for (std::size_t i : chosen) {
            core::EngineStats fast;
            std::uint64_t reads = 0, writes = 0;
            PointRecord rec = replay(i, ctx, &fast, &reads, &writes);
            if (ctx.perturbNextReplay) {
                ctx.perturbNextReplay = false;
                fast.totalCycles += 1;
            }
            const Capture &cap = captureAt(i);
            FullRun full = runFull(*cap.kernel, sampleReplay(seed, i), ctx,
                                   -1);
            std::string field = statsMismatch(fast, full.stats);
            if (reads != full.spmReads)
                field += " spm_reads";
            if (writes != full.spmWrites)
                field += " spm_writes";
            if (!full.rec.ok)
                rec.fail("full simulation: " + full.rec.error);
            if (!field.empty())
                rec.fail("fast != full in " + field);
            if (!rec.ok) {
                rec.index = i;
                failures.push_back(rec);
            }
        }
        checked = chosen.size();
        return failures;
    }

    std::string
    describe(std::size_t index) const override
    {
        return sampleReplay(seed, index)
            .describe(captureAt(index).kernel->name() + " (replay)");
    }

    std::size_t batchSize() const override { return 8; }

    unsigned passes() const override { return 5; }

    obs::ResultStore *store() override { return resultStore.get(); }

    std::uint64_t
    storeBytes() const override
    {
        std::uint64_t bytes = 0;
        std::error_code ec;
        for (const auto &entry :
             std::filesystem::recursive_directory_iterator(storeDir, ec)) {
            if (entry.is_regular_file(ec))
                bytes += entry.file_size(ec);
        }
        return bytes;
    }

    std::uint64_t
    traceBytes() const override
    {
        std::uint64_t bytes = 0;
        for (const Capture &c : captures)
            bytes += c.trace.insts.size() * sizeof(core::DynTraceInst);
        return bytes;
    }

  private:
    Capture
    capture(std::unique_ptr<kernels::Kernel> kernel, RunContext &ctx)
    {
        Capture c;
        c.kernel = std::move(kernel);
        // The cheapest sound capture: dedicated FUs and wide memory
        // minimise its cycle count; the import regime matches the
        // replays (dynamic import, the default).
        AccelConfig cap;
        cap.dev.readPortsPerCycle = cap.dev.writePortsPerCycle = 64;
        cap.dev.readQueueSize = cap.dev.writeQueueSize = 64;
        cap.spmReadPorts = cap.spmWritePorts = 64;
        {
            Scope s(ctx.tracer, "drive.capture", -1);
            FullRun run = runFull(*c.kernel, cap, ctx, -1, &c.trace);
            if (!run.rec.ok)
                throw std::runtime_error("capture " + c.kernel->name() +
                                         ": " + run.rec.error);
            c.trace.capturedBlockSequential =
                cap.dev.blockSequentialImport;
            c.module = std::make_unique<ir::Module>("perfbench-replay");
            ir::IRBuilder builder(*c.module);
            c.fn = c.kernel->buildOptimized(builder);
        }
        {
            Scope s(ctx.tracer, "drive.replay_prep", -1);
            core::StaticCdfg cdfg(*c.fn, cap.dev);
            c.prep = std::make_unique<const drive::ReplayPrep>(
                drive::buildReplayPrep(cdfg, c.trace));
        }
        if (!c.prep->error.empty())
            throw std::runtime_error("replay prep " + c.kernel->name() +
                                     ": " + c.prep->error);
        return c;
    }

    const Capture &
    captureAt(std::size_t index) const
    {
        // Two GEMM points per md-knn point: the median and p90 then
        // fall inside the GEMM cluster, not between the two kernels.
        return captures[pick(seed, kernelAxis, index, {0, 0, 1})];
    }

    PointRecord
    replay(std::size_t index, RunContext &ctx, core::EngineStats *stats,
           std::uint64_t *reads = nullptr, std::uint64_t *writes = nullptr)
    {
        const long point = stats == nullptr ? static_cast<long>(index) : -1;
        Tracer &tr = ctx.tracer;
        const Capture &cap = captureAt(index);
        const AccelConfig cfg = sampleReplay(seed, index);
        PointRecord rec;

        std::string blocker =
            drive::fastPathBlocker(cap.trace, cfg.dev, false, false);
        if (!blocker.empty()) {
            // Counted against drive.fast_ratio; the sampler should
            // never get here.
            FullRun full = runFull(*cap.kernel, cfg, ctx, point);
            if (stats != nullptr)
                *stats = full.stats;
            return full.rec;
        }

        std::unique_ptr<core::StaticCdfg> cdfg;
        {
            Scope s(tr, "core.elaborate", point);
            cdfg = std::make_unique<core::StaticCdfg>(*cap.fn, cfg.dev);
        }
        drive::ReplaySpmConfig spm;
        spm.rangeStart = spmBase;
        spm.latencyCycles = cfg.spmLatency;
        spm.readPorts = cfg.spmReadPorts;
        spm.writePorts = cfg.spmWritePorts;
        spm.banks = cfg.spmBanks;
        spm.wordBytes = mem::ScratchpadConfig{}.wordBytes;
        drive::ReplayResult res;
        {
            Scope s(tr, "drive.replay", point);
            std::uint64_t t0 = nowNs();
            drive::TraceReplayer replayer(*cdfg, cfg.dev, cap.trace, spm,
                                          cap.prep.get());
            res = replayer.run();
            rec.simulateSec = secondsSince(t0);
        }
        rec.replayed = true;
        if (!res.ok)
            rec.fail("replay: " + res.error);
        else if (res.stats.dynamicInstructions != cap.trace.insts.size())
            rec.fail("replay retired a different instruction count "
                     "than the capture");
        {
            Scope s(tr, "core.report", point);
            core::SpmUsage usage;
            usage.sizeBytes = spmBytes(*cap.kernel);
            usage.wordBytes = spm.wordBytes;
            usage.readPorts = spm.readPorts;
            usage.writePorts = spm.writePorts;
            usage.banks = spm.banks;
            usage.reads = res.spmReads;
            usage.writes = res.spmWrites;
            core::AcceleratorReport report =
                core::buildReport(*cdfg, cfg.dev, res.stats, &usage);
            if (report.cycles != res.stats.totalCycles)
                rec.fail("report disagrees with the replay");
        }
        if (stats == nullptr) {
            Scope s(tr, "obs.store_append", point);
            obs::RunReport report;
            report.run = cap.kernel->name();
            report.cycles = res.stats.totalCycles;
            report.simSeconds = rec.simulateSec;
            report.extra = {
                {"spm_reads", static_cast<double>(res.spmReads)},
                {"spm_writes", static_cast<double>(res.spmWrites)},
                {"stall_cycles",
                 static_cast<double>(res.stats.stallCycles)},
                {"dynamic_insts",
                 static_cast<double>(res.stats.dynamicInstructions)},
                {"fast_path", 1.0},
            };
            resultStore->appendRunReport(report, "perfbench-sweep-fast");
            if (!resultStore->flush())
                rec.fail("result store flush failed");
        }

        addEngineCounts(rec.counts, res.stats);
        rec.counts.spmAccesses = res.spmReads + res.spmWrites;
        rec.simTicks = res.stats.totalCycles * cfg.dev.clockPeriod;
        if (stats != nullptr) {
            *stats = res.stats;
            *reads = res.spmReads;
            *writes = res.spmWrites;
        }
        return rec;
    }

    std::uint64_t seed;
    std::string storeDir;
    std::unique_ptr<obs::ResultStore> resultStore;
    std::vector<Capture> captures;
};

// ---------------------------------------------------------------
// cnn-system
// ---------------------------------------------------------------

constexpr unsigned imgW = 32, imgH = 32;
constexpr unsigned convW = imgW - 2, convH = imgH - 2;
constexpr unsigned poolW = convW / 2, poolH = convH / 2;
constexpr std::uint64_t imageBytes = 4ull * imgW * imgH;
constexpr std::uint64_t weightBytes = 4ull * 9;
constexpr std::uint64_t convOutBytes = 4ull * convW * convH;
constexpr std::uint64_t poolOutBytes = 4ull * poolW * poolH;

enum class Integration : unsigned
{
    PrivateSpm,
    SharedSpm,
    Stream,
};

const char *
integrationName(Integration i)
{
    switch (i) {
    case Integration::PrivateSpm:
        return "private-spm+dma";
    case Integration::SharedSpm:
        return "shared-spm";
    case Integration::Stream:
        return "stream-buffers";
    }
    return "?";
}

struct CnnConfig
{
    Integration integration = Integration::PrivateSpm;
    mem::InterconnectConfig fabric;
    unsigned dmaBurstBytes = 16;

    std::string
    describe() const
    {
        char buf[200];
        std::snprintf(
            buf, sizeof(buf),
            "integration=%s fabric=%s bus_width=%u credits=%s "
            "dma_burst=%u",
            integrationName(integration),
            fabric.kind == mem::InterconnectKind::AxiBus ? "axi" : "xbar",
            fabric.busWidthBytes,
            fabric.maxOutstandingPerRequester == mem::unlimitedCredits
                ? "unlimited"
                : std::to_string(fabric.maxOutstandingPerRequester).c_str(),
            dmaBurstBytes);
        return buf;
    }
};

std::uint64_t
fabricRetries(mem::Interconnect &ic)
{
    if (auto *xbar = dynamic_cast<mem::Crossbar *>(&ic))
        return xbar->creditStallCount();
    if (auto *bus = dynamic_cast<mem::AxiLikeBus *>(&ic))
        return bus->creditStallCount() + bus->arbitrationStallCount();
    return 0;
}

class CnnSystemWorkload : public Workload
{
  public:
    explicit CnnSystemWorkload(std::uint64_t seed) : seed(seed) {}

    void
    setup(RunContext &ctx) override
    {
        kernels::Lcg rng(2020);
        image.assign(imgW * imgH + 9, 0.0f);
        for (float &v : image)
            v = static_cast<float>(rng.nextDouble()) - 0.5f;
        expected = golden(image);
        PointRecord warm = run(CnnConfig{}, ctx, -1);
        if (!warm.ok)
            throw std::runtime_error("warm-up: " + warm.error);
    }

    PointRecord
    runPoint(std::size_t index, RunContext &ctx) override
    {
        return run(sample(index), ctx, static_cast<long>(index));
    }

    std::string
    describe(std::size_t index) const override
    {
        return sample(index).describe();
    }

    std::size_t batchSize() const override { return 3; }

    unsigned passes() const override { return 3; }

  private:
    CnnConfig
    sample(std::size_t i) const
    {
        CnnConfig c;
        c.integration =
            static_cast<Integration>(pick(seed, kernelAxis, i, {0, 1, 2}));
        c.fabric.kind = pick(seed, 1, i, {0, 1}) == 0
                            ? mem::InterconnectKind::Crossbar
                            : mem::InterconnectKind::AxiBus;
        c.fabric.busWidthBytes = pick(seed, 2, i, {8, 16, 32, 64});
        c.fabric.maxOutstandingPerRequester =
            pick(seed, 3, i, {1, 2, 4, mem::unlimitedCredits});
        c.dmaBurstBytes = pick(seed, 4, i, {16, 32, 64});
        return c;
    }

    /** Host-side reference: conv3x3 -> ReLU -> maxpool2x2. */
    static std::vector<float>
    golden(const std::vector<float> &img)
    {
        const float *w = img.data() + imgW * imgH;
        std::vector<float> conv(convW * convH);
        for (unsigned r = 0; r < convH; ++r) {
            for (unsigned c = 0; c < convW; ++c) {
                float acc = 0.0f;
                for (unsigned k1 = 0; k1 < 3; ++k1)
                    for (unsigned k2 = 0; k2 < 3; ++k2)
                        acc += w[k1 * 3 + k2] *
                               img[(r + k1) * imgW + c + k2];
                conv[r * convW + c] = std::max(acc, 0.0f);
            }
        }
        std::vector<float> pool(poolW * poolH);
        for (unsigned r = 0; r < poolH; ++r) {
            for (unsigned c = 0; c < poolW; ++c) {
                pool[r * poolW + c] =
                    std::max({conv[(2 * r) * convW + 2 * c],
                              conv[(2 * r) * convW + 2 * c + 1],
                              conv[(2 * r + 1) * convW + 2 * c],
                              conv[(2 * r + 1) * convW + 2 * c + 1]});
            }
        }
        return pool;
    }

    PointRecord
    run(const CnnConfig &cfg, RunContext &ctx, long point)
    {
        using namespace salam::sys;
        Tracer &tr = ctx.tracer;
        PointRecord rec;
        const bool stream = cfg.integration == Integration::Stream;

        // Stage IR: the stream variant replaces array indexing on the
        // FIFO side with a fixed port address.
        std::vector<std::unique_ptr<kernels::Kernel>> stages;
        stages.push_back(kernels::makeConv2d(imgW, imgH, stream));
        stages.push_back(kernels::makeRelu(convW * convH, stream, stream));
        stages.push_back(
            kernels::makeMaxPool(convW, convH, stream, false));
        auto mod = std::make_unique<ir::Module>("perfbench-cnn");
        ir::IRBuilder builder(*mod);
        std::vector<ir::Function *> fns;
        for (const auto &k : stages) {
            ir::Function *fn = nullptr;
            {
                Scope s(tr, "ir.build", point);
                fn = k->build(builder);
            }
            {
                Scope s(tr, "opt.passes", point);
                opt::PassManager::run(*fn, k->defaultPasses());
            }
            rec.counts.staticInsts += fn->instructionCount();
            fns.push_back(fn);
        }

        std::unique_ptr<Simulation> sim;
        std::unique_ptr<SalamSystem> sys;
        AcceleratorCluster *cluster = nullptr;
        std::vector<mem::Scratchpad *> spms;
        mem::StreamBuffer *fifo1 = nullptr;
        mem::StreamBuffer *fifo2 = nullptr;
        core::Dma *dma = nullptr;
        unsigned dmaIrq = 0;
        mem::ScratchpadConfig proto;
        proto.readPorts = 4;
        proto.writePorts = 4;
        proto.numPorts = 2;
        {
            Scope s(tr, "sys.elaborate", point);
            sim = std::make_unique<Simulation>();
            sys = std::make_unique<SalamSystem>(*sim);
            cluster = &sys->addCluster("c0", periodFromMhz(100), 0,
                                       cfg.fabric);
            switch (cfg.integration) {
            case Integration::PrivateSpm:
                for (const char *name : {"conv_spm", "relu_spm", "pool_spm"})
                    spms.push_back(
                        &cluster->addSpm(name, 16 * 1024, proto));
                for (mem::Scratchpad *spm : spms)
                    cluster->localXbar().connectDevice(
                        spm->port(1), spm->config().range);
                break;
            case Integration::SharedSpm: {
                mem::ScratchpadConfig shared = proto;
                shared.numPorts = 4;
                shared.readPorts = 6;
                shared.writePorts = 6;
                spms.push_back(
                    &cluster->addSpm("shared", 64 * 1024, shared, false));
                cluster->localXbar().connectDevice(
                    spms[0]->port(3), spms[0]->config().range);
                break;
            }
            case Integration::Stream:
                for (const char *name : {"conv_spm", "pool_spm"})
                    spms.push_back(
                        &cluster->addSpm(name, 16 * 1024, proto));
                for (mem::Scratchpad *spm : spms)
                    cluster->localXbar().connectDevice(
                        spm->port(1), spm->config().range);
                fifo1 = &cluster->addStreamBuffer("fifo1", 64);
                fifo2 = &cluster->addStreamBuffer("fifo2", 64);
                break;
            }
            core::DmaConfig dma_proto;
            dma_proto.burstBytes = cfg.dmaBurstBytes;
            dma_proto.maxOutstanding = 2;
            dma = &cluster->addDma("dma", dma_proto);
            dmaIrq = sys->allocateIrq();
            dma->setIrqCallback(sys->gic().lineCallback(dmaIrq));
        }

        using PortSpecs = std::vector<AcceleratorCluster::DataPortSpec>;
        std::vector<PortSpecs> ports(3);
        switch (cfg.integration) {
        case Integration::PrivateSpm:
            for (unsigned i = 0; i < 3; ++i)
                ports[i] = {{"spm", {spms[i]->config().range}, false}};
            break;
        case Integration::SharedSpm:
            for (unsigned i = 0; i < 3; ++i)
                ports[i] = {{"mem", {spms[0]->config().range}, false}};
            break;
        case Integration::Stream:
            ports[0] = {{"spm", {spms[0]->config().range}, false},
                        {"stream", {fifo1->config().writeRange}, false}};
            ports[1] = {
                {"stream_in", {fifo1->config().readRange}, false},
                {"stream_out", {fifo2->config().writeRange}, false}};
            ports[2] = {{"stream_in", {fifo2->config().readRange}, false},
                        {"spm", {spms[1]->config().range}, false}};
            break;
        }
        std::vector<ClusterAccelerator *> acc;
        {
            Scope s(tr, "core.elaborate", point);
            const char *names[3] = {"conv", "relu", "pool"};
            for (unsigned i = 0; i < 3; ++i)
                acc.push_back(&cluster->addAccelerator(names[i], *fns[i],
                                                       {}, ports[i]));
        }

        const std::uint64_t dramIn = SystemAddressMap::dramBase + 0x10000;
        const std::uint64_t dramOut = SystemAddressMap::dramBase + 0x40000;
        {
            Scope s(tr, "sys.elaborate", point);
            auto bind = [&](unsigned a, unsigned port,
                            mem::ResponsePort &to) {
                mem::bindPorts(acc[a]->comm->dataPort(port), to);
            };
            switch (cfg.integration) {
            case Integration::PrivateSpm:
                for (unsigned i = 0; i < 3; ++i)
                    bind(i, 0, spms[i]->port(0));
                break;
            case Integration::SharedSpm:
                for (unsigned i = 0; i < 3; ++i)
                    bind(i, 0, spms[0]->port(i));
                break;
            case Integration::Stream:
                bind(0, 0, spms[0]->port(0));
                bind(0, 1, fifo1->writePort());
                bind(1, 0, fifo1->readPort());
                bind(1, 1, fifo2->writePort());
                bind(2, 0, fifo2->readPort());
                bind(2, 1, spms[1]->port(0));
                break;
            }
            programHost(cfg.integration, *sys, spms, fifo1, fifo2, *dma,
                        dmaIrq, acc, dramIn, dramOut);
        }
        {
            PhaseDelta phases(ctx.telemetry);
            Scope s(tr, "sys.run", point);
            std::uint64_t t0 = nowNs();
            sys->run();
            rec.simulateSec = secondsSince(t0);
            s.end();
            phases.attach(tr, s.spanId());
        }
        {
            Scope s(tr, "core.report", point);
            for (ClusterAccelerator *a : acc) {
                core::AcceleratorReport report = core::buildReport(*a->cu);
                if (report.cycles != a->cu->cycleCount())
                    rec.fail("report disagrees with the compute unit");
            }
            sim->finalizeAll();
            if (sim->stats().dumpJsonString().empty())
                rec.fail("empty statistics dump");
        }
        {
            Scope s(tr, "kernels.check", point);
            std::vector<float> want = expected;
            if (ctx.corruptNextOutput) {
                ctx.corruptNextOutput = false;
                want[0] += 1.0f;
            }
            for (std::size_t i = 0; i < want.size(); ++i) {
                float got = 0.0f;
                sys->dram().backdoorRead(dramOut + 4ull * i, &got, 4);
                if (!(std::abs(got - want[i]) <= 1e-4f)) {
                    rec.fail("golden check: output " + std::to_string(i) +
                             " is " + std::to_string(got) + ", expected " +
                             std::to_string(want[i]));
                    break;
                }
            }
        }

        for (ClusterAccelerator *a : acc) {
            if (!a->cu->finished())
                rec.fail(std::string("accelerator ") + a->cu->name() +
                         " did not finish");
            addEngineCounts(rec.counts, a->cu->stats());
        }
        for (mem::Scratchpad *spm : spms)
            rec.counts.spmAccesses += spm->readCount() + spm->writeCount();
        rec.counts.events = sim->eventQueue().numServiced();
        rec.counts.dramBytes = sys->dram().bytesTransferred();
        rec.counts.dmaBytes = dma->bytesMoved();
        rec.counts.fabricRetries = fabricRetries(cluster->localXbar()) +
                                   fabricRetries(sys->globalXbar());
        rec.counts.hostOps = sys->host().opsCompleted();
        rec.simTicks = sim->curTick();
        {
            Scope s(tr, "sim.teardown", point);
            sys.reset();
            sim.reset();
            mod.reset();
        }
        return rec;
    }

    /** The driver program: stage data, start and sequence stages. */
    void
    programHost(Integration integration, sys::SalamSystem &sys,
                const std::vector<mem::Scratchpad *> &spms,
                mem::StreamBuffer *fifo1, mem::StreamBuffer *fifo2,
                core::Dma &dma, unsigned dma_irq,
                const std::vector<sys::ClusterAccelerator *> &acc,
                std::uint64_t dram_in, std::uint64_t dram_out) const
    {
        using namespace salam::sys;
        sys.dram().backdoorWrite(dram_in, image.data(), image.size() * 4);
        DriverCpu &host = sys.host();
        const std::uint64_t dma_mmr = dma.config().mmrRange.start;
        auto copy = [&](std::uint64_t src, std::uint64_t dst,
                        std::uint64_t bytes) {
            driver::pushDmaTransfer(host, dma_mmr, src, dst, bytes);
            host.push(HostOp::waitIrq(dma_irq));
        };
        auto start = [&](const ClusterAccelerator &a,
                         const std::vector<std::uint64_t> &args,
                         bool wait) {
            driver::pushAcceleratorStart(host, a, args);
            if (wait)
                host.push(HostOp::waitIrq(a.irqId));
        };
        host.push(HostOp::mark("begin"));
        switch (integration) {
        case Integration::PrivateSpm: {
            std::uint64_t conv_in = spms[0]->config().range.start;
            std::uint64_t conv_wts = conv_in + imageBytes;
            std::uint64_t conv_out = conv_wts + 0x100;
            std::uint64_t relu_in = spms[1]->config().range.start;
            std::uint64_t relu_out = relu_in + convOutBytes;
            std::uint64_t pool_in = spms[2]->config().range.start;
            std::uint64_t pool_rowbuf = pool_in + convOutBytes;
            std::uint64_t pool_out = pool_rowbuf + 0x200;
            copy(dram_in, conv_in, imageBytes + weightBytes);
            start(*acc[0], {conv_in, conv_wts, conv_out}, true);
            copy(conv_out, relu_in, convOutBytes);
            start(*acc[1], {relu_in, relu_out}, true);
            copy(relu_out, pool_in, convOutBytes);
            start(*acc[2], {pool_in, pool_rowbuf, pool_out}, true);
            copy(pool_out, dram_out, poolOutBytes);
            break;
        }
        case Integration::SharedSpm: {
            std::uint64_t in = spms[0]->config().range.start;
            std::uint64_t wts = in + imageBytes;
            std::uint64_t conv_out = wts + 0x100;
            std::uint64_t relu_out = conv_out + convOutBytes;
            std::uint64_t rowbuf = relu_out + convOutBytes;
            std::uint64_t pool_out = rowbuf + 0x200;
            copy(dram_in, in, imageBytes + weightBytes);
            start(*acc[0], {in, wts, conv_out}, true);
            start(*acc[1], {conv_out, relu_out}, true);
            start(*acc[2], {relu_out, rowbuf, pool_out}, true);
            copy(pool_out, dram_out, poolOutBytes);
            break;
        }
        case Integration::Stream: {
            std::uint64_t conv_in = spms[0]->config().range.start;
            std::uint64_t conv_wts = conv_in + imageBytes;
            std::uint64_t rowbuf = spms[1]->config().range.start;
            std::uint64_t pool_out = rowbuf + 0x200;
            copy(dram_in, conv_in, imageBytes + weightBytes);
            // All three stages start at once; the FIFOs synchronise.
            start(*acc[2],
                  {fifo2->config().readRange.start, rowbuf, pool_out},
                  false);
            start(*acc[1],
                  {fifo1->config().readRange.start,
                   fifo2->config().writeRange.start},
                  false);
            start(*acc[0],
                  {conv_in, conv_wts, fifo1->config().writeRange.start},
                  false);
            host.push(HostOp::waitIrq(acc[2]->irqId));
            copy(pool_out, dram_out, poolOutBytes);
            break;
        }
        }
        host.push(HostOp::mark("end"));
    }

    std::uint64_t seed;
    std::vector<float> image;
    std::vector<float> expected;
};

} // namespace

double
canarySeconds(RunContext &ctx)
{
    static const std::unique_ptr<kernels::Kernel> bfs = kernels::makeBfs();
    // A self-test corruption is meant for a measured point.
    const bool corrupt = std::exchange(ctx.corruptNextOutput, false);
    double best = 1e300;
    for (int i = 0; i < 2; ++i) {
        std::uint64_t t0 = nowNs();
        FullRun run = runFull(*bfs, AccelConfig{}, ctx, -1);
        best = std::min(best, secondsSince(t0));
        if (!run.rec.ok)
            throw std::runtime_error("reference point: " + run.rec.error);
    }
    ctx.corruptNextOutput = corrupt;
    return best;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "gemm-full", "irregular-full", "sweep-fast", "cnn-system"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &work_dir)
{
    if (name == "gemm-full") {
        return std::make_unique<FullSimWorkload>(
            seed,
            std::vector<KernelFactory>{
                [] { return kernels::makeGemm(16, 16); }},
            sampleGemm, 8, 6);
    }
    if (name == "irregular-full") {
        return std::make_unique<FullSimWorkload>(
            seed,
            std::vector<KernelFactory>{
                [] { return kernels::makeBfs(); },
                [] { return kernels::makeSpmv(64, 8, true, 2); },
                [] { return kernels::makeFft(); }},
            sampleNarrow, 96, 8);
    }
    if (name == "sweep-fast")
        return std::make_unique<SweepFastWorkload>(seed, work_dir);
    if (name == "cnn-system")
        return std::make_unique<CnnSystemWorkload>(seed);
    return nullptr;
}

} // namespace perfbench
