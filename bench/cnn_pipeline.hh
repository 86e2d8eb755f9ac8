/**
 * @file
 * The CNN layer (conv3x3 -> ReLU -> maxpool2x2) that fig16 and the
 * interconnect sweep's contention curve run: its input image, the
 * host golden model, the output check, the per-scenario run files,
 * and scenario (a), the private-scratchpad pipeline the host
 * sequences through a DMA.
 */

#ifndef SALAM_BENCH_CNN_PIPELINE_HH
#define SALAM_BENCH_CNN_PIPELINE_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dma.hh"
#include "drive/testbench.hh"
#include "kernels/machsuite.hh"
#include "mem/interconnect.hh"
#include "mem/scratchpad.hh"
#include "obs/critical_path.hh"
#include "obs/interval_stats.hh"
#include "sys/system.hh"

namespace salam::bench::cnn
{

constexpr unsigned imgW = 32, imgH = 32;
constexpr unsigned convW = imgW - 2, convH = imgH - 2; // 30x30
constexpr unsigned poolW = convW / 2, poolH = convH / 2; // 15x15
constexpr std::uint64_t imageBytes = 4ull * imgW * imgH;
constexpr std::uint64_t weightBytes = 4ull * 9;
constexpr std::uint64_t convOutBytes = 4ull * convW * convH;
constexpr std::uint64_t poolOutBytes = 4ull * poolW * poolH;

/** The seeded input image, followed by the 3x3 weights. */
inline std::vector<float>
makeImage()
{
    kernels::Lcg rng(2020);
    std::vector<float> image(imgW * imgH + 9);
    for (auto &v : image)
        v = static_cast<float>(rng.nextDouble()) - 0.5f;
    return image;
}

/** Host-side golden: conv -> relu -> pool. */
inline std::vector<float>
golden(const std::vector<float> &image)
{
    const float *weights = image.data() + imgW * imgH;
    std::vector<float> conv(convW * convH);
    for (unsigned r = 0; r < convH; ++r) {
        for (unsigned c = 0; c < convW; ++c) {
            float acc = 0.0f;
            for (unsigned k1 = 0; k1 < 3; ++k1)
                for (unsigned k2 = 0; k2 < 3; ++k2)
                    acc += weights[k1 * 3 + k2] *
                        image[(r + k1) * imgW + c + k2];
            conv[r * convW + c] = std::max(acc, 0.0f); // + relu
        }
    }
    std::vector<float> pool(poolW * poolH);
    for (unsigned r = 0; r < poolH; ++r) {
        for (unsigned c = 0; c < poolW; ++c) {
            pool[r * poolW + c] = std::max(
                {conv[(2 * r) * convW + 2 * c],
                 conv[(2 * r) * convW + 2 * c + 1],
                 conv[(2 * r + 1) * convW + 2 * c],
                 conv[(2 * r + 1) * convW + 2 * c + 1]});
        }
    }
    return pool;
}

/** fatal()s unless DRAM at @p dram_out holds @p expected. */
inline void
checkOutput(sys::SalamSystem &sys, std::uint64_t dram_out,
            const std::vector<float> &expected, const char *tag)
{
    for (unsigned i = 0; i < expected.size(); ++i) {
        float got = 0;
        sys.dram().backdoorRead(dram_out + 4ull * i, &got, 4);
        if (std::abs(got - expected[i]) > 1e-4f)
            fatal("fig16 %s: wrong output at %u (%f vs %f)", tag,
                  i, got, expected[i]);
    }
}

/**
 * The per-run files of one scenario's simulation. fig16 runs one
 * simulation per scenario, so each per-run option names one file per
 * scenario: the option's path with ".<scenario>.json" appended
 * (--stats-out s.json writes s.json.private.json, s.json.shared.json
 * and s.json.stream.json). --stats-interval rows go beside the
 * scenario's stats file with ".intervals.jsonl" appended
 * (stats.<scenario>.intervals.jsonl without --stats-out).
 * --profile-out writes one critical-path report per accelerator,
 * "<path>.<scenario>.<accelerator>.json", with its ".folded" stacks.
 */
class ScenarioFiles
{
  public:
    /**
     * Turn on the tracing and profiling @p options ask for (nullptr:
     * none). Construct before the system runs.
     */
    ScenarioFiles(const drive::ObsOptions *options,
                  sys::SalamSystem &system, std::string scenario)
        : options(options), system(system),
          scenario(std::move(scenario))
    {
        if (options == nullptr)
            return;
        Simulation &sim = system.simulation();
        if (!options->traceOut.empty())
            sim.enableTracing();
        if (!options->profileOut.empty())
            sim.enableProfiling();
    }

    /**
     * Start the interval series, --stats-interval cycles of
     * @p cycle_period (the accelerators' clock) long; call right
     * before the run.
     */
    void
    start(Tick cycle_period)
    {
        if (options == nullptr || options->statsInterval == 0)
            return;
        obs::IntervalStats::Config icfg;
        icfg.intervalTicks = options->statsInterval * cycle_period;
        icfg.path = options->statsOut.empty()
            ? "stats." + scenario + ".intervals.jsonl"
            : fileFor(options->statsOut) + ".intervals.jsonl";
        icfg.active = [&host = system.host()] {
            return !host.finished();
        };
        intervals = std::make_unique<obs::IntervalStats>(
            system.simulation().eventQueue(),
            system.simulation().stats(), std::move(icfg));
        intervals->start();
    }

    /** Write every file the options ask for; call after the run. */
    void
    write()
    {
        if (options == nullptr)
            return;
        Simulation &sim = system.simulation();
        sim.finalizeAll();
        if (intervals)
            intervals->finalize();
        if (!options->profileOut.empty()) {
            for (const auto &[owner, prof] : sim.profilers()) {
                drive::writeProfileFiles(
                    obs::analyzeCriticalPath(*prof),
                    options->profileOut + "." + scenario + "." + owner +
                        ".json");
            }
        }
        if (!options->traceOut.empty())
            drive::writeTraceFile(sim, fileFor(options->traceOut));
        if (!options->statsOut.empty())
            drive::writeStatsFile(sim, fileFor(options->statsOut));
    }

  private:
    std::string
    fileFor(const std::string &option) const
    {
        return option + "." + scenario + ".json";
    }

    const drive::ObsOptions *options;
    sys::SalamSystem &system;
    std::string scenario;
    std::unique_ptr<obs::IntervalStats> intervals;
};

/** The stage scratchpads: 4 read/write ports, 2 connection ports. */
inline mem::ScratchpadConfig
spmProto()
{
    mem::ScratchpadConfig proto;
    proto.readPorts = 4;
    proto.writePorts = 4;
    proto.numPorts = 2;
    return proto;
}

/**
 * Scenario (a): private SPMs, DMA transfers, host-sequenced. Builds
 * one cluster whose local fabric is @p icfg and whose data mover is
 * @p dma_proto, checks the pipeline's output, and returns its
 * end-to-end ticks. @p files, when given, names the per-run files
 * to write (see ScenarioFiles).
 */
inline Tick
scenarioPrivate(const std::vector<float> &image,
                const std::vector<float> &expected,
                const mem::InterconnectConfig &icfg,
                const core::DmaConfig &dma_proto,
                const drive::ObsOptions *files = nullptr)
{
    using namespace salam::kernels;
    using namespace salam::mem;
    using namespace salam::sys;

    Simulation sim;
    SalamSystem sys(sim);
    ScenarioFiles out(files, sys, "private");
    auto &cluster = sys.addCluster("c0", periodFromMhz(100), 0,
                                   icfg);

    auto &conv_spm = cluster.addSpm("conv_spm", 16 * 1024,
                                    spmProto());
    auto &relu_spm = cluster.addSpm("relu_spm", 16 * 1024,
                                    spmProto());
    auto &pool_spm = cluster.addSpm("pool_spm", 16 * 1024,
                                    spmProto());
    for (Scratchpad *spm : {&conv_spm, &relu_spm, &pool_spm}) {
        cluster.localXbar().connectDevice(spm->port(1),
                                          spm->config().range);
    }

    auto &dma = cluster.addDma("dma", dma_proto);
    unsigned dma_irq = sys.allocateIrq();
    dma.setIrqCallback(sys.gic().lineCallback(dma_irq));

    ir::Module mod("m");
    ir::IRBuilder b(mod);
    ir::Function *conv_fn = makeConv2d(imgW, imgH)->buildOptimized(b);
    ir::Function *relu_fn = makeRelu(convW * convH)->buildOptimized(b);
    ir::Function *pool_fn = makeMaxPool(convW, convH)->buildOptimized(b);

    auto &conv = cluster.addAccelerator(
        "conv", *conv_fn, {},
        {{"spm", {conv_spm.config().range}, false}});
    bindPorts(conv.comm->dataPort(0), conv_spm.port(0));
    auto &relu = cluster.addAccelerator(
        "relu", *relu_fn, {},
        {{"spm", {relu_spm.config().range}, false}});
    bindPorts(relu.comm->dataPort(0), relu_spm.port(0));
    auto &pool = cluster.addAccelerator(
        "pool", *pool_fn, {},
        {{"spm", {pool_spm.config().range}, false}});
    bindPorts(pool.comm->dataPort(0), pool_spm.port(0));

    // DRAM staging.
    std::uint64_t dram_in = SystemAddressMap::dramBase + 0x10000;
    std::uint64_t dram_out = SystemAddressMap::dramBase + 0x40000;
    sys.dram().backdoorWrite(dram_in, image.data(),
                             image.size() * 4);

    std::uint64_t conv_in = conv_spm.config().range.start;
    std::uint64_t conv_wts = conv_in + imageBytes;
    std::uint64_t conv_out = conv_wts + 0x100;
    std::uint64_t relu_in = relu_spm.config().range.start;
    std::uint64_t relu_out = relu_in + convOutBytes;
    std::uint64_t pool_in = pool_spm.config().range.start;
    std::uint64_t pool_rowbuf = pool_in + convOutBytes;
    std::uint64_t pool_out = pool_rowbuf + 0x200;

    DriverCpu &host = sys.host();
    std::uint64_t dma_mmr = dma.config().mmrRange.start;
    host.push(HostOp::mark("begin"));
    driver::pushDmaTransfer(host, dma_mmr, dram_in, conv_in,
                            imageBytes + weightBytes);
    host.push(HostOp::waitIrq(dma_irq));
    driver::pushAcceleratorStart(host, conv,
                                 {conv_in, conv_wts, conv_out});
    host.push(HostOp::waitIrq(conv.irqId));
    driver::pushDmaTransfer(host, dma_mmr, conv_out, relu_in,
                            convOutBytes);
    host.push(HostOp::waitIrq(dma_irq));
    driver::pushAcceleratorStart(host, relu, {relu_in, relu_out});
    host.push(HostOp::waitIrq(relu.irqId));
    driver::pushDmaTransfer(host, dma_mmr, relu_out, pool_in,
                            convOutBytes);
    host.push(HostOp::waitIrq(dma_irq));
    driver::pushAcceleratorStart(
        host, pool, {pool_in, pool_rowbuf, pool_out});
    host.push(HostOp::waitIrq(pool.irqId));
    driver::pushDmaTransfer(host, dma_mmr, pool_out, dram_out,
                            poolOutBytes);
    host.push(HostOp::waitIrq(dma_irq));
    host.push(HostOp::mark("end"));
    out.start(periodFromMhz(100));
    sys.run();
    out.write();

    checkOutput(sys, dram_out, expected, "private");
    return host.markAt("end") - host.markAt("begin");
}

} // namespace salam::bench::cnn

#endif // SALAM_BENCH_CNN_PIPELINE_HH
