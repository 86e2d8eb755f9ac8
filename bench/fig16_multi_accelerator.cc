/**
 * @file
 * Fig. 16 / Sec. IV-E reproduction: producer-consumer accelerator
 * scenarios for a CNN layer (conv2d -> ReLU -> max-pool).
 *
 * (a) private scratchpads: DMAs move data between accelerators and
 *     the host activates and synchronizes every stage (baseline,
 *     the gem5-Aladdin-style integration);
 * (b) shared scratchpad: no inter-accelerator copies, but a central
 *     controller (the host) still sequences the stages — the
 *     PARADE-style integration (paper: ~25% faster);
 * (c) stream buffers: accelerators pipeline directly through FIFO
 *     handshakes with no central synchronization (paper: 2.08x
 *     over the baseline) — the integration only gem5-SALAM models.
 */

#include <vector>

#include "cnn_pipeline.hh"
#include "common.hh"
#include "sys/system.hh"

using namespace salam;
using namespace salam::bench;
using namespace salam::bench::cnn;
using namespace salam::drive;
using namespace salam::kernels;
using namespace salam::sys;
using namespace salam::mem;

namespace
{

/** fig16's modest cluster data mover: 16-byte bursts, 2 in flight. */
core::DmaConfig
clusterDma()
{
    core::DmaConfig dma;
    dma.burstBytes = 16;
    dma.maxOutstanding = 2;
    return dma;
}

/** Scenario (b): shared SPM, host-sequenced (central control). */
Tick
scenarioShared(const std::vector<float> &image,
               const std::vector<float> &expected,
               const InterconnectConfig &icfg,
               const ObsOptions &options)
{
    Simulation sim;
    SalamSystem sys(sim);
    ScenarioFiles out(&options, sys, "shared");
    auto &cluster = sys.addCluster("c0", periodFromMhz(100), 0,
                                   icfg);

    // Multi-ported shared SPM: one direct port per accelerator
    // (the paper's shared-scratchpad organization) plus one routed
    // through the local crossbar for the DMA.
    ScratchpadConfig proto = spmProto();
    proto.numPorts = 4;
    proto.readPorts = 6;
    proto.writePorts = 6;
    auto &shared = cluster.addSpm("shared", 64 * 1024, proto,
                                  false);
    cluster.localXbar().connectDevice(shared.port(3),
                                      shared.config().range);

    auto &dma = cluster.addDma("dma", clusterDma());
    unsigned dma_irq = sys.allocateIrq();
    dma.setIrqCallback(sys.gic().lineCallback(dma_irq));

    ir::Module mod("m");
    ir::IRBuilder b(mod);
    ir::Function *conv_fn = makeConv2d(imgW, imgH)->buildOptimized(b);
    ir::Function *relu_fn = makeRelu(convW * convH)->buildOptimized(b);
    ir::Function *pool_fn = makeMaxPool(convW, convH)->buildOptimized(b);

    AcceleratorCluster::DataPortSpec shared_port{
        "mem", {shared.config().range}, false};
    auto &conv = cluster.addAccelerator("conv", *conv_fn, {},
                                        {shared_port});
    bindPorts(conv.comm->dataPort(0), shared.port(0));
    auto &relu = cluster.addAccelerator("relu", *relu_fn, {},
                                        {shared_port});
    bindPorts(relu.comm->dataPort(0), shared.port(1));
    auto &pool = cluster.addAccelerator("pool", *pool_fn, {},
                                        {shared_port});
    bindPorts(pool.comm->dataPort(0), shared.port(2));

    std::uint64_t dram_in = SystemAddressMap::dramBase + 0x10000;
    std::uint64_t dram_out = SystemAddressMap::dramBase + 0x40000;
    sys.dram().backdoorWrite(dram_in, image.data(),
                             image.size() * 4);

    std::uint64_t base = shared.config().range.start;
    std::uint64_t in = base;
    std::uint64_t wts = in + imageBytes;
    std::uint64_t conv_out = wts + 0x100;
    std::uint64_t relu_out = conv_out + convOutBytes;
    std::uint64_t rowbuf = relu_out + convOutBytes;
    std::uint64_t pool_out = rowbuf + 0x200;

    DriverCpu &host = sys.host();
    std::uint64_t dma_mmr = dma.config().mmrRange.start;
    host.push(HostOp::mark("begin"));
    driver::pushDmaTransfer(host, dma_mmr, dram_in, in,
                            imageBytes + weightBytes);
    host.push(HostOp::waitIrq(dma_irq));
    driver::pushAcceleratorStart(host, conv, {in, wts, conv_out});
    host.push(HostOp::waitIrq(conv.irqId));
    driver::pushAcceleratorStart(host, relu,
                                 {conv_out, relu_out});
    host.push(HostOp::waitIrq(relu.irqId));
    driver::pushAcceleratorStart(host, pool,
                                 {relu_out, rowbuf, pool_out});
    host.push(HostOp::waitIrq(pool.irqId));
    driver::pushDmaTransfer(host, dma_mmr, pool_out, dram_out,
                            poolOutBytes);
    host.push(HostOp::waitIrq(dma_irq));
    host.push(HostOp::mark("end"));
    out.start(periodFromMhz(100));
    sys.run();
    out.write();

    checkOutput(sys, dram_out, expected, "shared");
    return host.markAt("end") - host.markAt("begin");
}

/** Scenario (c): direct stream-buffer pipeline, self-synchronized. */
Tick
scenarioStream(const std::vector<float> &image,
               const std::vector<float> &expected,
               const InterconnectConfig &icfg,
               const ObsOptions &options)
{
    Simulation sim;
    SalamSystem sys(sim);
    ScenarioFiles out(&options, sys, "stream");
    auto &cluster = sys.addCluster("c0", periodFromMhz(100), 0,
                                   icfg);

    auto &conv_spm = cluster.addSpm("conv_spm", 16 * 1024,
                                    spmProto());
    auto &pool_spm = cluster.addSpm("pool_spm", 16 * 1024,
                                    spmProto());
    cluster.localXbar().connectDevice(conv_spm.port(1),
                                      conv_spm.config().range);
    cluster.localXbar().connectDevice(pool_spm.port(1),
                                      pool_spm.config().range);

    auto &fifo1 = cluster.addStreamBuffer("fifo1", 64);
    auto &fifo2 = cluster.addStreamBuffer("fifo2", 64);

    auto &dma = cluster.addDma("dma", clusterDma());
    unsigned dma_irq = sys.allocateIrq();
    dma.setIrqCallback(sys.gic().lineCallback(dma_irq));

    ir::Module mod("m");
    ir::IRBuilder b(mod);
    ir::Function *conv_fn =
        makeConv2d(imgW, imgH, /*stream_out=*/true)->buildOptimized(b);
    ir::Function *relu_fn =
        makeRelu(convW * convH, true, true)->buildOptimized(b);
    ir::Function *pool_fn =
        makeMaxPool(convW, convH, /*stream_in=*/true, false)
            ->buildOptimized(b);

    auto &conv = cluster.addAccelerator(
        "conv", *conv_fn, {},
        {{"spm", {conv_spm.config().range}, false},
         {"stream", {fifo1.config().writeRange}, false}});
    bindPorts(conv.comm->dataPort(0), conv_spm.port(0));
    bindPorts(conv.comm->dataPort(1), fifo1.writePort());

    auto &relu = cluster.addAccelerator(
        "relu", *relu_fn, {},
        {{"stream_in", {fifo1.config().readRange}, false},
         {"stream_out", {fifo2.config().writeRange}, false}});
    bindPorts(relu.comm->dataPort(0), fifo1.readPort());
    bindPorts(relu.comm->dataPort(1), fifo2.writePort());

    auto &pool = cluster.addAccelerator(
        "pool", *pool_fn, {},
        {{"stream_in", {fifo2.config().readRange}, false},
         {"spm", {pool_spm.config().range}, false}});
    bindPorts(pool.comm->dataPort(0), fifo2.readPort());
    bindPorts(pool.comm->dataPort(1), pool_spm.port(0));

    std::uint64_t dram_in = SystemAddressMap::dramBase + 0x10000;
    std::uint64_t dram_out = SystemAddressMap::dramBase + 0x40000;
    sys.dram().backdoorWrite(dram_in, image.data(),
                             image.size() * 4);

    std::uint64_t conv_in = conv_spm.config().range.start;
    std::uint64_t conv_wts = conv_in + imageBytes;
    std::uint64_t rowbuf = pool_spm.config().range.start;
    std::uint64_t pool_out = rowbuf + 0x200;

    DriverCpu &host = sys.host();
    std::uint64_t dma_mmr = dma.config().mmrRange.start;
    host.push(HostOp::mark("begin"));
    driver::pushDmaTransfer(host, dma_mmr, dram_in, conv_in,
                            imageBytes + weightBytes);
    host.push(HostOp::waitIrq(dma_irq));
    // Start all three stages; the FIFOs self-synchronize them.
    driver::pushAcceleratorStart(
        host, pool,
        {fifo2.config().readRange.start, rowbuf, pool_out});
    driver::pushAcceleratorStart(
        host, relu,
        {fifo1.config().readRange.start,
         fifo2.config().writeRange.start});
    driver::pushAcceleratorStart(
        host, conv,
        {conv_in, conv_wts, fifo1.config().writeRange.start});
    host.push(HostOp::waitIrq(pool.irqId));
    driver::pushDmaTransfer(host, dma_mmr, pool_out, dram_out,
                            poolOutBytes);
    host.push(HostOp::waitIrq(dma_irq));
    host.push(HostOp::mark("end"));
    out.start(periodFromMhz(100));
    sys.run();
    out.write();

    checkOutput(sys, dram_out, expected, "stream");
    return host.markAt("end") - host.markAt("begin");
}

} // namespace

int
main(int argc, char **argv)
{
    // --interconnect selects the cluster-local fabric: "direct"
    // keeps the historical default crossbar; "xbar"/"axi" (with
    // --bus-width/--ic-credits) rerun all three scenarios with the
    // chosen fabric carrying the DMA and host-MMIO traffic. The
    // check.sh contention smoke compares xbar against a narrow AXI
    // bus here.
    InterconnectChoice fabric;
    const ObsOptions options = parseObsArgs(argc, argv, fabric.options());
    InterconnectConfig icfg =
        fabric.direct() ? InterconnectConfig{} : fabric.config();
    auto image = makeImage();
    auto expected = golden(image);

    header("Fig. 16: producer-consumer accelerator scenarios "
           "(CNN layer: conv3x3 -> ReLU -> maxpool2x2)");

    // Each scenario writes its own per-run files (ScenarioFiles).
    Tick t_private =
        scenarioPrivate(image, expected, icfg, clusterDma(), &options);
    Tick t_shared = scenarioShared(image, expected, icfg, options);
    Tick t_stream = scenarioStream(image, expected, icfg, options);

    auto us = [](Tick t) { return static_cast<double>(t) / 1e6; };
    std::printf("%-28s %12s %10s\n", "Scenario", "end-to-end(us)",
                "speedup");
    std::printf("%-28s %12.2f %9.2fx\n",
                "(a) private SPM + DMA", us(t_private), 1.0);
    std::printf("%-28s %12.2f %9.2fx\n",
                "(b) shared SPM, central sync", us(t_shared),
                static_cast<double>(t_private) /
                    static_cast<double>(t_shared));
    std::printf("%-28s %12.2f %9.2fx\n",
                "(c) stream buffers, self-sync", us(t_stream),
                static_cast<double>(t_private) /
                    static_cast<double>(t_stream));
    std::printf("\n(paper: (b) ~1.25x, (c) ~2.08x over the "
                "baseline)\n");

    // Machine-parseable summary for check.sh's contention compare.
    std::printf("fig16-summary kind=%s width=%u credits=%u "
                "private=%llu shared=%llu stream=%llu\n",
                fabric.kind.c_str(), fabric.busWidthBytes,
                fabric.credits,
                static_cast<unsigned long long>(t_private),
                static_cast<unsigned long long>(t_shared),
                static_cast<unsigned long long>(t_stream));

    // --store-out: one record per fabric configuration, queryable
    // with salam-query (the configHash distinguishes fabric knobs, so
    // xbar vs narrow-axi runs land as separate records).
    if (recordsRuns(options)) {
        obs::RunReport report;
        report.run = "fig16-contention";
        report.configHash = obs::fnv1aHash(
            std::string("fig16|ic=") + fabric.kind + "|icw=" +
            std::to_string(fabric.busWidthBytes) + "|icc=" +
            std::to_string(fabric.credits));
        report.cycles = t_private; // baseline scenario
        report.extra = {
            {"t_private_ticks", static_cast<double>(t_private)},
            {"t_shared_ticks", static_cast<double>(t_shared)},
            {"t_stream_ticks", static_cast<double>(t_stream)},
            {"bus_width_bytes",
             static_cast<double>(fabric.busWidthBytes)},
            {"credits", fabric.credits == mem::unlimitedCredits
                 ? -1.0
                 : static_cast<double>(fabric.credits)},
        };
        recordRun(options, std::move(report));
    }

    bool shape = t_shared < t_private && t_stream < t_shared;
    std::printf("Shape check (a > b > c): %s\n",
                shape ? "REPRODUCED" : "NOT REPRODUCED");
    return shape ? 0 : 1;
}
