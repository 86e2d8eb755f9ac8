/**
 * @file
 * Table III reproduction: system validation against the FPGA-board
 * surrogate.
 *
 * Five benchmarks run as full-system simulations — host driver
 * programs a cluster DMA to stage inputs into the accelerator SPM,
 * starts the accelerator over MMRs, waits for its interrupt, and
 * DMAs results back — and the measured compute / bulk-transfer /
 * total times are compared against the analytic ZCU102 surrogate
 * (HLS cycles at the fabric clock + DDR streaming model).
 */

#include <cmath>

#include "common.hh"
#include "hls/fpga_model.hh"
#include "hls/hls_scheduler.hh"
#include "mem/backdoor.hh"
#include "sys/system.hh"

using namespace salam;
using namespace salam::bench;
using namespace salam::drive;
using namespace salam::kernels;
using namespace salam::sys;
using namespace salam::mem;

namespace
{

struct SystemTimes
{
    double computeUs = 0.0;
    double transferUs = 0.0;

    double totalUs() const { return computeUs + transferUs; }
};

/** Full-system run: DMA in, compute, DMA out; times from marks. */
SystemTimes
runFullSystem(const kernels::Kernel &kernel)
{
    ir::Module mod("m");
    ir::IRBuilder b(mod);
    ir::Function *fn = kernel.buildOptimized(b);

    Simulation sim;
    SalamSystem sys(sim);
    core::DeviceConfig dev;
    dev.blockSequentialImport = true; // ILP-matched to the RTL
    auto &cluster = sys.addCluster("c0", dev.clockPeriod);

    std::uint64_t bytes = kernel.footprintBytes();
    std::uint64_t spm_bytes = ((bytes + 0xFFF) & ~0xFFFull) + 0x1000;

    ScratchpadConfig sproto;
    sproto.readPorts = 2;
    sproto.writePorts = 2;
    sproto.numPorts = 2;
    auto &spm = cluster.addSpm("spm", spm_bytes, sproto, false);
    cluster.localXbar().connectDevice(spm.port(1),
                                      spm.config().range);

    core::DmaConfig dma_proto;
    dma_proto.burstBytes = 64;
    auto &dma = cluster.addDma("dma", dma_proto);
    unsigned dma_irq = sys.allocateIrq();
    dma.setIrqCallback(sys.gic().lineCallback(dma_irq));

    auto &accel = cluster.addAccelerator(
        "acc", *fn, dev, {{"spm", {spm.config().range}, false}});
    bindPorts(accel.comm->dataPort(0), spm.port(0));

    // Stage the dataset in DRAM; the driver DMAs it across.
    std::uint64_t dram_base = SystemAddressMap::dramBase + 0x10000;
    std::uint64_t spm_base = spm.config().range.start;
    DramBackdoor dram_backdoor(sys.dram());
    kernel.seed(dram_backdoor, dram_base);

    auto args = kernel.args(dram_base);
    std::vector<std::uint64_t> arg_bits;
    for (const auto &arg : args) {
        // Rebase pointer arguments from DRAM to the SPM.
        if (arg.bits >= dram_base &&
            arg.bits < dram_base + bytes) {
            arg_bits.push_back(arg.bits - dram_base + spm_base);
        } else {
            arg_bits.push_back(arg.bits);
        }
    }

    DriverCpu &host = sys.host();
    host.push(HostOp::mark("xfer_in.begin"));
    driver::pushDmaTransfer(host, dma.config().mmrRange.start,
                            dram_base, spm_base, bytes);
    host.push(HostOp::waitIrq(dma_irq));
    host.push(HostOp::mark("compute.begin"));
    driver::pushAcceleratorStart(host, accel, arg_bits);
    host.push(HostOp::waitIrq(accel.irqId));
    host.push(HostOp::mark("compute.end"));
    driver::pushDmaTransfer(host, dma.config().mmrRange.start,
                            spm_base, dram_base, bytes);
    host.push(HostOp::waitIrq(dma_irq));
    host.push(HostOp::mark("xfer_out.end"));
    sys.run();

    // Correctness gate: results made it back to DRAM.
    std::string failure = kernel.check(dram_backdoor, dram_base);
    if (!failure.empty())
        fatal("table3: %s wrong result: %s",
              kernel.name().c_str(), failure.c_str());

    SystemTimes t;
    t.computeUs = static_cast<double>(
                      host.markAt("compute.end") -
                      host.markAt("compute.begin")) /
        1e6;
    t.transferUs = static_cast<double>(
                       (host.markAt("compute.begin") -
                        host.markAt("xfer_in.begin")) +
                       (host.markAt("xfer_out.end") -
                        host.markAt("compute.end"))) /
        1e6;
    return t;
}

/** FPGA-board surrogate reference for the same workload. */
SystemTimes
referenceTimes(const kernels::Kernel &kernel)
{
    ir::Module mod("m");
    ir::IRBuilder b(mod);
    ir::Function *fn = kernel.buildOptimized(b);
    ir::FlatMemory mem;
    kernel.seed(mem, 0x10000);
    hls::HlsScheduler scheduler;
    hls::HlsResult hls =
        scheduler.estimate(*fn, kernel.args(0x10000), mem);

    hls::FpgaModel board;
    std::uint64_t bytes = kernel.footprintBytes();
    hls::FpgaTiming t = board.timing(hls.totalCycles, bytes, bytes);
    return SystemTimes{t.computeUs, t.bulkTransferUs};
}

} // namespace

int
main(int argc, char **argv)
{
    parseObsArgs(argc, argv);
    header("Table III: system validation vs FPGA surrogate");
    std::printf("%-14s | %10s %10s %10s | %10s %10s %10s | "
                "%8s %8s %8s\n",
                "Benchmark", "fpga.comp", "fpga.xfer", "fpga.tot",
                "sim.comp", "sim.xfer", "sim.tot", "e.comp",
                "e.xfer", "e.tot");

    const char *names[] = {"fft-strided", "gemm", "stencil2d",
                           "stencil3d", "md-knn"};
    double sum_comp = 0, sum_xfer = 0, sum_tot = 0;
    int count = 0;
    for (const char *name : names) {
        auto kernel = makeKernel(name);
        SystemTimes sim_t = runFullSystem(*kernel);
        SystemTimes ref_t = referenceTimes(*kernel);
        double e_comp = pctError(sim_t.computeUs, ref_t.computeUs);
        double e_xfer =
            pctError(sim_t.transferUs, ref_t.transferUs);
        double e_tot = pctError(sim_t.totalUs(), ref_t.totalUs());
        sum_comp += std::abs(e_comp);
        sum_xfer += std::abs(e_xfer);
        sum_tot += std::abs(e_tot);
        ++count;
        std::printf("%-14s | %10.2f %10.2f %10.2f | %10.2f %10.2f "
                    "%10.2f | %7.2f%% %7.2f%% %7.2f%%\n",
                    name, ref_t.computeUs, ref_t.transferUs,
                    ref_t.totalUs(), sim_t.computeUs,
                    sim_t.transferUs, sim_t.totalUs(), e_comp,
                    e_xfer, e_tot);
    }
    std::printf("\nAverage |error|: compute %.2f%%, transfer "
                "%.2f%%, total %.2f%% (paper: 1.94 / 2.35 / "
                "1.62)\n",
                sum_comp / count, sum_xfer / count,
                sum_tot / count);
    return 0;
}
