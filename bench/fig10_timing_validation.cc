/**
 * @file
 * Fig. 10 reproduction: timing validation against the HLS
 * surrogate.
 *
 * Eight MachSuite benchmarks run through both models with matched
 * ILP (same optimized IR, same memory-port assumptions): the
 * gem5-SALAM dynamic engine on one side, the static-schedule HLS
 * surrogate on the other. The paper reports ~1% average error with
 * MD-KNN worst; the shape to reproduce is small errors overall with
 * the FP-reuse-heavy kernels at the high end.
 */

#include <cmath>

#include "common.hh"
#include "hls/hls_scheduler.hh"

using namespace salam;
using namespace salam::bench;
using namespace salam::drive;
using namespace salam::kernels;
using namespace salam::hls;

int
main(int argc, char **argv)
{
    // --interconnect xbar/axi reruns the validation with a modeled
    // fabric between accelerator and SPM; the check.sh A/B gate uses
    // it to prove a wide bus with unlimited credits is
    // cycle-identical to the crossbar.
    InterconnectChoice fabric;
    const ObsOptions options = parseObsArgs(argc, argv, fabric.options());
    header("Fig. 10: performance validation (cycles vs HLS)");
    std::printf("%-14s %12s %12s %9s\n", "Benchmark",
                "gem5-SALAM", "HLS", "error");

    const char *names[] = {"fft-strided", "gemm", "md-grid",
                           "md-knn",      "nw",   "spmv-crs",
                           "stencil2d",   "stencil3d"};

    double total_abs_err = 0.0;
    int count = 0;
    for (const char *name : names) {
        auto kernel = makeKernel(name);

        // gem5-SALAM with ports matched to the HLS assumption
        // (dual-ported BRAM).
        core::DeviceConfig dev;
        dev.blockSequentialImport = true; // ILP-matched to HLS
        dev.readPortsPerCycle = 2;
        dev.writePortsPerCycle = 2;
        BenchMemory memcfg;
        memcfg.spmReadPorts = 2;
        memcfg.spmWritePorts = 2;
        fabric.apply(memcfg);
        BenchRun salam_run = runSalam(options, *kernel, dev, memcfg);

        // HLS surrogate on the same optimized IR.
        ir::Module mod("m");
        ir::IRBuilder b(mod);
        ir::Function *fn = kernel->buildOptimized(b);
        ir::FlatMemory mem;
        kernel->seed(mem, 0x10000);
        HlsScheduler scheduler;
        HlsResult hls =
            scheduler.estimate(*fn, kernel->args(0x10000), mem);

        double err = pctError(
            static_cast<double>(salam_run.cycles),
            static_cast<double>(hls.totalCycles));
        total_abs_err += std::abs(err);
        ++count;
        std::printf("%-14s %12llu %12llu %8.2f%%\n", name,
                    static_cast<unsigned long long>(
                        salam_run.cycles),
                    static_cast<unsigned long long>(
                        hls.totalCycles),
                    err);
    }
    std::printf("\nAverage |error|: %.2f%% (paper: ~1%%)\n",
                total_abs_err / count);
    return 0;
}
