/**
 * @file
 * Fig. 11 reproduction: power validation against the Design
 * Compiler surrogate. Stencil3D is excluded, as in the paper
 * (Design Compiler ran out of memory during elaboration there).
 */

#include <cmath>

#include "common.hh"
#include "hls/dc_estimator.hh"
#include "hls/hls_scheduler.hh"

using namespace salam;
using namespace salam::bench;
using namespace salam::drive;
using namespace salam::kernels;
using namespace salam::hls;

int
main(int argc, char **argv)
{
    const ObsOptions options = parseObsArgs(argc, argv);
    header("Fig. 11: power validation (mW vs Design Compiler)");
    std::printf("%-14s %12s %12s %9s\n", "Benchmark",
                "gem5-SALAM", "DC", "error");

    const char *names[] = {"bfs-queue", "fft-strided", "gemm",
                           "md-grid",   "md-knn",      "nw",
                           "spmv-crs",  "stencil2d"};

    double total_abs_err = 0.0;
    int count = 0;
    for (const char *name : names) {
        auto kernel = makeKernel(name);
        core::DeviceConfig dev;
        dev.blockSequentialImport = true; // ILP-matched to HLS
        BenchRun salam_run = runSalam(options, *kernel, dev);
        double salam_power =
            salam_run.report.power.dynamicFuMw +
            salam_run.report.power.dynamicRegisterMw +
            salam_run.report.power.staticFuMw +
            salam_run.report.power.staticRegisterMw;

        // DC reference for the same design (datapath only, to
        // match the paper's Design Compiler scope).
        ir::Module mod("m");
        ir::IRBuilder b(mod);
        ir::Function *fn = kernel->buildOptimized(b);
        ir::FlatMemory mem;
        kernel->seed(mem, 0x10000);
        HlsScheduler scheduler;
        HlsResult hls =
            scheduler.estimate(*fn, kernel->args(0x10000), mem);
        core::StaticCdfg cdfg(*fn, core::DeviceConfig{});
        // The RTL instantiates one operator per static operation
        // (unconstrained HLS); DC prices that netlist.
        for (std::size_t t = 0; t < hw::numFuTypes; ++t) {
            hls.boundUnits[t] =
                cdfg.fuDemand(static_cast<hw::FuType>(t));
        }
        DcEstimator dc;
        DcReport ref = dc.estimate(hls, cdfg.registerBits());

        double err = pctError(salam_power, ref.totalPowerMw);
        total_abs_err += std::abs(err);
        ++count;
        std::printf("%-14s %12.3f %12.3f %8.2f%%\n", name,
                    salam_power, ref.totalPowerMw, err);
    }
    std::printf("\nAverage |error|: %.2f%% (paper: ~3.25%%)\n",
                total_abs_err / count);
    return 0;
}
