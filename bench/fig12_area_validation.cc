/**
 * @file
 * Fig. 12 reproduction: area validation against the Design
 * Compiler surrogate. MD-Grid is excluded, as in the paper (custom
 * IPs in its datapath prevented DC area estimation there).
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
    parseObsArgs(argc, argv);
    header("Fig. 12: area validation (um^2 vs Design Compiler)");
    std::printf("%-14s %12s %12s %9s\n", "Benchmark",
                "gem5-SALAM", "DC", "error");

    const char *names[] = {"bfs-queue", "fft-strided", "gemm",
                           "md-knn",    "nw",          "spmv-crs",
                           "stencil2d", "stencil3d"};

    double total_abs_err = 0.0;
    int count = 0;
    for (const char *name : names) {
        auto kernel = makeKernel(name);

        ir::Module mod("m");
        ir::IRBuilder b(mod);
        ir::Function *fn = kernel->buildOptimized(b);
        core::StaticCdfg cdfg(*fn, core::DeviceConfig{});
        double salam_area = cdfg.area().fuUm2 +
            cdfg.area().registerUm2;

        ir::FlatMemory mem;
        kernel->seed(mem, 0x10000);
        HlsScheduler scheduler;
        HlsResult hls =
            scheduler.estimate(*fn, kernel->args(0x10000), mem);
        // The RTL instantiates one operator per static operation
        // (unconstrained HLS); DC prices that netlist.
        for (std::size_t t = 0; t < hw::numFuTypes; ++t) {
            hls.boundUnits[t] =
                cdfg.fuDemand(static_cast<hw::FuType>(t));
        }
        DcEstimator dc;
        DcReport ref = dc.estimate(hls, cdfg.registerBits());

        double err = pctError(salam_area, ref.datapathAreaUm2);
        total_abs_err += std::abs(err);
        ++count;
        std::printf("%-14s %12.0f %12.0f %8.2f%%\n", name,
                    salam_area, ref.datapathAreaUm2, err);
    }
    std::printf("\nAverage |error|: %.2f%% (paper: ~2.24%%)\n",
                total_abs_err / count);
    return 0;
}
