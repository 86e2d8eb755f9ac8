/**
 * @file
 * Fig. 14 reproduction: GEMM stall analysis over read/write ports.
 *
 * (a) proportion of stalled vs new-execution cycles as memory
 *     bandwidth shrinks from 64 to 4 read/write ports;
 * (b) breakdown of what was outstanding during stalled cycles
 *     (loads+computation, loads+stores+computation, computation
 *     only, ...), exposing that GEMM's design space is dominated by
 *     floating-point computation and data transfer.
 */

#include "common.hh"

using namespace salam;
using namespace salam::bench;
using namespace salam::drive;
using namespace salam::kernels;

int
main(int argc, char **argv)
{
    const ObsOptions options = parseObsArgs(argc, argv);
    constexpr unsigned gemmN = 32;
    constexpr unsigned unroll = 32;

    header("Fig. 14(a): runtime instruction scheduling vs ports");
    std::printf("%-6s %10s %10s %10s\n", "ports", "cycles",
                "stalled", "new-exec");

    struct Row
    {
        unsigned ports;
        core::EngineStats stats;
    };
    std::vector<Row> rows;

    for (unsigned ports : {64u, 32u, 16u, 8u, 4u}) {
        auto kernel = makeGemm(gemmN, unroll);
        core::DeviceConfig dev;
        dev.readPortsPerCycle = ports;
        dev.writePortsPerCycle = ports;
        dev.readQueueSize = std::max(ports, 16u);
        dev.writeQueueSize = std::max(ports, 16u);
        BenchMemory memcfg;
        memcfg.spmReadPorts = ports;
        memcfg.spmWritePorts = ports;
        BenchRun run = runSalam(options, *kernel, dev, memcfg);
        rows.push_back({ports, run.stats});

        double total = static_cast<double>(run.stats.totalCycles);
        std::printf("%-6u %10llu %9.1f%% %9.1f%%\n", ports,
                    static_cast<unsigned long long>(
                        run.stats.totalCycles),
                    100.0 * run.stats.stallCycles / total,
                    100.0 * run.stats.newExecCycles / total);
    }

    header("Fig. 14(b): stall-source breakdown (% of stalled "
           "cycles; 'comp-only' are the paper's solid-black "
           "FP-computation bands)");
    std::printf("%-6s %10s %10s %10s %10s %10s %10s\n", "ports",
                "comp-only", "ld+comp", "st+comp", "ld+st+cmp",
                "mem-only", "empty");
    for (const Row &row : rows) {
        const core::EngineStats &s = row.stats;
        double stalls =
            std::max<double>(1.0, static_cast<double>(
                                      s.stallCycles));
        double mem_only = static_cast<double>(
            s.stallLoadOnly + s.stallStoreOnly + s.stallLoadStore);
        std::printf("%-6u %9.1f%% %9.1f%% %9.1f%% %9.1f%% %9.1f%% "
                    "%9.1f%%\n",
                    row.ports,
                    100.0 * s.stallComputeOnly / stalls,
                    100.0 * s.stallLoadCompute / stalls,
                    100.0 * s.stallStoreCompute / stalls,
                    100.0 * s.stallLoadStoreCompute / stalls,
                    100.0 * mem_only / stalls,
                    100.0 * s.stallEmpty / stalls);
    }
    return 0;
}
