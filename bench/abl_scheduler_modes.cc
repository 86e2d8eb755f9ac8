/**
 * @file
 * Ablation: dynamic dataflow import vs block-sequential (FSM)
 * import in the runtime scheduler.
 *
 * gem5-SALAM's reservation queue imports successor blocks the moment
 * a terminator evaluates, letting independent loop iterations overlap
 * like a dataflow machine. The block-sequential option (used for
 * HLS-matched validation) drains the pipeline at every state
 * transition instead. This ablation quantifies what the paper's
 * "execute-in-execute" dynamic scheduling buys on every MachSuite
 * kernel.
 */

#include <cmath>

#include "common.hh"

using namespace salam;
using namespace salam::bench;
using namespace salam::drive;
using namespace salam::kernels;

int
main(int argc, char **argv)
{
    const ObsOptions options = parseObsArgs(argc, argv);
    header("Ablation: dataflow vs block-sequential scheduling");
    std::printf("%-14s %12s %12s %9s\n", "Benchmark", "dataflow",
                "sequential", "speedup");

    double product = 1.0;
    int count = 0;
    for (const auto &kernel : machsuiteKernels()) {
        core::DeviceConfig dataflow;
        BenchRun a = runSalam(options, *kernel, dataflow);

        core::DeviceConfig fsm;
        fsm.blockSequentialImport = true;
        BenchRun b = runSalam(options, *kernel, fsm);

        double speedup = static_cast<double>(b.cycles) /
            static_cast<double>(a.cycles);
        product *= speedup;
        ++count;
        std::printf("%-14s %12llu %12llu %8.2fx\n",
                    kernel->name().c_str(),
                    static_cast<unsigned long long>(a.cycles),
                    static_cast<unsigned long long>(b.cycles),
                    speedup);
    }
    std::printf("\nGeomean dataflow speedup: %.2fx\n",
                std::pow(product, 1.0 / count));
    return 0;
}
