/**
 * @file
 * Fig. 4 reproduction: total power breakdown per benchmark with
 * private SPMs — dynamic functional units / internal registers /
 * SPM reads / SPM writes, and static FUs / registers / SPM.
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
    header("Fig. 4: total power contribution breakdown "
           "(private SPM)");
    std::printf("%-14s %8s | %7s %7s %7s %7s %7s %7s %7s\n",
                "Benchmark", "mW", "dynFU", "dynReg", "spmRd",
                "spmWr", "stFU", "stReg", "stSPM");

    for (const auto &kernel : machsuiteKernels()) {
        BenchRun run = runSalam(options, *kernel);
        const hw::PowerBreakdown &p = run.report.power;
        double total = p.totalMw();
        auto pct = [total](double v) {
            return total > 0 ? 100.0 * v / total : 0.0;
        };
        std::printf("%-14s %8.3f | %6.1f%% %6.1f%% %6.1f%% "
                    "%6.1f%% %6.1f%% %6.1f%% %6.1f%%\n",
                    kernel->name().c_str(), total,
                    pct(p.dynamicFuMw), pct(p.dynamicRegisterMw),
                    pct(p.dynamicSpmReadMw),
                    pct(p.dynamicSpmWriteMw), pct(p.staticFuMw),
                    pct(p.staticRegisterMw), pct(p.staticSpmMw));
    }
    return 0;
}
