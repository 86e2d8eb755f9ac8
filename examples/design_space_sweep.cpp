/**
 * @file
 * Design-space sweep: the Sec. IV-D workflow — sweep datapath and
 * memory parameters independently and emit a CSV for Pareto
 * analysis (the decoupling that trace-based models cannot offer).
 *
 * Each grid point is an independent Simulation, so the sweep runs
 * on a SweepRunner pool: every point gets its own SimContext and
 * the CSV rows come out in grid order no matter which worker
 * finished first.
 *
 * Build & run:  ./build/examples/design_space_sweep [threads] [telemetry.json] > sweep.csv
 *               (threads: worker count, 0 = all cores, default 1;
 *               telemetry.json: host-telemetry summary + Chrome
 *               trace of per-worker timelines)
 */

#include <cstdio>
#include <cstdlib>

#include "drive/sweep_runner.hh"
#include "drive/sweep_spec.hh"
#include "drive/testbench.hh"
#include "kernels/machsuite.hh"

using namespace salam;
using namespace salam::kernels;

namespace
{

struct Point
{
    std::uint64_t cycles;
    double powerMw;
    double areaUm2;
};

Point
evaluate(unsigned unroll, unsigned fp_units, unsigned ports)
{
    auto kernel = makeGemm(16, unroll);
    ir::Module mod("sweep");
    ir::IRBuilder b(mod);
    ir::Function *fn = kernel->buildOptimized(b);

    core::DeviceConfig dev;
    dev.setFuLimit(hw::FuType::FpAddSubDouble, fp_units);
    dev.setFuLimit(hw::FuType::FpMultiplierDouble, fp_units);
    dev.readPortsPerCycle = ports;
    dev.writePortsPerCycle = ports;

    mem::ScratchpadConfig scfg;
    scfg.range = mem::AddrRange{drive::Testbench::spmBase,
                                drive::Testbench::spmBase + 64 * 1024};
    scfg.readPorts = ports;
    scfg.writePorts = ports;
    drive::Testbench tb(*fn, dev, scfg);
    if (!tb.runKernel(*kernel).empty())
        fatal("sweep point produced wrong results");

    core::AcceleratorReport report = core::buildReport(*tb.cu, tb.spm);
    return Point{report.cycles, report.power.totalMw(),
                 report.area.totalUm2()};
}

} // namespace

int
main(int argc, char **argv)
{
    // The grid, declared once: axes expand row-major (first axis
    // slowest), exactly the order of the nested loops this replaces.
    drive::SweepSpec spec;
    spec.axis("unroll", {4, 8, 16})
        .axisPow("fp_units", 2, 16)
        .axisPow("ports", 2, 16);

    drive::SweepRunner::Options opts;
    opts.pointAxes = [&](std::size_t idx) {
        return spec.axesJson(idx);
    };
    if (argc > 1)
        opts.threads = static_cast<unsigned>(
            std::strtoul(argv[1], nullptr, 10));
    // Optional second argument: host-telemetry output base — writes
    // the scaling summary JSON there and a Chrome trace with
    // per-worker tracks to "<path>.trace.json".
    const char *telemetry_out = argc > 2 ? argv[2] : nullptr;
    opts.hostTelemetry = telemetry_out != nullptr;
    drive::SweepRunner runner(opts);

    std::vector<Point> points(spec.numPoints());
    auto results =
        runner.run(spec.numPoints(), [&](std::size_t idx) {
            auto v = spec.valuesAt(idx);
            points[idx] =
                evaluate(static_cast<unsigned>(v[0]),
                         static_cast<unsigned>(v[1]),
                         static_cast<unsigned>(v[2]));
            return std::string();
        });

    std::printf("unroll,fp_units,ports,cycles,time_us,power_mw,"
                "area_um2\n");
    for (std::size_t i = 0; i < spec.numPoints(); ++i) {
        if (!results[i].ok) {
            std::fprintf(stderr, "point %zu failed: %s\n", i,
                         results[i].error.c_str());
            continue;
        }
        auto v = spec.valuesAt(i);
        const Point &p = points[i];
        std::printf("%llu,%llu,%llu,%llu,%.2f,%.3f,%.0f\n",
                    static_cast<unsigned long long>(v[0]),
                    static_cast<unsigned long long>(v[1]),
                    static_cast<unsigned long long>(v[2]),
                    static_cast<unsigned long long>(p.cycles),
                    static_cast<double>(p.cycles) / 100.0,
                    p.powerMw, p.areaUm2);
    }
    std::fprintf(stderr, "# %zu points, %u threads, %.2fs wall\n",
                 spec.numPoints(), runner.lastThreads(),
                 runner.lastWallSeconds());
    if (telemetry_out != nullptr &&
        !runner.writeHostTelemetryFiles(telemetry_out,
                                        "design_space_sweep")) {
        std::fprintf(stderr, "# could not write host telemetry\n");
        return 1;
    }
    if (runner.interrupted())
        return drive::SweepRunner::interruptedExitCode;
    return 0;
}
