/**
 * @file
 * Fig. 15 reproduction: GEMM memory/compute co-design exploration,
 * with floating-point adders held at 64 units (the co-design
 * decision reached in Sec. IV-D2).
 *
 * (a) stalled vs new-execution cycles per port configuration;
 * (b) memory-parallelism (cycles issuing loads and stores together)
 *     against FP-multiplier occupancy;
 * (c) instruction-mix of scheduled operations against execution
 *     time — optimal performance lands where the scheduled mix
 *     matches GEMM's intrinsic FLOP:memory ratio;
 * (d) the same mix against total datapath power.
 */

#include "common.hh"
#include "drive/sweep_runner.hh"
#include "drive/sweep_spec.hh"

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
    constexpr unsigned fadd_units = 64;

    struct Row
    {
        unsigned ports;
        BenchRun run;
        core::DeviceConfig dev;
    };
    drive::SweepSpec spec;
    spec.axis("ports", {64, 32, 16, 8, 4});
    std::vector<Row> rows(spec.numPoints());

    auto sweep_opts = sweepRunnerOptions(options);
    sweep_opts.pointAxes = [&](std::size_t idx) {
        return spec.axesJson(idx);
    };
    drive::SweepRunner runner(sweep_opts);
    auto results =
        runner.run(spec.numPoints(), [&](std::size_t idx) {
            auto ports = static_cast<unsigned>(spec.value(idx, 0));
            auto kernel = makeGemm(gemmN, unroll);
            core::DeviceConfig dev;
            dev.setFuLimit(hw::FuType::FpAddSubDouble, fadd_units);
            dev.readPortsPerCycle = ports;
            dev.writePortsPerCycle = ports;
            dev.readQueueSize = std::max(ports, 16u);
            dev.writeQueueSize = std::max(ports, 16u);
            BenchMemory memcfg;
            memcfg.spmReadPorts = ports;
            memcfg.spmWritePorts = ports;
            rows[idx] = {ports,
                         runSalamMode(options, *kernel, "n32u32", dev,
                                      memcfg),
                         dev};
            return "{\"mode\":\"" + rows[idx].run.simMode + "\"}";
        });
    // Interrupted (skipped) and resume-cached points carry no fresh
    // row data; drop them from the tables instead of printing
    // zeroed rows. Real failures still abort the experiment.
    std::vector<Row> fresh;
    for (const auto &r : results) {
        if (r.outcome == "skipped" || r.outcome == "cached")
            continue;
        if (!r.ok)
            fatal("sweep point %zu failed: %s", r.index,
                  r.error.c_str());
        fresh.push_back(rows[r.index]);
    }
    if (fresh.size() != rows.size())
        std::printf("(%zu of %zu points have fresh data; "
                    "cached/skipped rows omitted)\n",
                    fresh.size(), rows.size());
    rows = std::move(fresh);

    header("Fig. 15(a): datapath stalls vs memory ports "
           "(FADD = 64)");
    std::printf("%-6s %10s %10s\n", "ports", "stalled",
                "new-exec");
    for (const Row &row : rows) {
        const auto &s = row.run.stats;
        double total = static_cast<double>(s.totalCycles);
        std::printf("%-6u %9.1f%% %9.1f%%\n", row.ports,
                    100.0 * s.stallCycles / total,
                    100.0 * s.newExecCycles / total);
    }

    header("Fig. 15(b): memory parallelism vs FP multiplier "
           "occupancy");
    std::printf("%-6s %12s %12s %12s %14s\n", "ports", "ld+st",
                "load-only", "store-only", "fmul occupancy");
    for (const Row &row : rows) {
        const auto &s = row.run.stats;
        double total = static_cast<double>(s.totalCycles);
        auto fmul = static_cast<std::size_t>(
            hw::FuType::FpMultiplierDouble);
        // Occupancy: average busy fmul pipelines over the run,
        // normalized to the allocated (static) multiplier count.
        double busy_avg =
            static_cast<double>(s.fuBusyCycleSum[fmul]) / total;
        double occupancy = 100.0 * busy_avg /
            static_cast<double>(gemmN);
        std::printf("%-6u %11.1f%% %11.1f%% %11.1f%% %13.2f%%\n",
                    row.ports,
                    100.0 * s.cyclesWithLoadAndStoreIssue / total,
                    100.0 *
                        (s.cyclesWithLoadIssue -
                         s.cyclesWithLoadAndStoreIssue) /
                        total,
                    100.0 *
                        (s.cyclesWithStoreIssue -
                         s.cyclesWithLoadAndStoreIssue) /
                        total,
                    occupancy);
    }

    header("Fig. 15(c): scheduled-operation mix vs execution time");
    std::printf("%-6s %10s %10s %10s %12s\n", "ports", "load",
                "store", "fp", "cycles");
    for (const Row &row : rows) {
        const auto &s = row.run.stats;
        double issued = static_cast<double>(
            s.loadsIssued + s.storesIssued + s.fpOpsIssued);
        std::printf("%-6u %9.1f%% %9.1f%% %9.1f%% %12llu\n",
                    row.ports, 100.0 * s.loadsIssued / issued,
                    100.0 * s.storesIssued / issued,
                    100.0 * s.fpOpsIssued / issued,
                    static_cast<unsigned long long>(
                        s.totalCycles));
    }
    std::printf("(GEMM intrinsic ratio: 2 loads : 2 FLOPs per MAC; "
                "best configs issue near it)\n");

    header("Fig. 15(d): scheduled-operation mix vs datapath power");
    std::printf("%-6s %10s %10s %10s %14s\n", "ports", "load",
                "store", "fp", "power(mW)");
    for (const Row &row : rows) {
        const auto &s = row.run.stats;
        const auto &p = row.run.report.power;
        double issued = static_cast<double>(
            s.loadsIssued + s.storesIssued + s.fpOpsIssued);
        double datapath = p.dynamicFuMw + p.dynamicRegisterMw +
            p.staticFuMw + p.staticRegisterMw;
        std::printf("%-6u %9.1f%% %9.1f%% %9.1f%% %14.3f\n",
                    row.ports, 100.0 * s.loadsIssued / issued,
                    100.0 * s.storesIssued / issued,
                    100.0 * s.fpOpsIssued / issued, datapath);
    }
    return finishSweep(options, runner, "fig15.gemm_codesign");
}
