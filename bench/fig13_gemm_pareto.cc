/**
 * @file
 * Fig. 13 reproduction: GEMM design-space Pareto curve.
 *
 * Sweeps functional-unit allocations and memory bandwidth for the
 * GEMM accelerator and reports (execution time, power) points for
 * three accounting scopes: datapath only, datapath + SPM, and
 * datapath + cache. Over-allocated configurations show up as
 * duplicate runtimes at higher power — the paper's observation
 * motivating the co-design study of Figs. 14-15.
 *
 * The 20 points are independent simulations, so they are sharded
 * over a SweepRunner pool (--sweep-threads); results are collected
 * per point and printed in configuration order, identical to the
 * serial output.
 */

#include <sstream>

#include "common.hh"
#include "drive/sweep_runner.hh"
#include "drive/sweep_spec.hh"
#include "hw/cacti_lite.hh"

using namespace salam;
using namespace salam::bench;
using namespace salam::drive;
using namespace salam::kernels;

int
main(int argc, char **argv)
{
    // --fu-limits trims the FU axis (e.g. "16" for a 5-point slice);
    // check.sh diffs two such slices with salam-query.
    std::vector<unsigned> fu_limits = {8u, 16u, 32u, 64u};
    const ObsOptions options = parseObsArgs(
        argc, argv,
        {{"--fu-limits", "<a,b,...>",
          "comma-separated FU-allocation axis (default 8,16,32,64)",
          [&](const std::string &v) {
              fu_limits.clear();
              std::string item;
              std::istringstream is(v);
              while (std::getline(is, item, ',')) {
                  std::uint64_t limit =
                      parseUint("--fu-limits", item);
                  if (limit == 0 || limit > 4096)
                      fatal("--fu-limits: bad FU count '%s'",
                            item.c_str());
                  fu_limits.push_back(
                      static_cast<unsigned>(limit));
              }
              if (fu_limits.empty())
                  fatal("--fu-limits needs at least one count");
          }}});
    header("Fig. 13: GEMM design space Pareto sweep");
    std::printf("%-6s %-6s %10s | %12s %12s %12s\n", "fu", "ports",
                "time(us)", "datapath(mW)", "+SPM(mW)",
                "+cache(mW)");

    constexpr unsigned gemmN = 32;
    constexpr unsigned unroll = 32;

    // Declarative grid: first axis slowest, so the point numbering
    // matches the historical nested fu/ports loops (resume compat).
    drive::SweepSpec spec;
    spec.axis("fu_limit", {fu_limits.begin(), fu_limits.end()})
        .axis("ports", {4, 8, 16, 32, 64});

    // The dev/memcfg a grid point denotes, shared by the point
    // function and the resume-hash callback.
    auto point_config = [&spec](std::size_t idx,
                                core::DeviceConfig &dev,
                                BenchMemory &memcfg) {
        auto fu_limit = static_cast<unsigned>(spec.value(idx, 0));
        auto ports = static_cast<unsigned>(spec.value(idx, 1));
        dev.setFuLimit(hw::FuType::FpAddSubDouble, fu_limit);
        dev.setFuLimit(hw::FuType::FpMultiplierDouble, fu_limit);
        dev.readPortsPerCycle = ports;
        dev.writePortsPerCycle = ports;
        dev.readQueueSize = std::max(ports, 16u);
        dev.writeQueueSize = std::max(ports, 16u);
        memcfg.spmReadPorts = ports;
        memcfg.spmWritePorts = ports;
        return ports;
    };

    struct Row
    {
        double timeUs;
        double datapath;
        double withSpm;
        double withCache;
    };
    std::vector<Row> rows(spec.numPoints());

    auto sweep_opts = sweepRunnerOptions(options);
    // Resume identity: mirror the dev/memcfg construction inside the
    // point function, so the hash of an unrun point matches the
    // RunReport a completed run of it recorded.
    const std::string kernel_name = makeGemm(gemmN, unroll)->name();
    sweep_opts.pointHash = [&](std::size_t idx) {
        core::DeviceConfig dev;
        BenchMemory memcfg;
        point_config(idx, dev, memcfg);
        return runConfigHash(kernel_name, dev, memcfg);
    };
    sweep_opts.pointAxes = [&](std::size_t idx) {
        return spec.axesJson(idx);
    };
    drive::SweepRunner runner(sweep_opts);
    auto results =
        runner.run(spec.numPoints(), [&](std::size_t idx) {
        auto kernel = makeGemm(gemmN, unroll);
        core::DeviceConfig dev;
        BenchMemory memcfg;
        unsigned ports = point_config(idx, dev, memcfg);

        BenchRun run = runSalamMode(options, *kernel, "n32u32", dev, memcfg);
        const hw::PowerBreakdown &p = run.report.power;

        double datapath = p.dynamicFuMw + p.dynamicRegisterMw +
            p.staticFuMw + p.staticRegisterMw;
        double with_spm = datapath + p.dynamicSpmReadMw +
            p.dynamicSpmWriteMw + p.staticSpmMw;

        // Cache alternative: same accesses through a cache sized
        // for the working set.
        hw::SramConfig cache_cfg;
        cache_cfg.sizeBytes = 16 * 1024;
        cache_cfg.wordBytes = 8;
        cache_cfg.ports = std::max(1u, ports / 8);
        auto cache = hw::CactiLite::evaluateCache(cache_cfg, 4);
        double runtime_ns = run.report.runtimeNs;
        double with_cache = datapath +
            (static_cast<double>(run.spmReads) *
                 cache.readEnergyPj +
             static_cast<double>(run.spmWrites) *
                 cache.writeEnergyPj) /
                runtime_ns +
            cache.leakagePowerMw;

        rows[idx] = {run.runtimeUs(dev), datapath, with_spm,
                     with_cache};
        return "{\"mode\":\"" + run.simMode + "\"}";
    });

    for (std::size_t i = 0; i < spec.numPoints(); ++i) {
        auto fu = static_cast<unsigned>(spec.value(i, 0));
        auto ports = static_cast<unsigned>(spec.value(i, 1));
        if (results[i].outcome == "cached") {
            std::printf("%-6u %-6u     cached | ok in resume "
                        "store\n",
                        fu, ports);
            continue;
        }
        if (results[i].outcome == "skipped") {
            std::printf("%-6u %-6u    skipped | shutdown drain; "
                        "re-run with --resume\n",
                        fu, ports);
            continue;
        }
        if (!results[i].ok) {
            std::printf("%-6u %-6u     FAILED | %s\n", fu, ports,
                        results[i].error.c_str());
            continue;
        }
        std::printf("%-6u %-6u %10.2f | %12.3f %12.3f %12.3f\n",
                    fu, ports, rows[i].timeUs, rows[i].datapath,
                    rows[i].withSpm, rows[i].withCache);
    }
    std::printf("(%zu points, %u thread%s, %.2fs wall)\n",
                spec.numPoints(), runner.lastThreads(),
                runner.lastThreads() == 1 ? "" : "s",
                runner.lastWallSeconds());
    return finishSweep(options, runner, "fig13.gemm_pareto");
}
