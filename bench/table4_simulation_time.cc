/**
 * @file
 * Table IV reproduction: simulator setup and runtime execution
 * timing, gem5-SALAM vs the trace-based baseline.
 *
 * The baseline pays for instrumented execution + trace-file I/O in
 * preprocessing, and for trace loading + DDDG construction in
 * simulation; gem5-SALAM's only preprocessing is compiling the
 * kernel (building + optimizing IR), and its simulation operates on
 * the static CDFG with small runtime queues. The paper reports
 * average speedups of 123x (preprocess) and 697x (simulate); the
 * shape to reproduce is preprocessing much faster across the board
 * and simulation faster particularly for kernels with large traces.
 *
 * Beyond the table, this bench is the repo's simulation-rate probe:
 * it writes BENCH_simrate.json with per-kernel simulated-ticks per
 * wall-second plus a serial-vs-parallel GEMM sweep comparison, so
 * perf regressions in the engine hot path are machine-checkable.
 *
 *   --simrate-out <file>   simulation-rate JSON path (default
 *                          BENCH_simrate.json)
 *   --gemm-only            probe mode: only the GEMM kernel and the
 *                          sweep section (fast, used by check.sh)
 *   --no-sweep             skip the serial-vs-parallel sweep legs
 *                          (single-run timing only; the telemetry
 *                          overhead gate uses this)
 */

#include <cmath>
#include <fstream>
#include <thread>

#include "baseline/aladdin.hh"
#include "common.hh"
#include "drive/sweep_runner.hh"

using namespace salam;
using namespace salam::bench;
using namespace salam::drive;
using namespace salam::kernels;
using namespace salam::baseline;

namespace
{

struct KernelRate
{
    std::string name;
    std::uint64_t cycles = 0;
    double wallSeconds = 0.0;
    double ticksPerSec = 0.0;
};

/**
 * Time an 8-point GEMM port/FU sweep at the given worker count and
 * return wall-clock seconds. The points are identical between calls
 * so serial and parallel legs do the same work.
 */
double
timedGemmSweep(const ObsOptions &options, unsigned threads,
               drive::SweepHostSummary *host = nullptr)
{
    struct Config
    {
        unsigned fuLimit;
        unsigned ports;
    };
    std::vector<Config> grid;
    for (unsigned fu_limit : {16u, 64u})
        for (unsigned ports : {4u, 8u, 16u, 32u})
            grid.push_back({fu_limit, ports});

    drive::SweepRunner::Options opts;
    opts.threads = threads;
    // The probe legs always carry host telemetry: the scaling
    // summary (worker busy fractions, lock-wait share) goes into
    // the simrate JSON so parallel-efficiency regressions are
    // machine-checkable, not just the headline speedup.
    opts.hostTelemetry = true;
    opts.captureSimTracePoint = -1;
    opts.store = resultStore(options);
    opts.storeName = options.benchName;
    drive::SweepRunner runner(opts);
    auto results = runner.run(grid.size(), [&](std::size_t idx) {
        auto kernel = makeGemm(32, 32);
        core::DeviceConfig dev;
        dev.setFuLimit(hw::FuType::FpAddSubDouble,
                       grid[idx].fuLimit);
        dev.setFuLimit(hw::FuType::FpMultiplierDouble,
                       grid[idx].fuLimit);
        dev.readPortsPerCycle = grid[idx].ports;
        dev.writePortsPerCycle = grid[idx].ports;
        dev.readQueueSize = std::max(grid[idx].ports, 16u);
        dev.writeQueueSize = std::max(grid[idx].ports, 16u);
        BenchMemory memcfg;
        memcfg.spmReadPorts = grid[idx].ports;
        memcfg.spmWritePorts = grid[idx].ports;
        runSalam(options, *kernel, dev, memcfg);
        return std::string();
    });
    for (const auto &r : results) {
        // "skipped" = SIGINT/SIGTERM drain: the probe is cut short
        // but should still exit through the interrupted path, not
        // fatal() over a point that never ran.
        if (!r.ok && r.outcome != "skipped")
            fatal("sweep point %zu failed: %s", r.index,
                  r.error.c_str());
    }
    if (host != nullptr)
        *host = runner.hostSummary();
    return runner.lastWallSeconds();
}

void
writeSimrateJson(const std::string &path,
                 const std::vector<KernelRate> &rates,
                 unsigned sweep_threads, double serial_seconds,
                 double parallel_seconds,
                 const drive::SweepHostSummary *parallel_host)
{
    std::ofstream os(path);
    if (!os) {
        warn("cannot write %s", path.c_str());
        return;
    }
    core::DeviceConfig dev;
    os << "{\"bench\": \"table4_simulation_time\",\n";
    os << " \"clock_period_ticks\": " << dev.clockPeriod << ",\n";
    os << " \"kernels\": [\n";
    for (std::size_t i = 0; i < rates.size(); ++i) {
        const KernelRate &r = rates[i];
        os << "  {\"kernel\": \"" << obs::jsonEscape(r.name)
           << "\", \"cycles\": " << r.cycles
           << ", \"wall_seconds\": " << obs::jsonNumber(r.wallSeconds)
           << ", \"ticks_per_sec\": "
           << obs::jsonNumber(r.ticksPerSec) << "}"
           << (i + 1 < rates.size() ? "," : "") << "\n";
    }
    os << " ],\n";
    os << " \"sweep\": {\"kernel\": \"gemm\", \"points\": 8,\n";
    os << "  \"serial_wall_seconds\": "
       << obs::jsonNumber(serial_seconds) << ",\n";
    os << "  \"threads\": " << sweep_threads << ",\n";
    // Speedup is only interpretable against the machine that
    // measured it: a 4-thread sweep on 2 cores SHOULD look bad.
    os << "  \"host_cores\": "
       << std::thread::hardware_concurrency() << ",\n";
    os << "  \"parallel_wall_seconds\": "
       << obs::jsonNumber(parallel_seconds) << ",\n";
    os << "  \"speedup\": "
       << obs::jsonNumber(parallel_seconds > 0.0
                              ? serial_seconds / parallel_seconds
                              : 0.0);
    if (parallel_host != nullptr) {
        os << ",\n  \"host\": ";
        parallel_host->writeJson(os);
    }
    os << "}}\n";
    inform("wrote simulation rates to %s", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string simrate_out = "BENCH_simrate.json";
    bool gemm_only = false;
    bool no_sweep = false;
    const ObsOptions options = parseObsArgs(
        argc, argv,
        {{"--simrate-out", "<file>",
          "simulation-rate JSON path (default BENCH_simrate.json)",
          [&](const std::string &v) { simrate_out = v; }, true},
         {"--gemm-only", "",
          "probe mode: only the GEMM kernel and the sweep section",
          [&](const std::string &) { gemm_only = true; }},
         {"--no-sweep", "",
          "skip the serial-vs-parallel sweep legs",
          [&](const std::string &) { no_sweep = true; }}});

    core::DeviceConfig default_dev;
    std::vector<KernelRate> rates;

    if (!gemm_only) {
        header("Table IV: simulator setup and runtime execution "
               "timing");
        std::printf("%-14s | %10s %10s | %10s %10s | %9s %9s\n",
                    "Benchmark", "tracegen", "aladdin", "compile",
                    "salam", "pre.spd", "sim.spd");

        double pre_product = 1.0, sim_product = 1.0;
        int count = 0;
        for (const auto &kernel : machsuiteKernels()) {
            // Baseline: trace generation + trace-based simulation.
            ir::Module mod("m");
            ir::IRBuilder b(mod);
            ir::Function *fn = kernel->buildOptimized(b);
            ir::FlatMemory mem;
            kernel->seed(mem, 0x10000);
            AladdinSimulator baseline;
            AladdinResult base =
                baseline.run(*fn, kernel->args(0x10000), mem);

            // gem5-SALAM: compilation + engine simulation.
            BenchRun salam_run = runSalam(options, *kernel);
            rates.push_back(
                {kernel->name(), salam_run.cycles,
                 salam_run.simulateSeconds,
                 static_cast<double>(salam_run.cycles) *
                     static_cast<double>(default_dev.clockPeriod) /
                     std::max(salam_run.simulateSeconds, 1e-9)});

            double pre_speedup = base.traceGenSeconds /
                std::max(salam_run.compileSeconds, 1e-9);
            double sim_speedup = base.simulateSeconds /
                std::max(salam_run.simulateSeconds, 1e-9);
            pre_product *= pre_speedup;
            sim_product *= sim_speedup;
            ++count;

            std::printf("%-14s | %9.4fs %9.4fs | %9.4fs %9.4fs | "
                        "%8.1fx %8.1fx\n",
                        kernel->name().c_str(),
                        base.traceGenSeconds, base.simulateSeconds,
                        salam_run.compileSeconds,
                        salam_run.simulateSeconds, pre_speedup,
                        sim_speedup);
        }
        std::printf("\nGeomean speedup: preprocess %.1fx, simulate "
                    "%.1fx (paper averages: 123x / 697x)\n",
                    std::pow(pre_product, 1.0 / count),
                    std::pow(sim_product, 1.0 / count));
    } else {
        header("Simulation-rate probe (GEMM only)");
        for (const auto &kernel : machsuiteKernels()) {
            if (kernel->name() != "gemm")
                continue;
            BenchRun salam_run = runSalam(options, *kernel);
            rates.push_back(
                {kernel->name(), salam_run.cycles,
                 salam_run.simulateSeconds,
                 static_cast<double>(salam_run.cycles) *
                     static_cast<double>(default_dev.clockPeriod) /
                     std::max(salam_run.simulateSeconds, 1e-9)});
        }
        if (rates.empty())
            fatal("no gemm kernel in the MachSuite set");
    }

    for (const KernelRate &r : rates) {
        std::printf("%-14s %12llu cycles %9.4fs  %.3e ticks/s\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.cycles),
                    r.wallSeconds, r.ticksPerSec);
    }

    if (no_sweep) {
        writeSimrateJson(simrate_out, rates, 0, 0.0, 0.0, nullptr);
        return 0;
    }

    // Serial vs parallel sweep: the same 8 GEMM points, once on one
    // thread and once on the worker pool. --sweep-threads 0 means
    // "all hardware threads" (resolveThreads); the default probe
    // width stays 4, and per-run artifacts force 1 like any sweep.
    unsigned sweep_threads = drive::SweepRunner::resolveThreads(
        effectiveSweepThreads(options, 4));
    header("GEMM sweep wall-clock: serial vs parallel");
    double serial_seconds = timedGemmSweep(options, 1);
    drive::SweepHostSummary parallel_host;
    double parallel_seconds =
        timedGemmSweep(options, sweep_threads, &parallel_host);
    std::printf("8 points serial:     %.3fs\n", serial_seconds);
    std::printf("8 points, %u threads: %.3fs (%.2fx)\n",
                sweep_threads, parallel_seconds,
                parallel_seconds > 0.0
                    ? serial_seconds / parallel_seconds
                    : 0.0);

    writeSimrateJson(simrate_out, rates, sweep_threads,
                     serial_seconds, parallel_seconds,
                     &parallel_host);
    // An interrupted probe produced a truncated timing comparison;
    // the distinct exit code tells wrappers not to trust it.
    if (drive::SweepRunner::shutdownRequested())
        return drive::SweepRunner::interruptedExitCode;
    return 0;
}
