/**
 * @file
 * The single-accelerator testbench and the run recorder.
 *
 * Testbench wires the system the paper benches, the examples and
 * most core tests measure: one scratchpad, a CommInterface whose
 * data port reaches it directly or through a modeled fabric, and a
 * ComputeUnit running one function. runSalam() runs a kernel on it
 * the way every experiment does — seed, run, golden check, power and
 * area report, per-run artifacts — and runSalamMode() applies the
 * --sim-mode policy, serving a point from the trace-reuse fast path
 * when that is sound. recordRun() is the one writer of run records:
 * it appends them to the --store-out result store.
 *
 * Every function takes the bench's ObsOptions as an argument; none
 * reads process-global options.
 */

#ifndef SALAM_DRIVE_TESTBENCH_HH
#define SALAM_DRIVE_TESTBENCH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/power_report.hh"
#include "drive/options.hh"
#include "drive/sweep_runner.hh"
#include "drive/trace_replay.hh"
#include "mem/interconnect.hh"
#include "obs/result_store.hh"
#include "obs/run_report.hh"

namespace salam::kernels
{
class Kernel;
} // namespace salam::kernels

namespace salam::inject
{
class FaultInjector;
} // namespace salam::inject

namespace salam::obs
{
struct CriticalPathReport;
} // namespace salam::obs

namespace salam::drive
{

/** Memory configuration for the single-accelerator testbench. */
struct BenchMemory
{
    unsigned spmReadPorts = 2;
    unsigned spmWritePorts = 2;
    unsigned spmLatency = 1;
    unsigned spmBanks = 1;

    /**
     * Insert a modeled interconnect between the accelerator's data
     * port and the SPM. Default false: the historical direct port
     * bind (zero fabric latency). When true, @ref interconnect
     * selects the fabric kind and its parameters.
     */
    bool useInterconnect = false;
    mem::InterconnectConfig interconnect;
};

/**
 * One accelerator and its private scratchpad in a fresh Simulation.
 * Tracing, profiling, fault injection and watchdogs can be attached
 * to @ref sim before the first run.
 */
class Testbench
{
  public:
    /** Where the scratchpad and the accelerator's MMRs are mapped. */
    static constexpr std::uint64_t spmBase = 0x10000;
    static constexpr std::uint64_t mmrBase = 0x2000;

    /** An empty Simulation; build() adds the system. */
    Testbench() = default;

    /** Construct and build(). */
    explicit Testbench(const ir::Function &fn,
                       const core::DeviceConfig &dev = {},
                       const mem::ScratchpadConfig &spm_cfg =
                           defaultSpm(),
                       const mem::InterconnectConfig *fabric = nullptr)
    {
        build(fn, dev, spm_cfg, fabric);
    }

    /**
     * Build the system around @p fn with the scratchpad @p spm_cfg,
     * bound straight to the accelerator's data port or, when
     * @p fabric is non-null, behind an interconnect so configured.
     * Call it once.
     */
    void build(const ir::Function &fn, const core::DeviceConfig &dev,
               const mem::ScratchpadConfig &spm_cfg,
               const mem::InterconnectConfig *fabric = nullptr);

    Simulation sim;
    mem::Scratchpad *spm = nullptr;
    core::CommInterface *comm = nullptr;
    core::ComputeUnit *cu = nullptr;

    /** Start the kernel, run it to completion; returns cycles. */
    std::uint64_t run(const std::vector<ir::RuntimeValue> &args);

    /**
     * Seed @p kernel's inputs at spmBase, run it to completion, and
     * return its golden check ("" when the results are right).
     */
    std::string runKernel(const kernels::Kernel &kernel);

    /** A 256 KiB scratchpad at spmBase: 1-cycle, 4+4 ports. */
    static mem::ScratchpadConfig defaultSpm();

    /**
     * The scratchpad runSalam() gives @p kernel: its footprint
     * rounded up to 4 KiB plus one spare 4 KiB page, at spmBase, with
     * @p memcfg's ports, latency and banks.
     */
    static mem::ScratchpadConfig
    kernelSpm(const kernels::Kernel &kernel, const BenchMemory &memcfg);
};

/** Everything an experiment wants to know about one run. */
struct BenchRun
{
    std::uint64_t cycles = 0;
    core::EngineStats stats;
    core::AcceleratorReport report;
    std::uint64_t spmReads = 0;
    std::uint64_t spmWrites = 0;
    /** Wall-clock seconds: IR construction + optimization. */
    double compileSeconds = 0.0;
    /** Wall-clock seconds: timed simulation. */
    double simulateSeconds = 0.0;
    /**
     * How this run was produced: "full" (event-driven simulation),
     * "fast" (trace-reuse replay), or "full-fallback" (fast was
     * requested but a blocker forced full simulation).
     */
    std::string simMode = "full";
    /** Why the fast path was declined (simMode "full-fallback"). */
    std::string fallbackReason;

    double
    runtimeUs(const core::DeviceConfig &dev) const
    {
        return static_cast<double>(cycles) *
            static_cast<double>(dev.clockPeriod) / 1e6;
    }
};

/**
 * Fingerprint of the timing-relevant knobs of one testbench run —
 * the RunReport configHash that runSalam() records. A sweep computes
 * it for a point it has NOT run yet as the --resume lookup key
 * (SweepRunner::Options::pointHash).
 */
std::uint64_t runConfigHash(const std::string &kernel_name,
                            const core::DeviceConfig &dev,
                            const BenchMemory &memcfg);

/**
 * Build the fault injector described by --inject/--inject-seed and
 * attach it to @p sim; nullptr when no faults were requested. The
 * caller owns the injector (it must outlive sim.run()).
 */
std::unique_ptr<inject::FaultInjector>
makeFaultInjector(const ObsOptions &options, Simulation &sim);

/** Print every fault that fired, for campaign replay comparison. */
void printInjectionLog(const inject::FaultInjector *injector);

/**
 * Graceful-degradation hook for a run: when it dies through fatal()
 * (wrong results, watchdog, injected deadlock), flush the trace, the
 * stats and a run record carrying the fatal outcome, so a campaign
 * still gets machine-readable artifacts. The returned RAII handle
 * deregisters the hook when the normal path takes over; the hook
 * refers to @p options and @p sim, which must outlive it.
 */
ScopedTerminationHook installTerminationHook(const ObsOptions &options,
                                             Simulation &sim,
                                             std::string run_name);

/** Whether @p options ask for run records (a --store-out store). */
bool recordsRuns(const ObsOptions &options);

/**
 * Record one run: append @p report as a kind="run" record, and
 * @p records (profile or injection records) after it, to the
 * --store-out store, under the ReportIo host phase. Stamps the
 * command line and the bench name; a no-op without a store.
 */
void recordRun(const ObsOptions &options, obs::RunReport report,
               std::vector<obs::StoreRecord> records = {});

/**
 * Write a per-run file the user asked for; each fatal()s when the
 * file cannot be written. writeTraceFile writes @p sim's Chrome
 * trace, a no-op while tracing is off; writeProfileFiles writes
 * @p profile's JSON to @p path and its folded stacks beside it
 * (@p path + ".folded").
 */
void writeStatsFile(const Simulation &sim, const std::string &path);
void writeTraceFile(Simulation &sim, const std::string &path);
void writeProfileFiles(const obs::CriticalPathReport &profile,
                       const std::string &path);

/**
 * Run @p kernel on the testbench with its kernelSpm() scratchpad.
 * fatal()s if the functional check fails — an experiment over wrong
 * results is meaningless.
 */
BenchRun runSalam(const ObsOptions &options,
                  const kernels::Kernel &kernel,
                  const core::DeviceConfig &dev = {},
                  const BenchMemory &memcfg = {});

/**
 * Build @p kernel's IR once, capture its dynamic trace on that IR,
 * and validate the trace for the replays that will re-schedule it.
 * The capture run uses the cheapest sound configuration — dedicated
 * FUs and wide memory minimize its cycle count — while matching
 * @p dev's block-sequential import regime, the one knob that must
 * agree between capture and replay. It is internal: it writes no
 * artifacts or records and arms no watchdog. fatal()s on a wrong
 * result.
 */
TraceCache::Entry captureTraceEntry(const kernels::Kernel &kernel,
                                    const core::DeviceConfig &dev);

/** The replay's model of the scratchpad @p spm. */
ReplaySpmConfig replaySpmConfig(const mem::ScratchpadConfig &spm);

/**
 * Run one sweep point under the --sim-mode policy: "full" simulates,
 * "fast"/"auto" replay the kernel's cached dynamic trace, falling
 * back to full simulation when fastPathBlocker() reports the point's
 * configuration could change data-dependent control flow, fault
 * injection is active, or a per-run artifact (--trace-out,
 * --stats-out, --profile-out, --stats-interval) is asked for. "fast"
 * warns on fallback, "auto" is silent. A replayed point records the
 * same configHash and numeric fields as a full run of it, so
 * `salam-query diff` pairs fast and full stores.
 *
 * @param trace_key Identity of the (kernel variant, input) pair
 *        beyond kernel.name() — e.g. "n32u32" for a GEMM size and
 *        unroll. Two calls with the same name and key MUST build
 *        identical IR and seed identical data.
 */
BenchRun runSalamMode(const ObsOptions &options,
                      const kernels::Kernel &kernel,
                      const std::string &trace_key,
                      const core::DeviceConfig &dev = {},
                      const BenchMemory &memcfg = {});

/**
 * The sweep thread count a bench should use: --sweep-threads, with
 * @p default_threads standing in for its default of 1, unless a
 * per-run artifact or fault option is active. Those options target
 * "the run" (last-writer-wins trace/stats files, injection logs on
 * stdout), which only makes sense serially, so they force 1 thread
 * with a warning.
 */
unsigned effectiveSweepThreads(const ObsOptions &options,
                               unsigned default_threads = 1);

/**
 * SweepRunner options honouring the bench flags: the effective
 * thread count, host telemetry, the --store-out store (sweeps add
 * per-point and summary records), point timeouts, retries and
 * --resume.
 */
SweepRunner::Options sweepRunnerOptions(const ObsOptions &options);

/**
 * End a sweep: write the scaling summary + per-worker Chrome trace
 * when --host-telemetry-out was given (fatal() on I/O failure — the
 * user asked for the file), and return the process exit code:
 * interruptedExitCode (75, EX_TEMPFAIL) when the run was drained by
 * SIGINT/SIGTERM — distinct from both success and failure so
 * wrappers know to --resume — else 0.
 */
int finishSweep(const ObsOptions &options, const SweepRunner &runner,
                const std::string &name);

} // namespace salam::drive

#endif // SALAM_DRIVE_TESTBENCH_HH
