/**
 * @file
 * Shared experiment harness for the paper-reproduction benches.
 *
 * Each bench binary regenerates one table or figure from the paper.
 * The common piece is a single-accelerator testbench: kernel +
 * private scratchpad + communications interface, run to completion
 * with seeded data and checked against the golden reference, with
 * all statistics surfaced for the experiment to print.
 */

#ifndef SALAM_BENCH_COMMON_HH
#define SALAM_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/compute_unit.hh"
#include "core/dyn_trace.hh"
#include "core/power_report.hh"
#include "core/static_cdfg.hh"
#include "drive/options.hh"
#include "drive/sweep_runner.hh"
#include "drive/sweep_spec.hh"
#include "drive/trace_replay.hh"
#include "inject/fault_injector.hh"
#include "inject/progress_sentinel.hh"
#include "kernels/machsuite.hh"
#include "mem/backdoor.hh"
#include "mem/interconnect.hh"
#include "mem/scratchpad.hh"
#include "obs/critical_path.hh"
#include "obs/debug_flags.hh"
#include "obs/host_telemetry.hh"
#include "obs/interval_stats.hh"
#include "obs/result_store.hh"
#include "obs/run_report.hh"
#include "sim/simulation.hh"

namespace salam::bench
{

/**
 * Observability options shared by every bench binary. Parsed once in
 * main() by parseObsArgs(); runSalam() consults them for each run.
 */
struct ObsOptions
{
    /** Chrome trace_event JSON path; the last run's trace wins. */
    std::string traceOut;

    /** RunReport JSONL path; one line appended per run. */
    std::string reportOut;

    /** StatRegistry::dumpJson path; the last run's stats win. */
    std::string statsOut;

    /**
     * Critical-path hotspot report path (JSON); folded stacks go to
     * "<path>.folded". Enables profiling; the last run wins.
     */
    std::string profileOut;

    /** Interval-stats period in engine cycles; 0 disables. */
    std::uint64_t statsInterval = 0;

    /** Fault specs from --inject, in "kind@site[:k=v]*" grammar. */
    std::vector<std::string> injectSpecs;

    /** Campaign seed resolving unspecified nth/bit fields. */
    std::uint64_t injectSeed = 1;

    /** Watchdog no-progress window in ticks; 0 disables. */
    Tick watchdogTicks = 0;

    /** Hang state-dump destination. */
    std::string dumpOut = "state_dump.json";

    /**
     * Worker threads for design-space sweeps (0 = hardware
     * concurrency). Forced to 1 by effectiveSweepThreads() when
     * per-run artifact options are active.
     */
    unsigned sweepThreads = 1;

    /**
     * Host-performance telemetry: attribute the simulator's own
     * wall time to phases, count lock contention, and (in sweeps)
     * record per-worker timelines. Sweep-safe: per-point telemetry
     * is owned by the point's SimContext, so this does NOT force
     * --sweep-threads 1.
     */
    bool hostTelemetry = false;

    /**
     * Host-telemetry output path. Single runs write the telemetry
     * JSON here (last run wins); sweeps write the scaling summary
     * here and a Chrome trace to "<path>.trace.json".
     */
    std::string hostTelemetryOut;

    /**
     * Result-store directory (--store-out). Every run appends a
     * queryable record here (and sweeps add per-point records); the
     * store is multi-writer safe, so this does NOT force
     * --sweep-threads 1.
     */
    std::string storeOut;

    /**
     * Per-point wall-clock budget for sweeps (--point-timeout,
     * seconds; 0 disables). A point that exceeds it is terminated
     * with outcome "timeout" plus a hang dump and the pool moves on.
     */
    double pointTimeoutSeconds = 0.0;

    /** Extra attempts per failed sweep point (--point-retries). */
    unsigned pointRetries = 0;

    /**
     * Resume store path (--resume): sweep points that already have
     * an ok record there are skipped with outcome "cached".
     */
    std::string resumePath;

    /**
     * Simulation mode for sweep points (--sim-mode):
     *  - "full": every point is a complete event-driven simulation;
     *  - "fast": capture the kernel's dynamic trace once, then
     *    re-schedule it per point (trace-reuse fast path), falling
     *    back to full simulation with a warning when a point's
     *    configuration could change control flow;
     *  - "auto": like "fast" but falls back silently.
     */
    std::string simMode = "full";

    /** This bench's name (argv[0] basename), stamped on records. */
    std::string benchName;

    /** The invoking command line (argv joined with spaces). */
    std::string commandLine;
};

inline ObsOptions &
obsOptions()
{
    static ObsOptions options;
    return options;
}

/**
 * The bench process's main-thread HostTelemetry. parseObsArgs()
 * attaches it to the launching thread's SimContext when
 * --host-telemetry is given; sweep workers get their own per-point
 * instances from SweepRunner instead.
 */
inline obs::HostTelemetry &
mainHostTelemetry()
{
    static obs::HostTelemetry telemetry;
    return telemetry;
}

/**
 * One command-line option a bench accepts — the shared table-driven
 * parser from drive/options.hh. The shared observability options
 * live in one table (sharedBenchOptions()); a bench passes its extra
 * options to parseObsArgs() instead of hand-peeling argv, so every
 * binary gets the same "--opt value"/"--opt=value" handling, the
 * same unknown-argument listing, --help for free, and
 * parent-directory creation on every output path.
 */
using BenchOption = drive::Option;

using BenchOptionList = drive::OptionList;

/** Parse an unsigned integer option value; fatal()s on junk. */
inline std::uint64_t
benchParseUint(const std::string &flag, const std::string &value,
               int base = 10)
{
    return drive::parseUint(flag, value, base);
}

/** Process-wide --store-out store slot; see benchStore(). */
inline std::unique_ptr<obs::ResultStore> &
benchStoreSlot()
{
    static std::unique_ptr<obs::ResultStore> store;
    return store;
}

/**
 * The bench's --store-out result store, or null when not requested.
 * Opened by parseObsArgs(); the static slot's destructor flushes any
 * queued records at process exit (fatal() in Exit mode runs static
 * destructors too, so graceful-fatal runs still land).
 */
inline obs::ResultStore *
benchStore()
{
    return benchStoreSlot().get();
}

/** The shared observability option table. */
inline BenchOptionList
sharedBenchOptions()
{
    auto o = []() -> ObsOptions & { return obsOptions(); };
    return {
        {"--trace-out", "<file>",
         "write a Chrome trace_event JSON trace (last run wins)",
         [o](const std::string &v) { o().traceOut = v; }, true},
        {"--report-out", "<file>",
         "append one RunReport JSON line per run",
         [o](const std::string &v) { o().reportOut = v; }, true},
        {"--stats-out", "<file>",
         "write the statistics dump as JSON (last run wins)",
         [o](const std::string &v) { o().statsOut = v; }, true},
        {"--profile-out", "<file>",
         "write the critical-path hotspot report (JSON; folded "
         "stacks to <file>.folded) and enable profiling",
         [o](const std::string &v) { o().profileOut = v; }, true},
        {"--store-out", "<dir>",
         "append queryable run records to a result store "
         "(inspect with salam-query; sweep-safe)",
         [o](const std::string &v) { o().storeOut = v; }, false},
        {"--stats-interval", "<N>",
         "dump+reset statistics every N engine cycles (JSONL "
         "series next to --stats-out, or stats.intervals.jsonl)",
         [o](const std::string &v) {
             std::uint64_t cycles =
                 benchParseUint("--stats-interval", v);
             if (cycles == 0)
                 fatal("--stats-interval needs a positive cycle "
                       "count");
             o().statsInterval = cycles;
         }},
        {"--debug-flags", "<spec>",
         "enable debug flags, e.g. \"Cache,DMA\" or \"All,-Event\"",
         [](const std::string &v) {
             std::string error = obs::DebugFlagRegistry::instance()
                                     .applySpecStrict(v);
             if (!error.empty())
                 fatal("%s", error.c_str());
         }},
        {"--verbose", "", "enable inform()/warn() output",
         [](const std::string &) { LogControl::setVerbose(true); }},
        {"--inject", "<spec>",
         "inject a fault, \"kind@site[:key=value]*\" (repeatable)",
         [o](const std::string &v) { o().injectSpecs.push_back(v); }},
        {"--inject-seed", "<N>",
         "campaign seed for unspecified nth/bit",
         [o](const std::string &v) {
             o().injectSeed = benchParseUint("--inject-seed", v, 0);
         }},
        {"--watchdog", "<ticks>",
         "forward-progress watchdog window",
         [o](const std::string &v) {
             std::uint64_t ticks = benchParseUint("--watchdog", v, 0);
             if (ticks == 0)
                 fatal("--watchdog needs a positive tick count");
             o().watchdogTicks = ticks;
         }},
        {"--dump-out", "<file>",
         "hang state-dump path (default state_dump.json)",
         [o](const std::string &v) { o().dumpOut = v; }, true},
        {"--sweep-threads", "<N>",
         "worker threads for design-space sweeps (0 = all hardware "
         "threads; default 1)",
         [o](const std::string &v) {
             std::uint64_t threads =
                 benchParseUint("--sweep-threads", v);
             if (threads > 1024)
                 fatal("--sweep-threads needs a thread count "
                       "(0 = hardware concurrency), got '%s'",
                       v.c_str());
             o().sweepThreads = static_cast<unsigned>(threads);
         }},
        {"--point-timeout", "<seconds>",
         "per-point wall-clock budget in sweeps; a hung point is "
         "classified outcome=timeout and the pool moves on "
         "(0 disables)",
         [o](const std::string &v) {
             char *end = nullptr;
             double seconds = std::strtod(v.c_str(), &end);
             if (end == v.c_str() || *end != '\0' || seconds < 0.0)
                 fatal("--point-timeout needs a non-negative "
                       "seconds value, got '%s'",
                       v.c_str());
             o().pointTimeoutSeconds = seconds;
         }},
        {"--point-retries", "<N>",
         "extra attempts for a failed sweep point, with exponential "
         "backoff (default 0)",
         [o](const std::string &v) {
             o().pointRetries = static_cast<unsigned>(
                 benchParseUint("--point-retries", v));
         }},
        {"--resume", "<store>",
         "skip sweep points that already have an ok record in this "
         "result store (outcome=cached); pair with --store-out to "
         "checkpoint into the same store",
         [o](const std::string &v) { o().resumePath = v; }},
        {"--sim-mode", "<mode>",
         "sweep-point simulation mode: full (default), fast "
         "(trace-reuse re-scheduling; warns on fallback), or auto "
         "(fast with silent fallback)",
         [o](const std::string &v) {
             if (v != "full" && v != "fast" && v != "auto")
                 fatal("--sim-mode needs full, fast, or auto, got "
                       "'%s'",
                       v.c_str());
             o().simMode = v;
         }},
        {"--host-telemetry", "",
         "attribute the simulator's own wall time to host phases "
         "and count lock contention",
         [o](const std::string &) { o().hostTelemetry = true; }},
        {"--host-telemetry-out", "<file>",
         "implies --host-telemetry; single runs write the telemetry "
         "JSON here, sweeps the scaling summary plus "
         "<file>.trace.json",
         [o](const std::string &v) {
             o().hostTelemetryOut = v;
             o().hostTelemetry = true;
         }, true},
    };
}

/**
 * Parse the shared observability arguments (see
 * sharedBenchOptions() for the list) plus this bench's @p extra
 * options. Recognizes "--opt value" and "--opt=value"; --help prints
 * the combined table and exits; anything unrecognized is fatal with
 * the full option listing. Output-path option values get their
 * missing parent directories created here, at parse time, so a typo
 * fails before a long simulation instead of after it.
 */
inline void
parseObsArgs(int argc, char **argv,
             const BenchOptionList &extra = {})
{
    ObsOptions &options = obsOptions();
    for (int i = 0; i < argc; ++i) {
        if (i > 0)
            options.commandLine += ' ';
        options.commandLine += argv[i];
    }
    if (argc > 0) {
        options.benchName = argv[0];
        if (auto slash = options.benchName.find_last_of('/');
            slash != std::string::npos)
            options.benchName.erase(0, slash + 1);
    }

    BenchOptionList table = sharedBenchOptions();
    table.insert(table.end(), extra.begin(), extra.end());

    drive::ParsePolicy policy;
    policy.program = options.benchName;
    drive::parseOptions(argc, argv, table, policy);

    if (options.hostTelemetry)
        SimContext::current().setHostTelemetry(&mainHostTelemetry());
    if (!options.storeOut.empty()) {
        std::string error;
        benchStoreSlot() =
            obs::ResultStore::open(options.storeOut, &error);
        if (benchStore() == nullptr)
            fatal("--store-out: %s", error.c_str());
    }
}

/**
 * The sweep thread count a bench should actually use: --sweep-threads
 * unless a per-run artifact or fault option is active. Those options
 * target "the run" (last-writer-wins trace/stats files, injection
 * logs on stdout), which only makes sense serially — quietly running
 * them on a pool would interleave or drop artifacts.
 */
inline unsigned
effectiveSweepThreads()
{
    const ObsOptions &options = obsOptions();
    const bool perRunArtifacts = !options.traceOut.empty() ||
                                 !options.statsOut.empty() ||
                                 !options.profileOut.empty() ||
                                 options.statsInterval > 0 ||
                                 !options.injectSpecs.empty();
    if (perRunArtifacts && options.sweepThreads != 1) {
        warn("per-run artifact/inject options force "
             "--sweep-threads 1");
        return 1;
    }
    return options.sweepThreads;
}

/**
 * SweepRunner options honouring the bench flags: the effective
 * thread count, host telemetry when --host-telemetry is on, and the
 * --store-out store (sweeps add per-point and summary records).
 */
inline drive::SweepRunner::Options
sweepRunnerOptions(unsigned threads)
{
    drive::SweepRunner::Options options;
    options.threads = threads;
    options.hostTelemetry = obsOptions().hostTelemetry;
    options.store = benchStore();
    options.storeName = obsOptions().benchName;
    options.pointTimeoutSeconds = obsOptions().pointTimeoutSeconds;
    options.pointRetries = obsOptions().pointRetries;
    options.resumePath = obsOptions().resumePath;
    // Durable per-point checkpoints whenever records are kept: a
    // killed sweep then loses at most its in-flight points.
    options.durable = options.store != nullptr;
    return options;
}

/**
 * The process exit code after a sweep: interruptedExitCode (75,
 * EX_TEMPFAIL) when the run was drained by SIGINT/SIGTERM — distinct
 * from both success and failure so wrappers know to --resume — else 0.
 */
inline int
sweepExitCode(const drive::SweepRunner &runner)
{
    if (!runner.interrupted())
        return 0;
    const std::string &store = obsOptions().storeOut;
    warn("sweep interrupted; finish the remaining points with "
         "--resume %s",
         store.empty() ? "<store>" : store.c_str());
    return drive::SweepRunner::interruptedExitCode;
}

/**
 * After a sweep: write the scaling summary + per-worker Chrome
 * trace when --host-telemetry-out was given. fatal()s on I/O
 * failure — the user asked for the file.
 */
inline void
writeSweepHostTelemetry(const drive::SweepRunner &runner,
                        const std::string &name)
{
    const ObsOptions &options = obsOptions();
    if (options.hostTelemetryOut.empty())
        return;
    if (!runner.writeHostTelemetryFiles(options.hostTelemetryOut,
                                        name))
        fatal("could not write host telemetry to '%s'",
              options.hostTelemetryOut.c_str());
}

/**
 * Build the fault injector described by --inject/--inject-seed and
 * attach it to @p sim; nullptr when no faults were requested. The
 * caller owns the injector (it must outlive sim.run()).
 */
inline std::unique_ptr<inject::FaultInjector>
makeFaultInjector(Simulation &sim)
{
    const ObsOptions &options = obsOptions();
    if (options.injectSpecs.empty())
        return nullptr;
    inject::FaultPlan plan;
    plan.seed = options.injectSeed;
    for (const std::string &spec : options.injectSpecs) {
        std::string error = plan.parse(spec);
        if (!error.empty())
            fatal("--inject %s: %s", spec.c_str(), error.c_str());
    }
    auto injector = std::make_unique<inject::FaultInjector>(
        std::move(plan));
    injector->attach(sim);
    return injector;
}

/** Arm the --watchdog sentinel over @p sim; no-op when disabled. */
inline void
installWatchdog(Simulation &sim, std::function<bool()> done)
{
    const ObsOptions &options = obsOptions();
    if (options.watchdogTicks == 0)
        return;
    inject::ProgressSentinel::Config cfg;
    cfg.windowTicks = options.watchdogTicks;
    cfg.dumpPath = options.dumpOut;
    cfg.done = std::move(done);
    sim.create<inject::ProgressSentinel>("watchdog", std::move(cfg))
        .start();
}

/** Print every fault that fired, for campaign replay comparison. */
inline void
printInjectionLog(const inject::FaultInjector *injector)
{
    if (injector == nullptr)
        return;
    std::printf("injections fired: %zu\n", injector->log().size());
    for (const inject::InjectionRecord &rec : injector->log()) {
        std::printf("  tick=%llu kind=%s site=%s %s\n",
                    static_cast<unsigned long long>(rec.tick),
                    inject::faultKindName(rec.kind),
                    rec.site.c_str(), rec.detail.c_str());
    }
}

/**
 * Graceful-degradation hook for a bench run: when the run dies
 * through fatal() (wrong results, watchdog, injected deadlock), flush
 * the trace, stats, and a run report carrying the fatal outcome so
 * the campaign still gets machine-readable artifacts. The returned
 * RAII handle deregisters the hook when the normal path takes over.
 */
inline ScopedTerminationHook
benchTerminationHook(Simulation &sim, std::string run_name)
{
    return ScopedTerminationHook(
        [&sim, run_name = std::move(run_name)](
            const char *outcome, const std::string &message) {
            const ObsOptions &options = obsOptions();
            if (obs::TraceSink *sink = sim.traceSink()) {
                if (!options.traceOut.empty())
                    sink->writeChromeTraceFile(options.traceOut);
            }
            if (!options.statsOut.empty()) {
                std::ofstream os(options.statsOut);
                if (os)
                    sim.stats().dumpJson(os);
            }
            if (!options.reportOut.empty() ||
                benchStore() != nullptr) {
                obs::RunReport report;
                report.run = run_name;
                report.commandLine = options.commandLine;
                report.outcome = outcome;
                report.extra = {
                    {"fatal_message_hash",
                     static_cast<double>(
                         obs::fnv1aHash(message) & 0xFFFFFFFFull)},
                };
                report.statsJson = sim.stats().dumpJsonString();
                if (!options.reportOut.empty())
                    report.appendToFile(options.reportOut);
                if (obs::ResultStore *store = benchStore()) {
                    store->appendRunReport(report,
                                           options.benchName);
                    // The process may be about to exit(1); make the
                    // fatal record durable now.
                    store->flush();
                }
            }
        });
}

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
 * Shared --interconnect/--bus-width/--ic-credits handling: a bench
 * keeps one of these alive across parseObsArgs (append options() to
 * its extra list) and calls apply() on each BenchMemory it builds.
 */
struct InterconnectChoice
{
    /** "direct" (historical port bind), "xbar", or "axi". */
    std::string kind = "direct";
    unsigned busWidthBytes = 64;
    unsigned credits = mem::unlimitedCredits;

    bool direct() const { return kind == "direct"; }

    mem::InterconnectConfig
    config() const
    {
        mem::InterconnectConfig ic;
        ic.kind = kind == "axi" ? mem::InterconnectKind::AxiBus
                                : mem::InterconnectKind::Crossbar;
        ic.busWidthBytes = busWidthBytes;
        ic.maxOutstandingPerRequester = credits;
        return ic;
    }

    void
    apply(BenchMemory &memcfg) const
    {
        memcfg.useInterconnect = !direct();
        if (memcfg.useInterconnect)
            memcfg.interconnect = config();
    }

    BenchOptionList
    options()
    {
        return {
            {"--interconnect", "<kind>",
             "fabric between accelerator and memory: direct "
             "(default), xbar, or axi",
             [this](const std::string &v) {
                 if (v != "direct" && v != "xbar" && v != "axi")
                     fatal("--interconnect needs direct, xbar, or "
                           "axi, got '%s'",
                           v.c_str());
                 kind = v;
             }},
            {"--bus-width", "<bytes>",
             "AXI-like bus data-channel beat width in bytes "
             "(default 64)",
             [this](const std::string &v) {
                 busWidthBytes = static_cast<unsigned>(
                     benchParseUint("--bus-width", v));
             }},
            {"--ic-credits", "<N>",
             "outstanding-transaction credits per requester "
             "(default unlimited; 0 is rejected at elaboration)",
             [this](const std::string &v) {
                 credits = static_cast<unsigned>(
                     benchParseUint("--ic-credits", v));
             }},
        };
    }
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
    /** Golden-check diagnostic; empty on success. */
    std::string checkFailure;
    /** Critical-path analysis; empty unless profiling was on. */
    obs::CriticalPathReport profile;
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
 * the RunReport configHash that runSalam() records. Factored out so
 * a sweep can compute the hash of a point it has NOT run yet: the
 * --resume lookup key (SweepRunner::Options::pointHash).
 */
inline std::uint64_t
runConfigHash(const std::string &kernel_name,
              const core::DeviceConfig &dev,
              const BenchMemory &memcfg)
{
    std::string key = kernel_name + "|clk=" +
        std::to_string(dev.clockPeriod) + "|drp=" +
        std::to_string(dev.readPortsPerCycle) + "|dwp=" +
        std::to_string(dev.writePortsPerCycle) + "|rq=" +
        std::to_string(dev.readQueueSize) + "|wq=" +
        std::to_string(dev.writeQueueSize) + "|seq=" +
        std::to_string(dev.blockSequentialImport ? 1 : 0);
    // Only non-default FU limits enter the key, so configurations
    // that never touch a unit type hash the same across profiles
    // that add new types.
    for (std::size_t t = 0; t < dev.fuLimits.size(); ++t) {
        if (dev.fuLimits[t] != 0)
            key += "|fu" + std::to_string(t) + "=" +
                std::to_string(dev.fuLimits[t]);
    }
    key += "|rp=" + std::to_string(memcfg.spmReadPorts) + "|wp=" +
        std::to_string(memcfg.spmWritePorts) + "|lat=" +
        std::to_string(memcfg.spmLatency) + "|banks=" +
        std::to_string(memcfg.spmBanks);
    // Interconnect keys only enter the hash when a fabric is in the
    // path, so direct-bind configurations hash exactly as they did
    // before the interconnect existed (resume/store compatibility).
    if (memcfg.useInterconnect) {
        const mem::InterconnectConfig &ic = memcfg.interconnect;
        key += std::string("|ic=") + interconnectKindName(ic.kind) +
            "|icf=" + std::to_string(ic.forwardLatency) + "|icr=" +
            std::to_string(ic.responseLatency) + "|icq=" +
            std::to_string(ic.requestsPerCycle) + "|icw=" +
            std::to_string(ic.busWidthBytes) + "|icc=" +
            std::to_string(ic.maxOutstandingPerRequester);
    }
    return obs::fnv1aHash(key);
}

/**
 * Run @p kernel on the single-accelerator SALAM testbench.
 * fatal()s if the functional check fails — an experiment over wrong
 * results is meaningless.
 *
 * @param capture When non-null, record the run's dynamic trace here
 *        (the trace-reuse fast path's input; see runSalamMode).
 * @param suppress_artifacts Skip every user-facing artifact: traces,
 *        stats/profile files, run reports, and store records. Set
 *        for internal runs (trace capture) that must not pollute the
 *        experiment's outputs or pair up in `salam-query diff`.
 */
inline BenchRun
runSalam(const kernels::Kernel &kernel,
         const core::DeviceConfig &dev = {},
         const BenchMemory &memcfg = {},
         core::DynTrace *capture = nullptr,
         bool suppress_artifacts = false)
{
    using clock = std::chrono::steady_clock;
    BenchRun out;

    // Host telemetry (if attached to this thread's context) spans
    // the whole run: everything from IR build to the first event is
    // elaboration; sim.run() self-attributes via the event queue.
    obs::HostTelemetry *tel =
        SimContext::current().hostTelemetry();
    if (tel != nullptr)
        tel->beginPhase(obs::HostPhase::Elaboration);

    auto t0 = clock::now();
    ir::Module mod("bench");
    ir::IRBuilder builder(mod);
    ir::Function *fn = kernel.buildOptimized(builder);
    auto t1 = clock::now();

    Simulation sim;
    std::unique_ptr<inject::FaultInjector> injector =
        makeFaultInjector(sim);
    ScopedTerminationHook flush_on_fatal =
        benchTerminationHook(sim, kernel.name());
    if (!suppress_artifacts) {
        if (!obsOptions().traceOut.empty())
            sim.enableTracing();
        // A sweep may ask one representative point to capture its
        // simulated-time trace for the host-telemetry Chrome dump.
        if (tel != nullptr && tel->wantSimTraceCapture())
            sim.enableTracing();
        if (!obsOptions().profileOut.empty() ||
            obs::flag::Profile.enabled()) {
            sim.enableProfiling();
        }
    }
    constexpr std::uint64_t spm_base = 0x10000;
    std::uint64_t spm_bytes =
        ((kernel.footprintBytes() + 0xFFF) & ~0xFFFull) + 0x1000;

    mem::ScratchpadConfig scfg;
    scfg.range = mem::AddrRange{spm_base, spm_base + spm_bytes};
    scfg.latencyCycles = memcfg.spmLatency;
    scfg.readPorts = memcfg.spmReadPorts;
    scfg.writePorts = memcfg.spmWritePorts;
    scfg.banks = memcfg.spmBanks;
    auto &spm = sim.create<mem::Scratchpad>("spm", dev.clockPeriod,
                                            scfg);

    core::CommInterfaceConfig ccfg;
    ccfg.mmrRange = mem::AddrRange{0x2000, 0x2000 + 256};
    ccfg.dataPorts.push_back({"spm", {scfg.range}});
    auto &comm = sim.create<core::CommInterface>(
        "comm", dev.clockPeriod, ccfg);
    if (memcfg.useInterconnect) {
        // Route the accelerator's data traffic through a modeled
        // fabric instead of the direct bind. Validation happens in
        // makeInterconnect — before any CDFG is built.
        mem::Interconnect &fabric = mem::makeInterconnect(
            sim, "fabric", dev.clockPeriod, memcfg.interconnect);
        fabric.connectDevice(spm.port(0), scfg.range);
        mem::bindPorts(comm.dataPort(0),
                       fabric.addRequester("acc.data"));
    } else {
        mem::bindPorts(comm.dataPort(0), spm.port(0));
    }
    auto &cu =
        sim.create<core::ComputeUnit>("acc", *fn, dev, comm);
    if (capture != nullptr)
        cu.enableTraceCapture(capture);

    mem::ScratchpadBackdoor backdoor(spm);
    kernel.seed(backdoor, spm_base);

    std::unique_ptr<obs::IntervalStats> intervals;
    if (!suppress_artifacts && obsOptions().statsInterval > 0) {
        obs::IntervalStats::Config icfg;
        icfg.intervalTicks = obsOptions().statsInterval *
            static_cast<Tick>(dev.clockPeriod);
        icfg.path = obsOptions().statsOut.empty()
            ? std::string("stats.intervals.jsonl")
            : obsOptions().statsOut + ".intervals.jsonl";
        icfg.active = [&cu] { return !cu.finished(); };
        intervals = std::make_unique<obs::IntervalStats>(
            sim.eventQueue(), sim.stats(), icfg);
        intervals->setEnergyProbe([&cu, &spm] {
            return core::accumulatedDynamicEnergyPj(cu, &spm);
        });
        intervals->start();
    }

    installWatchdog(sim, [&cu] { return cu.finished(); });

    // Per-point deadline (no-op unless the SweepRunner armed one on
    // this context via --point-timeout). Point-suffixed dump path so
    // parallel workers never clobber each other's hang dumps.
    std::string deadline_dump = obsOptions().dumpOut;
    if (long pt = SimContext::current().sweepPointIndex(); pt >= 0)
        deadline_dump += ".point" + std::to_string(pt) + ".json";
    inject::armPointDeadline(sim, [&cu] { return cu.finished(); },
                             deadline_dump);

    if (tel != nullptr)
        tel->endPhase(); // Elaboration

    auto t2 = clock::now();
    cu.start(kernel.args(spm_base));
    sim.run();
    auto t3 = clock::now();

    if (!cu.finished()) {
        inject::reportHang(sim,
                           "event queue drained with kernel '" +
                               kernel.name() + "' unfinished",
                           obsOptions().dumpOut);
    }
    out.checkFailure = kernel.check(backdoor, spm_base);
    if (!out.checkFailure.empty())
        fatal("bench: %s wrong result: %s", kernel.name().c_str(),
              out.checkFailure.c_str());

    out.cycles = cu.cycleCount();
    out.stats = cu.stats();
    if (tel != nullptr)
        tel->samplePeakRss();
    out.report = core::buildReport(cu, &spm);
    out.spmReads = spm.readCount();
    out.spmWrites = spm.writeCount();
    if (capture != nullptr) {
        capture->capturedBlockSequential = dev.blockSequentialImport;
        capture->sourceConfigHash =
            runConfigHash(kernel.name(), dev, memcfg);
    }
    out.compileSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    out.simulateSeconds =
        std::chrono::duration<double>(t3 - t2).count();

    if (tel != nullptr)
        tel->beginPhase(obs::HostPhase::StatsEmit);
    sim.finalizeAll();
    if (intervals)
        intervals->finalize();
    if (sim.profilingEnabled() && !sim.profilers().empty()) {
        out.profile =
            obs::analyzeCriticalPath(*sim.profilers().front().second);
    }
    const ObsOptions &options = obsOptions();
    // The user explicitly asked for these files; failing to produce
    // one is an error, not a warning hidden behind the Warn flag.
    if (!suppress_artifacts && !options.profileOut.empty()) {
        if (!out.profile.writeJsonFile(options.profileOut))
            fatal("could not write profile to '%s'",
                  options.profileOut.c_str());
        std::string folded = options.profileOut + ".folded";
        if (!out.profile.writeFoldedFile(folded))
            fatal("could not write folded stacks to '%s'",
                  folded.c_str());
    }
    if (!options.traceOut.empty()) {
        if (obs::TraceSink *sink = sim.traceSink()) {
            if (!sink->writeChromeTraceFile(options.traceOut))
                fatal("could not write trace to '%s'",
                      options.traceOut.c_str());
        }
    }
    if (tel != nullptr && tel->wantSimTraceCapture()) {
        if (obs::TraceSink *sink = sim.traceSink())
            tel->captureSimTrace(sink->events());
    }
    if (!suppress_artifacts && !options.statsOut.empty()) {
        std::ofstream os(options.statsOut);
        if (os) {
            sim.stats().dumpJson(os);
        } else {
            fatal("could not write stats to '%s'",
                  options.statsOut.c_str());
        }
    }
    if (tel != nullptr)
        tel->endPhase(); // StatsEmit
    if (!suppress_artifacts &&
        (!options.reportOut.empty() || benchStore() != nullptr)) {
        obs::RunReport report;
        report.run = kernel.name();
        report.commandLine = options.commandLine;
        // Fingerprint the knobs that shape this run's timing. Also
        // the store's memoization key: findByConfigHash() answers
        // "has this exact configuration already been simulated?",
        // and --resume skips points whose hash already has an ok
        // record.
        report.configHash = runConfigHash(kernel.name(), dev, memcfg);
        report.cycles = out.cycles;
        report.simSeconds = out.simulateSeconds;
        report.compileSeconds = out.compileSeconds;
        report.extra = {
            {"spm_reads", static_cast<double>(out.spmReads)},
            {"spm_writes", static_cast<double>(out.spmWrites)},
            {"stall_cycles",
             static_cast<double>(out.stats.stallCycles)},
            {"dynamic_insts",
             static_cast<double>(out.stats.dynamicInstructions)},
            // Lets salam-query regress compute ticks/sec from a
            // record alone, whatever clock this point used.
            {"clock_period_ticks",
             static_cast<double>(dev.clockPeriod)},
        };
        if (injector) {
            report.extra.push_back(
                {"injections_fired",
                 static_cast<double>(injector->log().size())});
        }
        report.statsJson = sim.stats().dumpJsonString();
        // Host-side wall-time attribution for this context
        // (cumulative over the runs it has executed).
        if (tel != nullptr)
            report.hostJson = tel->dumpJsonString();
        if (!options.reportOut.empty() &&
            !report.appendToFile(options.reportOut))
            fatal("could not append run report to '%s'",
                  options.reportOut.c_str());
        if (obs::ResultStore *store = benchStore()) {
            store->appendRunReport(report, options.benchName);
            if (sim.profilingEnabled() &&
                !sim.profilers().empty()) {
                std::ostringstream prof;
                out.profile.writeJson(prof);
                obs::StoreRecord rec;
                rec.kind = "profile";
                rec.bench = options.benchName;
                rec.kernel = kernel.name();
                rec.configHash = report.configHash;
                rec.json = prof.str();
                store->append(std::move(rec));
            }
        }
    }
    printInjectionLog(injector.get());
    // Single-run telemetry dump (last run wins). Sweep workers run
    // under per-point telemetry, not the main object, so a pool
    // never races on this file — the sweep writes its own summary.
    if (!suppress_artifacts && !options.hostTelemetryOut.empty() &&
        tel != nullptr && tel == &mainHostTelemetry()) {
        std::ofstream os(options.hostTelemetryOut);
        if (!os)
            fatal("could not write host telemetry to '%s'",
                  options.hostTelemetryOut.c_str());
        tel->writeJsonWithLocks(os);
        os << "\n";
    }
    return out;
}

/**
 * Process-wide trace cache for --sim-mode fast/auto sweeps: one
 * capture run per (kernel, input) key, shared by every sweep worker.
 */
inline drive::TraceCache &
benchTraceCache()
{
    static drive::TraceCache cache;
    return cache;
}

/**
 * Capture @p kernel's dynamic trace plus the IR the replays will
 * re-schedule. The capture run uses the cheapest sound
 * configuration — dedicated FUs and wide memory minimize its cycle
 * count — while matching @p dev's block-sequential import regime,
 * the one knob that must agree between capture and replay.
 */
inline drive::TraceCache::Entry
captureTraceEntry(const kernels::Kernel &kernel,
                  const core::DeviceConfig &dev)
{
    using clock = std::chrono::steady_clock;
    auto t0 = clock::now();
    drive::TraceCache::Entry entry;

    core::DeviceConfig cap;
    cap.blockSequentialImport = dev.blockSequentialImport;
    cap.readPortsPerCycle = 64;
    cap.writePortsPerCycle = 64;
    cap.readQueueSize = 64;
    cap.writeQueueSize = 64;
    BenchMemory capmem;
    capmem.spmReadPorts = 64;
    capmem.spmWritePorts = 64;
    runSalam(kernel, cap, capmem, &entry.trace,
             /*suppress_artifacts=*/true);

    // The replays' static CDFG is rebuilt per point from this IR
    // (FU binding and latency tables depend on the point's
    // DeviceConfig); kernel IR construction is deterministic, so
    // its static ids match the capture run's.
    auto mod = std::make_shared<ir::Module>("replay");
    ir::IRBuilder builder(*mod);
    entry.fn = kernel.buildOptimized(builder);
    entry.holder = mod;

    // Validate the trace against this IR once here and share the
    // result with every replay; the check is config-independent, so
    // any elaboration of the IR works for it.
    core::StaticCdfg prep_cdfg(*entry.fn, cap);
    entry.prep = std::make_shared<const drive::ReplayPrep>(
        drive::buildReplayPrep(prep_cdfg, entry.trace));

    entry.captureSeconds =
        std::chrono::duration<double>(clock::now() - t0).count();
    return entry;
}

/**
 * Trace-reuse fast path for one sweep point: re-schedule the cached
 * trace under (@p dev, @p memcfg) without re-executing the kernel.
 * Emits a RunReport/store record with the same configHash and the
 * same numeric fields as a full run of the point, so `salam-query
 * diff` pairs fast and full stores and proves their cycle counts
 * identical. Returns simMode "fast", or falls back to full
 * simulation (simMode "full-fallback") if the replay reports a
 * trace/static mismatch.
 */
inline BenchRun
runSalamReplay(const kernels::Kernel &kernel,
               const drive::TraceCache::Entry &entry,
               const core::DeviceConfig &dev,
               const BenchMemory &memcfg)
{
    using clock = std::chrono::steady_clock;
    auto t0 = clock::now();
    core::StaticCdfg cdfg(*entry.fn, dev);
    auto t1 = clock::now();

    constexpr std::uint64_t spm_base = 0x10000;
    std::uint64_t spm_bytes =
        ((kernel.footprintBytes() + 0xFFF) & ~0xFFFull) + 0x1000;
    drive::ReplaySpmConfig spm;
    spm.rangeStart = spm_base;
    spm.latencyCycles = memcfg.spmLatency;
    spm.readPorts = memcfg.spmReadPorts;
    spm.writePorts = memcfg.spmWritePorts;
    spm.banks = memcfg.spmBanks;
    spm.wordBytes = mem::ScratchpadConfig{}.wordBytes;

    drive::TraceReplayer replayer(cdfg, dev, entry.trace, spm,
                                  entry.prep.get());
    drive::ReplayResult res = replayer.run();
    auto t2 = clock::now();
    if (!res.ok) {
        warn("trace replay failed (%s); falling back to full "
             "simulation",
             res.error.c_str());
        BenchRun full = runSalam(kernel, dev, memcfg);
        full.simMode = "full-fallback";
        full.fallbackReason = res.error;
        return full;
    }

    BenchRun out;
    out.simMode = "fast";
    out.cycles = res.stats.totalCycles;
    out.stats = res.stats;
    out.spmReads = res.spmReads;
    out.spmWrites = res.spmWrites;
    core::SpmUsage usage;
    usage.sizeBytes = spm_bytes;
    usage.wordBytes = spm.wordBytes;
    usage.readPorts = memcfg.spmReadPorts;
    usage.writePorts = memcfg.spmWritePorts;
    usage.banks = memcfg.spmBanks;
    usage.reads = res.spmReads;
    usage.writes = res.spmWrites;
    out.report = core::buildReport(cdfg, dev, res.stats, &usage);
    out.compileSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    out.simulateSeconds =
        std::chrono::duration<double>(t2 - t1).count();

    const ObsOptions &options = obsOptions();
    if (!options.reportOut.empty() || benchStore() != nullptr) {
        obs::RunReport report;
        report.run = kernel.name();
        report.commandLine = options.commandLine;
        report.configHash = runConfigHash(kernel.name(), dev, memcfg);
        report.cycles = out.cycles;
        report.simSeconds = out.simulateSeconds;
        report.compileSeconds = out.compileSeconds;
        report.extra = {
            {"spm_reads", static_cast<double>(out.spmReads)},
            {"spm_writes", static_cast<double>(out.spmWrites)},
            {"stall_cycles",
             static_cast<double>(out.stats.stallCycles)},
            {"dynamic_insts",
             static_cast<double>(out.stats.dynamicInstructions)},
            {"clock_period_ticks",
             static_cast<double>(dev.clockPeriod)},
            // Fast-path-only keys: unshared keys are never compared
            // by `salam-query diff`, and *_seconds fields are noisy
            // by convention, so these don't perturb the
            // fast-vs-full equivalence gate.
            {"fast_path", 1.0},
            {"capture_seconds", entry.captureSeconds},
        };
        if (!options.reportOut.empty() &&
            !report.appendToFile(options.reportOut))
            fatal("could not append run report to '%s'",
                  options.reportOut.c_str());
        if (obs::ResultStore *store = benchStore())
            store->appendRunReport(report, options.benchName);
    }
    return out;
}

/**
 * Run one sweep point under the --sim-mode policy: "full" simulates,
 * "fast"/"auto" replay the kernel's cached dynamic trace, falling
 * back to full simulation when fastPathBlocker() reports the point's
 * configuration could change data-dependent control flow (or fault
 * injection is active). "fast" warns on fallback, "auto" is silent.
 *
 * @param trace_key Identity of the (kernel variant, input) pair
 *        beyond kernel.name() — e.g. "n32u32" for a GEMM size and
 *        unroll. Two calls with the same name and key MUST build
 *        identical IR and seed identical data.
 */
inline BenchRun
runSalamMode(const kernels::Kernel &kernel,
             const std::string &trace_key,
             const core::DeviceConfig &dev = {},
             const BenchMemory &memcfg = {})
{
    const ObsOptions &options = obsOptions();
    if (options.simMode == "full")
        return runSalam(kernel, dev, memcfg);

    std::string blocker;
    drive::TraceCache::EntryPtr entry;
    if (!options.injectSpecs.empty()) {
        blocker = "fault injection makes outcomes "
                  "schedule-dependent";
    } else {
        entry = benchTraceCache().getOrBuild(
            kernel.name() + "|" + trace_key,
            [&] { return captureTraceEntry(kernel, dev); });
        blocker = drive::fastPathBlocker(entry->trace, dev, false,
                                         memcfg.useInterconnect);
    }
    if (!blocker.empty()) {
        if (options.simMode == "fast")
            warn("--sim-mode fast: falling back to full "
                 "simulation: %s",
                 blocker.c_str());
        BenchRun full = runSalam(kernel, dev, memcfg);
        full.simMode = "full-fallback";
        full.fallbackReason = blocker;
        return full;
    }
    return runSalamReplay(kernel, *entry, dev, memcfg);
}

/** Percent error of @p measured against @p reference. */
inline double
pctError(double measured, double reference)
{
    if (reference == 0.0)
        return 0.0;
    return 100.0 * (measured - reference) / reference;
}

/** Print a section header. */
inline void
header(const char *title)
{
    std::printf("\n=== %s ===\n", title);
}

} // namespace salam::bench

#endif // SALAM_BENCH_COMMON_HH
