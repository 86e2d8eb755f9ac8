#include "drive/testbench.hh"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/static_cdfg.hh"
#include "inject/fault_injector.hh"
#include "inject/progress_sentinel.hh"
#include "kernels/kernel.hh"
#include "mem/backdoor.hh"
#include "obs/critical_path.hh"
#include "obs/debug_flags.hh"
#include "obs/host_telemetry.hh"
#include "obs/interval_stats.hh"

namespace salam::drive
{

void
Testbench::build(const ir::Function &fn, const core::DeviceConfig &dev,
                 const mem::ScratchpadConfig &spm_cfg,
                 const mem::InterconnectConfig *fabric)
{
    spm = &sim.create<mem::Scratchpad>("spm", dev.clockPeriod, spm_cfg);

    core::CommInterfaceConfig ccfg;
    ccfg.mmrRange = mem::AddrRange{mmrBase, mmrBase + 256};
    ccfg.dataPorts.push_back({"spm", {spm_cfg.range}});
    comm = &sim.create<core::CommInterface>("comm", dev.clockPeriod,
                                            ccfg);
    if (fabric != nullptr) {
        // Route the accelerator's data traffic through a modeled
        // fabric instead of the direct bind. Validation happens in
        // makeInterconnect — before any CDFG is built.
        mem::Interconnect &ic = mem::makeInterconnect(
            sim, "fabric", dev.clockPeriod, *fabric);
        ic.connectDevice(spm->port(0), spm_cfg.range);
        mem::bindPorts(comm->dataPort(0), ic.addRequester("acc.data"));
    } else {
        mem::bindPorts(comm->dataPort(0), spm->port(0));
    }
    cu = &sim.create<core::ComputeUnit>("acc", fn, dev, *comm);
}

std::uint64_t
Testbench::run(const std::vector<ir::RuntimeValue> &args)
{
    cu->start(args);
    sim.run();
    SALAM_ASSERT(cu->finished());
    return cu->cycleCount();
}

std::string
Testbench::runKernel(const kernels::Kernel &kernel)
{
    mem::ScratchpadBackdoor backdoor(*spm);
    kernel.seed(backdoor, spmBase);
    run(kernel.args(spmBase));
    return kernel.check(backdoor, spmBase);
}

mem::ScratchpadConfig
Testbench::defaultSpm()
{
    mem::ScratchpadConfig cfg;
    cfg.range = mem::AddrRange{spmBase, spmBase + 256 * 1024};
    cfg.latencyCycles = 1;
    cfg.readPorts = 4;
    cfg.writePorts = 4;
    return cfg;
}

mem::ScratchpadConfig
Testbench::kernelSpm(const kernels::Kernel &kernel,
                     const BenchMemory &memcfg)
{
    std::uint64_t bytes =
        ((kernel.footprintBytes() + 0xFFF) & ~0xFFFull) + 0x1000;
    mem::ScratchpadConfig cfg;
    cfg.range = mem::AddrRange{spmBase, spmBase + bytes};
    cfg.latencyCycles = memcfg.spmLatency;
    cfg.readPorts = memcfg.spmReadPorts;
    cfg.writePorts = memcfg.spmWritePorts;
    cfg.banks = memcfg.spmBanks;
    return cfg;
}

std::uint64_t
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

std::unique_ptr<inject::FaultInjector>
makeFaultInjector(const ObsOptions &options, Simulation &sim)
{
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

void
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

ScopedTerminationHook
installTerminationHook(const ObsOptions &options, Simulation &sim,
                       std::string run_name)
{
    return ScopedTerminationHook(
        [&options, &sim, run_name = std::move(run_name)](
            const char *outcome, const std::string &message) {
            if (obs::TraceSink *sink = sim.traceSink()) {
                if (!options.traceOut.empty())
                    sink->writeChromeTraceFile(options.traceOut);
            }
            if (!options.statsOut.empty()) {
                std::ofstream os(options.statsOut);
                if (os)
                    sim.stats().dumpJson(os);
            }
            if (!recordsRuns(options))
                return;
            obs::RunReport report;
            report.run = run_name;
            report.outcome = outcome;
            report.extra = {
                {"fatal_message_hash",
                 static_cast<double>(obs::fnv1aHash(message) &
                                     0xFFFFFFFFull)},
            };
            report.statsJson = sim.stats().dumpJsonString();
            recordRun(options, std::move(report));
            // The process may be about to exit(1); make the fatal
            // record durable now.
            if (obs::ResultStore *store = resultStore(options))
                store->flush();
        });
}

bool
recordsRuns(const ObsOptions &options)
{
    return !options.storeOut.empty();
}

void
recordRun(const ObsOptions &options, obs::RunReport report,
          std::vector<obs::StoreRecord> records)
{
    obs::ResultStore *store = resultStore(options);
    if (store == nullptr)
        return;
    obs::ScopedHostPhase phase(obs::HostPhase::ReportIo);
    report.commandLine = options.commandLine;
    store->appendRunReport(report, options.benchName);
    for (obs::StoreRecord &rec : records) {
        rec.bench = options.benchName;
        store->append(std::move(rec));
    }
}

void
writeStatsFile(const Simulation &sim, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        fatal("could not write stats to '%s'", path.c_str());
    sim.stats().dumpJson(os);
}

void
writeTraceFile(Simulation &sim, const std::string &path)
{
    obs::TraceSink *sink = sim.traceSink();
    if (sink != nullptr && !sink->writeChromeTraceFile(path))
        fatal("could not write trace to '%s'", path.c_str());
}

void
writeProfileFiles(const obs::CriticalPathReport &profile,
                  const std::string &path)
{
    if (!profile.writeJsonFile(path))
        fatal("could not write profile to '%s'", path.c_str());
    std::string folded = path + ".folded";
    if (!profile.writeFoldedFile(folded))
        fatal("could not write folded stacks to '%s'", folded.c_str());
}

namespace
{

/**
 * Options that ask for an artifact of "the run": last-writer-wins
 * trace, stats, profile and interval files. Only a full simulation
 * produces them, one run at a time.
 */
bool
perRunArtifacts(const ObsOptions &options)
{
    return !options.traceOut.empty() || !options.statsOut.empty() ||
        !options.profileOut.empty() || options.statsInterval > 0;
}

/** Arm the --watchdog sentinel over @p sim; no-op when disabled. */
void
installWatchdog(const ObsOptions &options, Simulation &sim,
                std::function<bool()> done)
{
    if (options.watchdogTicks == 0)
        return;
    inject::ProgressSentinel::Config cfg;
    cfg.windowTicks = options.watchdogTicks;
    cfg.dumpPath = options.dumpOut;
    cfg.done = std::move(done);
    sim.create<inject::ProgressSentinel>("watchdog", std::move(cfg))
        .start();
}

/**
 * The RunReport fields a full run and a replay of the same point
 * share, so `salam-query diff` pairs their records.
 */
obs::RunReport
pointReport(const kernels::Kernel &kernel, const core::DeviceConfig &dev,
            const BenchMemory &memcfg, const BenchRun &run)
{
    obs::RunReport report;
    report.run = kernel.name();
    // Fingerprint the knobs that shape this run's timing. Also the
    // store's memoization key: findByConfigHash() answers "has this
    // exact configuration already been simulated?", and --resume
    // skips points whose hash already has an ok record.
    report.configHash = runConfigHash(kernel.name(), dev, memcfg);
    report.cycles = run.cycles;
    report.simSeconds = run.simulateSeconds;
    report.compileSeconds = run.compileSeconds;
    report.extra = {
        {"spm_reads", static_cast<double>(run.spmReads)},
        {"spm_writes", static_cast<double>(run.spmWrites)},
        {"stall_cycles", static_cast<double>(run.stats.stallCycles)},
        {"dynamic_insts",
         static_cast<double>(run.stats.dynamicInstructions)},
        // Lets salam-query regress compute ticks/sec from a record
        // alone, whatever clock this point used.
        {"clock_period_ticks", static_cast<double>(dev.clockPeriod)},
    };
    return report;
}

/** runSalam(): one full simulation of @p kernel, with its outputs. */
BenchRun
runFull(const ObsOptions &options, const kernels::Kernel &kernel,
        const core::DeviceConfig &dev, const BenchMemory &memcfg)
{
    using clock = std::chrono::steady_clock;
    BenchRun out;

    // Host telemetry (if attached to this thread's context) spans
    // the whole run: everything from IR build to the first event is
    // elaboration; sim.run() self-attributes via the event queue.
    obs::HostTelemetry *tel = SimContext::current().hostTelemetry();
    if (tel != nullptr)
        tel->beginPhase(obs::HostPhase::Elaboration);

    auto t0 = clock::now();
    ir::Module mod("bench");
    ir::IRBuilder builder(mod);
    ir::Function *fn = kernel.buildOptimized(builder);
    auto t1 = clock::now();

    Testbench tb;
    Simulation &sim = tb.sim;
    std::unique_ptr<inject::FaultInjector> injector =
        makeFaultInjector(options, sim);
    ScopedTerminationHook flush_on_fatal =
        installTerminationHook(options, sim, kernel.name());
    if (!options.traceOut.empty())
        sim.enableTracing();
    // A sweep may ask one representative point to capture its
    // simulated-time trace for the host-telemetry Chrome dump.
    if (tel != nullptr && tel->wantSimTraceCapture())
        sim.enableTracing();
    if (!options.profileOut.empty() || obs::flag::Profile.enabled())
        sim.enableProfiling();
    tb.build(*fn, dev, Testbench::kernelSpm(kernel, memcfg),
             memcfg.useInterconnect ? &memcfg.interconnect : nullptr);
    core::ComputeUnit &cu = *tb.cu;

    mem::ScratchpadBackdoor backdoor(*tb.spm);
    kernel.seed(backdoor, Testbench::spmBase);

    std::unique_ptr<obs::IntervalStats> intervals;
    if (options.statsInterval > 0) {
        obs::IntervalStats::Config icfg;
        icfg.intervalTicks =
            options.statsInterval * static_cast<Tick>(dev.clockPeriod);
        icfg.path = options.statsOut.empty()
            ? std::string("stats.intervals.jsonl")
            : options.statsOut + ".intervals.jsonl";
        icfg.active = [&cu] { return !cu.finished(); };
        intervals = std::make_unique<obs::IntervalStats>(
            sim.eventQueue(), sim.stats(), icfg);
        intervals->setEnergyProbe([&cu, &tb] {
            return core::accumulatedDynamicEnergyPj(cu, tb.spm);
        });
        intervals->start();
    }

    installWatchdog(options, sim, [&cu] { return cu.finished(); });

    // Per-point deadline (no-op unless the SweepRunner armed one on
    // this context via --point-timeout). Point-suffixed dump path so
    // parallel workers never clobber each other's hang dumps.
    std::string deadline_dump = options.dumpOut;
    if (long pt = SimContext::current().sweepPointIndex(); pt >= 0)
        deadline_dump += ".point" + std::to_string(pt) + ".json";
    inject::armPointDeadline(sim, [&cu] { return cu.finished(); },
                             deadline_dump);

    if (tel != nullptr)
        tel->endPhase(); // Elaboration

    auto t2 = clock::now();
    cu.start(kernel.args(Testbench::spmBase));
    sim.run();
    auto t3 = clock::now();

    if (!cu.finished()) {
        inject::reportHang(sim,
                           "event queue drained with kernel '" +
                               kernel.name() + "' unfinished",
                           options.dumpOut);
    }
    std::string failure = kernel.check(backdoor, Testbench::spmBase);
    if (!failure.empty())
        fatal("bench: %s wrong result: %s", kernel.name().c_str(),
              failure.c_str());

    out.cycles = cu.cycleCount();
    out.stats = cu.stats();
    if (tel != nullptr)
        tel->samplePeakRss();
    out.report = core::buildReport(cu, tb.spm);
    out.spmReads = tb.spm->readCount();
    out.spmWrites = tb.spm->writeCount();
    out.compileSeconds = std::chrono::duration<double>(t1 - t0).count();
    out.simulateSeconds =
        std::chrono::duration<double>(t3 - t2).count();

    if (tel != nullptr)
        tel->beginPhase(obs::HostPhase::StatsEmit);
    sim.finalizeAll();
    if (intervals)
        intervals->finalize();
    const bool profiled =
        sim.profilingEnabled() && !sim.profilers().empty();
    obs::CriticalPathReport profile;
    if (profiled)
        profile = obs::analyzeCriticalPath(*sim.profilers().front().second);
    // The user explicitly asked for these files; failing to produce
    // one is an error, not a warning hidden behind the Warn flag.
    if (!options.profileOut.empty())
        writeProfileFiles(profile, options.profileOut);
    if (!options.traceOut.empty())
        writeTraceFile(sim, options.traceOut);
    if (tel != nullptr && tel->wantSimTraceCapture()) {
        if (obs::TraceSink *sink = sim.traceSink())
            tel->captureSimTrace(sink->events());
    }
    if (!options.statsOut.empty())
        writeStatsFile(sim, options.statsOut);
    if (tel != nullptr)
        tel->endPhase(); // StatsEmit
    if (recordsRuns(options)) {
        obs::RunReport report = pointReport(kernel, dev, memcfg, out);
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
        std::vector<obs::StoreRecord> records;
        if (profiled) {
            std::ostringstream prof;
            profile.writeJson(prof);
            obs::StoreRecord rec;
            rec.kind = "profile";
            rec.kernel = kernel.name();
            rec.configHash = report.configHash;
            rec.json = prof.str();
            records.push_back(std::move(rec));
        }
        recordRun(options, std::move(report), std::move(records));
    }
    printInjectionLog(injector.get());
    // Single-run telemetry dump (last run wins). Sweep workers run
    // under per-point telemetry, not the main object, so a pool
    // never races on this file — the sweep writes its own summary.
    if (!options.hostTelemetryOut.empty() && tel != nullptr &&
        tel == &mainHostTelemetry()) {
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
 * Trace-reuse fast path for one sweep point: re-schedule the cached
 * trace under (@p dev, @p memcfg) without re-executing the kernel.
 * Returns simMode "fast", or falls back to full simulation
 * (simMode "full-fallback") if the replay reports a trace/static
 * mismatch.
 */
BenchRun
runReplay(const ObsOptions &options, const kernels::Kernel &kernel,
          const TraceCache::Entry &entry, const core::DeviceConfig &dev,
          const BenchMemory &memcfg)
{
    using clock = std::chrono::steady_clock;
    auto t0 = clock::now();
    core::StaticCdfg cdfg(*entry.fn, dev);
    auto t1 = clock::now();

    mem::ScratchpadConfig scfg = Testbench::kernelSpm(kernel, memcfg);
    TraceReplayer replayer(cdfg, dev, entry.trace,
                           replaySpmConfig(scfg), entry.prep.get());
    ReplayResult res = replayer.run();
    auto t2 = clock::now();
    if (!res.ok) {
        warn("trace replay failed (%s); falling back to full "
             "simulation",
             res.error.c_str());
        BenchRun full = runFull(options, kernel, dev, memcfg);
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
    usage.sizeBytes = scfg.range.size();
    usage.wordBytes = scfg.wordBytes;
    usage.readPorts = scfg.readPorts;
    usage.writePorts = scfg.writePorts;
    usage.banks = scfg.banks;
    usage.reads = res.spmReads;
    usage.writes = res.spmWrites;
    out.report = core::buildReport(cdfg, dev, res.stats, &usage);
    out.compileSeconds = std::chrono::duration<double>(t1 - t0).count();
    out.simulateSeconds =
        std::chrono::duration<double>(t2 - t1).count();

    if (recordsRuns(options)) {
        obs::RunReport report = pointReport(kernel, dev, memcfg, out);
        // Fast-path-only keys: unshared keys are never compared by
        // `salam-query diff`, and *_seconds fields are noisy by
        // convention, so these don't perturb the fast-vs-full
        // equivalence gate.
        report.extra.push_back({"fast_path", 1.0});
        report.extra.push_back({"capture_seconds", entry.captureSeconds});
        recordRun(options, std::move(report));
    }
    return out;
}

/**
 * Process-wide trace cache for --sim-mode fast/auto sweeps: one
 * capture run per (kernel, input) key, shared by every sweep worker.
 */
TraceCache &
traceCache()
{
    static TraceCache cache;
    return cache;
}

} // namespace

BenchRun
runSalam(const ObsOptions &options, const kernels::Kernel &kernel,
         const core::DeviceConfig &dev, const BenchMemory &memcfg)
{
    return runFull(options, kernel, dev, memcfg);
}

TraceCache::Entry
captureTraceEntry(const kernels::Kernel &kernel,
                  const core::DeviceConfig &dev)
{
    using clock = std::chrono::steady_clock;
    auto t0 = clock::now();
    TraceCache::Entry entry;

    core::DeviceConfig cap;
    cap.blockSequentialImport = dev.blockSequentialImport;
    cap.readPortsPerCycle = 64;
    cap.writePortsPerCycle = 64;
    cap.readQueueSize = 64;
    cap.writeQueueSize = 64;
    BenchMemory capmem;
    capmem.spmReadPorts = 64;
    capmem.spmWritePorts = 64;

    // The capture runs on the IR the replays share; each replay
    // elaborates its own static CDFG from it, because FU binding and
    // latency tables depend on the point's DeviceConfig.
    obs::HostTelemetry *tel = SimContext::current().hostTelemetry();
    if (tel != nullptr)
        tel->beginPhase(obs::HostPhase::Elaboration);
    auto mod = std::make_shared<ir::Module>("replay");
    ir::IRBuilder builder(*mod);
    entry.fn = kernel.buildOptimized(builder);
    entry.holder = mod;
    Testbench tb(*entry.fn, cap, Testbench::kernelSpm(kernel, capmem));
    tb.cu->enableTraceCapture(&entry.trace);
    if (tel != nullptr)
        tel->endPhase(); // Elaboration

    std::string failure = tb.runKernel(kernel);
    if (!failure.empty())
        fatal("bench: %s wrong result: %s", kernel.name().c_str(),
              failure.c_str());
    entry.trace.capturedBlockSequential = dev.blockSequentialImport;

    // Validate the trace once here and share the result with every
    // replay; the check is config-independent, so the capture's own
    // elaboration serves.
    entry.prep = std::make_shared<const ReplayPrep>(
        buildReplayPrep(tb.cu->cdfg(), entry.trace));

    entry.captureSeconds =
        std::chrono::duration<double>(clock::now() - t0).count();
    return entry;
}

ReplaySpmConfig
replaySpmConfig(const mem::ScratchpadConfig &spm)
{
    ReplaySpmConfig cfg;
    cfg.rangeStart = spm.range.start;
    cfg.latencyCycles = spm.latencyCycles;
    cfg.readPorts = spm.readPorts;
    cfg.writePorts = spm.writePorts;
    cfg.banks = spm.banks;
    cfg.wordBytes = spm.wordBytes;
    return cfg;
}

BenchRun
runSalamMode(const ObsOptions &options, const kernels::Kernel &kernel,
             const std::string &trace_key,
             const core::DeviceConfig &dev, const BenchMemory &memcfg)
{
    if (options.simMode == "full")
        return runSalam(options, kernel, dev, memcfg);

    std::string blocker;
    TraceCache::EntryPtr entry;
    if (!options.injectSpecs.empty()) {
        blocker = "fault injection makes outcomes "
                  "schedule-dependent";
    } else if (perRunArtifacts(options)) {
        blocker = "--trace-out, --stats-out, --profile-out and "
                  "--stats-interval need a full simulation";
    } else {
        entry = traceCache().getOrBuild(
            kernel.name() + "|" + trace_key,
            [&] { return captureTraceEntry(kernel, dev); });
        blocker = fastPathBlocker(entry->trace, dev, false,
                                  memcfg.useInterconnect);
    }
    if (!blocker.empty()) {
        if (options.simMode == "fast")
            warn("--sim-mode fast: falling back to full "
                 "simulation: %s",
                 blocker.c_str());
        BenchRun full = runSalam(options, kernel, dev, memcfg);
        full.simMode = "full-fallback";
        full.fallbackReason = blocker;
        return full;
    }
    return runReplay(options, kernel, *entry, dev, memcfg);
}

unsigned
effectiveSweepThreads(const ObsOptions &options,
                      unsigned default_threads)
{
    unsigned threads = options.sweepThreads != 1 ? options.sweepThreads
                                                 : default_threads;
    if (threads != 1 &&
        (perRunArtifacts(options) || !options.injectSpecs.empty())) {
        warn("per-run artifact/inject options force "
             "--sweep-threads 1");
        return 1;
    }
    return threads;
}

SweepRunner::Options
sweepRunnerOptions(const ObsOptions &options)
{
    SweepRunner::Options sweep;
    sweep.threads = effectiveSweepThreads(options);
    sweep.hostTelemetry = options.hostTelemetry;
    sweep.store = resultStore(options);
    sweep.storeName = options.benchName;
    sweep.pointTimeoutSeconds = options.pointTimeoutSeconds;
    sweep.pointRetries = options.pointRetries;
    sweep.resumePath = options.resumePath;
    // Durable per-point checkpoints whenever records are kept: a
    // killed sweep then loses at most its in-flight points.
    sweep.durable = sweep.store != nullptr;
    return sweep;
}

int
finishSweep(const ObsOptions &options, const SweepRunner &runner,
            const std::string &name)
{
    if (!options.hostTelemetryOut.empty() &&
        !runner.writeHostTelemetryFiles(options.hostTelemetryOut, name))
        fatal("could not write host telemetry to '%s'",
              options.hostTelemetryOut.c_str());
    if (!runner.interrupted())
        return 0;
    warn("sweep interrupted; finish the remaining points with "
         "--resume %s",
         options.storeOut.empty() ? "<store>"
                                  : options.storeOut.c_str());
    return SweepRunner::interruptedExitCode;
}

} // namespace salam::drive
