#include "sweep_runner.hh"

#include <atomic>
#include <chrono>
#include <csignal>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "obs/json.hh"
#include "obs/result_store.hh"
#include "sim/logging.hh"
#include "sim/sim_context.hh"

namespace salam::drive
{

namespace
{

// Shutdown state shared between the async signal handlers and the
// worker pool. One flag pair per process: concurrent SweepRunners are
// not a supported configuration (the benches run one), and a signal
// aimed at the process should drain all of them anyway.
std::atomic<bool> g_shutdown{false};
std::atomic<bool> g_cancel{false};
std::atomic<int> g_signalCount{0};

extern "C" void
sweepSignalHandler(int)
{
    // Async-signal-safe: atomics only. First signal drains (finish
    // in-flight points, skip the queue); a second escalates to
    // cancelling in-flight points at their next event-loop check.
    int seen = g_signalCount.fetch_add(1, std::memory_order_relaxed);
    g_shutdown.store(true, std::memory_order_relaxed);
    if (seen >= 1)
        g_cancel.store(true, std::memory_order_relaxed);
}

/** Installs SIGINT/SIGTERM drain handlers for one run() scope. */
class ScopedSignalHandlers
{
  public:
    ScopedSignalHandlers()
    {
#ifdef __unix__
        struct sigaction sa = {};
        sa.sa_handler = sweepSignalHandler;
        sigemptyset(&sa.sa_mask);
        sa.sa_flags = 0;
        sigaction(SIGINT, &sa, &oldInt);
        sigaction(SIGTERM, &sa, &oldTerm);
#endif
    }

    ~ScopedSignalHandlers()
    {
#ifdef __unix__
        sigaction(SIGINT, &oldInt, nullptr);
        sigaction(SIGTERM, &oldTerm, nullptr);
#endif
    }

    ScopedSignalHandlers(const ScopedSignalHandlers &) = delete;
    ScopedSignalHandlers &
    operator=(const ScopedSignalHandlers &) = delete;

  private:
#ifdef __unix__
    struct sigaction oldInt = {};
    struct sigaction oldTerm = {};
#endif
};

/**
 * The done-set a resume store implies: configurations (by hash) and
 * points (by bench-scoped index) that already have an ok record.
 * Only ok records count — a fault/timeout/truncated record means the
 * point must run again.
 */
struct ResumeIndex
{
    bool loaded = false;
    std::unordered_set<std::uint64_t> okHashes;
    std::unordered_set<long> okPoints;
};

ResumeIndex
buildResumeIndex(const std::string &path, const std::string &bench)
{
    ResumeIndex index;
    if (path.empty())
        return index;
    obs::StoreReader reader = obs::StoreReader::load(path);
    if (!reader.ok()) {
        // First run of a resumable sweep: nothing to resume from is
        // the normal cold-start case, not an error.
        warn("--resume: %s; starting from scratch",
             reader.error().c_str());
        return index;
    }
    for (const std::string &warning : reader.warnings())
        warn("--resume: %s", warning.c_str());
    for (const obs::LoadedRecord &rec : reader.records()) {
        const bool ok_run =
            rec.kind == "run" && rec.outcome == "ok";
        const bool ok_point =
            rec.kind == "sweep_point" &&
            (rec.outcome == "ok" || rec.outcome == "cached");
        if (!ok_run && !ok_point)
            continue;
        if (ok_run && rec.configHash != 0)
            index.okHashes.insert(rec.configHash);
        if (rec.point >= 0 &&
            (bench.empty() || rec.bench.empty() ||
             rec.bench == bench))
            index.okPoints.insert(rec.point);
    }
    index.loaded = true;
    return index;
}

/** Outcome histogram over a result set, insertion-stable enough. */
std::map<std::string, std::size_t>
outcomeCounts(const std::vector<SweepPointResult> &results)
{
    std::map<std::string, std::size_t> counts;
    for (const SweepPointResult &r : results)
        ++counts[r.outcome];
    return counts;
}

/**
 * A failed point, for exit-status and summary purposes: not ok and
 * not merely deferred ("skipped" re-runs on resume, "cached" is a
 * success).
 */
bool
isFailed(const SweepPointResult &r)
{
    return !r.ok && r.outcome != "skipped";
}

void
appendPointRecord(obs::ResultStore &store, const std::string &bench,
                  const SweepPointResult &r,
                  const std::string &axes_json)
{
    obs::StoreRecord rec;
    rec.kind = "sweep_point";
    rec.bench = bench;
    rec.outcome = r.outcome;
    rec.point = static_cast<long>(r.index);
    std::ostringstream payload;
    payload << "{\"index\":" << r.index << ",\"outcome\":\""
            << obs::jsonEscape(r.outcome)
            << "\",\"attempts\":" << r.attempts
            << ",\"wall_seconds\":" << obs::jsonNumber(r.wallSeconds);
    if (!axes_json.empty())
        payload << ",\"axes\":" << axes_json;
    if (!r.error.empty())
        payload << ",\"error\":\"" << obs::jsonEscape(r.error)
                << "\"";
    if (!r.payload.empty())
        payload << ",\"point\":" << r.payload;
    payload << "}";
    rec.json = payload.str();
    store.append(std::move(rec));
}

void
appendAttemptRecord(obs::ResultStore &store, const std::string &bench,
                    std::size_t index, unsigned attempt,
                    const std::string &outcome, double wall_seconds,
                    const std::string &error)
{
    obs::StoreRecord rec;
    rec.kind = "attempt";
    rec.bench = bench;
    rec.outcome = outcome;
    rec.point = static_cast<long>(index);
    std::ostringstream payload;
    payload << "{\"index\":" << index << ",\"attempt\":" << attempt
            << ",\"outcome\":\"" << obs::jsonEscape(outcome)
            << "\",\"wall_seconds\":" << obs::jsonNumber(wall_seconds);
    if (!error.empty())
        payload << ",\"error\":\"" << obs::jsonEscape(error) << "\"";
    payload << "}";
    rec.json = payload.str();
    store.append(std::move(rec));
}

} // namespace

void
SweepRunner::requestShutdown()
{
    g_shutdown.store(true, std::memory_order_relaxed);
}

void
SweepRunner::requestCancel()
{
    g_shutdown.store(true, std::memory_order_relaxed);
    g_cancel.store(true, std::memory_order_relaxed);
}

bool
SweepRunner::shutdownRequested()
{
    return g_shutdown.load(std::memory_order_relaxed);
}

unsigned
SweepRunner::resolveThreads(unsigned requested)
{
    if (requested != 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

std::vector<SweepPointResult>
SweepRunner::run(std::size_t num_points, const PointFn &fn)
{
    using clock = std::chrono::steady_clock;

    std::vector<SweepPointResult> results(num_points);
    for (std::size_t i = 0; i < num_points; ++i)
        results[i].index = i;

    // Workers inherit the launching thread's debug-flag selection
    // (so --debug-flags applies to every point) but nothing else.
    const std::uint64_t flag_mask = SimContext::current().flagMask();

    unsigned threads = resolveThreads(opts.threads);
    if (num_points < threads)
        threads = static_cast<unsigned>(num_points ? num_points : 1);
    usedThreads = threads;

    // Reset process shutdown state for this run — a resume started in
    // the same process must not inherit the previous interrupt — and
    // install the SIGINT/SIGTERM drain handlers for the run() scope.
    g_shutdown.store(false, std::memory_order_relaxed);
    g_cancel.store(false, std::memory_order_relaxed);
    g_signalCount.store(0, std::memory_order_relaxed);
    wasInterrupted = false;
    ScopedSignalHandlers signal_guard;

    const ResumeIndex resume =
        buildResumeIndex(opts.resumePath, opts.storeName);
    const unsigned max_attempts = 1 + opts.pointRetries;

    summary = SweepHostSummary{};
    summary.enabled = opts.hostTelemetry;
    summary.threads = threads;
    summary.timelines.resize(num_points);
    summary.workerBusySeconds.assign(threads, 0.0);
    summary.workerBusyFraction.assign(threads, 0.0);
    summary.workerPoints.assign(threads, 0);

    // Per-point telemetry slots: each index is touched by exactly
    // one worker, and the joins publish them back to this thread.
    std::vector<obs::HostTelemetry> point_tel(
        opts.hostTelemetry ? num_points : 0);

    const std::uint64_t lock_wait_before =
        obs::TimedMutex::totalWaitNanos();
    const std::uint64_t sweep_start_ns = obs::hostNowNs();

    std::atomic<std::size_t> next{0};
    std::atomic<unsigned> worker_ids{0};
    auto worker = [&] {
        const unsigned wid =
            worker_ids.fetch_add(1, std::memory_order_relaxed);
        for (;;) {
            // Shutdown drain: stop dequeuing; points never picked up
            // keep the default outcome "skipped" and re-run on the
            // next --resume.
            if (g_shutdown.load(std::memory_order_relaxed))
                break;
            std::size_t idx =
                next.fetch_add(1, std::memory_order_relaxed);
            if (idx >= num_points)
                break;
            SweepPointResult &r = results[idx];
            SweepPointTimeline &tl = summary.timelines[idx];
            tl.index = idx;
            tl.worker = wid;
            tl.pickedNs = obs::hostNowNs() - sweep_start_ns;

            // Resume short-circuit: an ok record for this point's
            // configuration already exists in the resume store.
            if (resume.loaded &&
                (opts.pointHash
                     ? resume.okHashes.count(opts.pointHash(idx)) != 0
                     : resume.okPoints.count(
                           static_cast<long>(idx)) != 0)) {
                r.ok = true;
                r.outcome = "cached";
                r.attempts = 0;
                std::uint64_t now = obs::hostNowNs() - sweep_start_ns;
                tl.setupEndNs = tl.runEndNs = tl.endNs = now;
                if (opts.store != nullptr) {
                    appendPointRecord(*opts.store, opts.storeName, r,
                                  opts.pointAxes
                                      ? opts.pointAxes(r.index)
                                      : std::string());
                    if (opts.durable)
                        opts.store->flush();
                }
                continue;
            }

            for (unsigned attempt = 1; attempt <= max_attempts;
                 ++attempt) {
                // A fresh context per attempt: flag state, sinks, and
                // termination hooks are isolated, fatal() throws so
                // one bad point cannot take down the sweep, and the
                // host-side limits (deadline, cancel flag) are armed
                // where the event loop and the deadline sentinel can
                // see them.
                SimContext ctx;
                ctx.setFlagMask(flag_mask);
                ctx.setFatalMode(SimContext::FatalMode::Throw);
                ctx.setSweepPointIndex(static_cast<long>(idx));
                ctx.setCancelFlag(&g_cancel);
                if (opts.pointTimeoutSeconds > 0.0)
                    ctx.setPointDeadlineNs(
                        obs::hostNowNs() +
                        static_cast<std::uint64_t>(
                            opts.pointTimeoutSeconds * 1e9));
                ScopedSimContext bind(ctx);
                if (opts.hostTelemetry) {
                    if (opts.captureSimTracePoint >= 0 &&
                        idx == static_cast<std::size_t>(
                                   opts.captureSimTracePoint))
                        point_tel[idx].setSimTraceCapture(true);
                    ctx.setHostTelemetry(&point_tel[idx]);
                }
                tl.setupEndNs = obs::hostNowNs() - sweep_start_ns;

                auto t0 = clock::now();
                r.error.clear();
                r.payload.clear();
                try {
                    r.payload = fn(idx);
                    r.ok = true;
                    r.outcome = "ok";
                } catch (const FatalError &e) {
                    r.ok = false;
                    r.outcome = e.outcome();
                    r.error = e.what();
                } catch (const std::exception &e) {
                    r.ok = false;
                    r.outcome = "error";
                    r.error = e.what();
                }
                r.wallSeconds =
                    std::chrono::duration<double>(clock::now() - t0)
                        .count();
                r.attempts = attempt;
                tl.runEndNs = obs::hostNowNs() - sweep_start_ns;
                if (opts.hostTelemetry) {
                    point_tel[idx].samplePeakRss();
                    tl.reportIoNs =
                        point_tel[idx]
                            .phase(obs::HostPhase::ReportIo)
                            .selfNanos;
                    ctx.setHostTelemetry(nullptr);
                }

                if (opts.store != nullptr && opts.pointRetries > 0)
                    appendAttemptRecord(*opts.store, opts.storeName,
                                        idx, attempt, r.outcome,
                                        r.wallSeconds, r.error);

                // "skipped" here means the attempt was cancelled by a
                // shutdown escalation — retrying would fight the
                // drain, and a resume re-runs the point anyway.
                if (r.ok || r.outcome == "skipped")
                    break;
                if (attempt == max_attempts ||
                    g_shutdown.load(std::memory_order_relaxed))
                    break;
                std::uint64_t backoff_ms =
                    static_cast<std::uint64_t>(opts.retryBackoffMs)
                    << (attempt - 1);
                if (backoff_ms > 5000)
                    backoff_ms = 5000;
                warn("sweep point %zu attempt %u/%u failed (%s); "
                     "retrying in %llums",
                     idx, attempt, max_attempts, r.outcome.c_str(),
                     static_cast<unsigned long long>(backoff_ms));
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(backoff_ms));
            }
            tl.endNs = obs::hostNowNs() - sweep_start_ns;

            // Checkpoint the point as soon as it completes. With
            // Options::durable the flush also lands any kind="run"
            // record the point function appended, so a killed process
            // (SIGKILL, OOM) loses only in-flight points.
            if (opts.store != nullptr) {
                appendPointRecord(*opts.store, opts.storeName, r,
                                  opts.pointAxes
                                      ? opts.pointAxes(r.index)
                                      : std::string());
                if (opts.durable && !opts.store->flush())
                    warn("sweep point %zu: durable store flush "
                         "failed",
                         idx);
            }
        }
    };

    auto sweep_t0 = clock::now();
    if (threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }
    wallSeconds =
        std::chrono::duration<double>(clock::now() - sweep_t0)
            .count();

    // --- scaling-efficiency summary (workers have joined; all
    // per-point state is safely visible to this thread) ---
    summary.wallSeconds = wallSeconds;
    double busy_total = 0.0;
    for (std::size_t i = 0; i < num_points; ++i) {
        const SweepPointTimeline &tl = summary.timelines[i];
        double busy = static_cast<double>(tl.endNs - tl.pickedNs) /
                      1e9;
        summary.workerBusySeconds[tl.worker] += busy;
        summary.workerPoints[tl.worker] += 1;
        busy_total += busy;
        summary.pointSecondsSum += results[i].wallSeconds;
        if (opts.hostTelemetry)
            summary.merged.mergeFrom(point_tel[i]);
    }
    for (unsigned w = 0; w < threads; ++w)
        summary.workerBusyFraction[w] =
            wallSeconds > 0.0
                ? summary.workerBusySeconds[w] / wallSeconds
                : 0.0;
    summary.effectiveSpeedup =
        wallSeconds > 0.0 ? summary.pointSecondsSum / wallSeconds
                          : 0.0;
    double capacity = wallSeconds * threads;
    summary.serialSeconds =
        capacity > 0.0 ? (capacity - busy_total) / threads : 0.0;
    if (summary.serialSeconds < 0.0)
        summary.serialSeconds = 0.0;
    summary.serialShare =
        wallSeconds > 0.0 ? summary.serialSeconds / wallSeconds
                          : 0.0;
    summary.lockWaitSeconds =
        static_cast<double>(obs::TimedMutex::totalWaitNanos() -
                            lock_wait_before) /
        1e9;
    summary.lockWaitShare =
        capacity > 0.0 ? summary.lockWaitSeconds / capacity : 0.0;
    summary.locks = obs::TimedMutex::snapshotAll();

    // Retrieve the one captured simulated-time trace (if any) so
    // writeHostTelemetryFiles can show both time domains.
    if (opts.hostTelemetry && opts.captureSimTracePoint >= 0 &&
        static_cast<std::size_t>(opts.captureSimTracePoint) <
            num_points) {
        summary.merged.captureSimTrace(
            point_tel[static_cast<std::size_t>(
                          opts.captureSimTracePoint)]
                .capturedSimTrace());
    }

    wasInterrupted = g_shutdown.load(std::memory_order_relaxed);

    std::size_t failed_points = 0;
    std::size_t cached_points = 0;
    std::size_t skipped_points = 0;
    for (const SweepPointResult &r : results) {
        if (isFailed(r))
            ++failed_points;
        if (r.outcome == "cached")
            ++cached_points;
        if (r.outcome == "skipped")
            ++skipped_points;
    }

    if (opts.store != nullptr) {
        // Per-point records for completed points were appended by the
        // workers; the drain leftovers get theirs here so the store
        // accounts for every point of the grid.
        for (const SweepPointResult &r : results) {
            if (r.outcome == "skipped" && r.attempts == 0)
                appendPointRecord(*opts.store, opts.storeName, r,
                                  opts.pointAxes
                                      ? opts.pointAxes(r.index)
                                      : std::string());
        }
        obs::StoreRecord rec;
        rec.kind = "sweep";
        rec.bench = opts.storeName;
        rec.outcome = wasInterrupted      ? "interrupted"
                      : failed_points != 0 ? "error"
                                           : "ok";
        std::ostringstream payload;
        payload << "{\"points\":" << num_points
                << ",\"failed_points\":" << failed_points
                << ",\"cached_points\":" << cached_points
                << ",\"skipped_points\":" << skipped_points
                << ",\"threads\":" << threads << ",\"wall_seconds\":"
                << obs::jsonNumber(wallSeconds)
                << ",\"point_seconds_sum\":"
                << obs::jsonNumber(summary.pointSecondsSum) << "}";
        rec.json = payload.str();
        opts.store->append(std::move(rec));
        if (!opts.store->flush())
            warn("sweep '%s': result-store flush failed",
                 opts.storeName.c_str());
    }

    if (threads > 1 && summary.effectiveSpeedup < 1.0 &&
        num_points > 0 && !wasInterrupted && cached_points == 0 &&
        skipped_points == 0) {
        warn("parallel sweep ran %.2fx the serial estimate with %u "
             "threads (%zu points, %.3fs wall, %.3fs points-sum) — "
             "check hardware concurrency and serial sections",
             summary.effectiveSpeedup, threads, num_points,
             wallSeconds, summary.pointSecondsSum);
    }

    return results;
}

void
SweepHostSummary::writeJson(std::ostream &os) const
{
    os << "{\"schema\": \"sweep_host_telemetry_v1\""
       << ", \"enabled\": " << (enabled ? "true" : "false")
       << ", \"threads\": " << threads
       << ", \"wall_seconds\": " << obs::jsonNumber(wallSeconds)
       << ", \"point_seconds_sum\": "
       << obs::jsonNumber(pointSecondsSum)
       << ", \"effective_speedup\": "
       << obs::jsonNumber(effectiveSpeedup)
       << ", \"serial_seconds\": " << obs::jsonNumber(serialSeconds)
       << ", \"serial_share\": " << obs::jsonNumber(serialShare)
       << ", \"lock_wait_seconds\": "
       << obs::jsonNumber(lockWaitSeconds)
       << ", \"lock_wait_share\": "
       << obs::jsonNumber(lockWaitShare);
    os << ", \"workers\": [";
    for (unsigned w = 0; w < threads; ++w) {
        if (w)
            os << ",";
        os << "{\"worker\": " << w << ", \"busy_seconds\": "
           << obs::jsonNumber(workerBusySeconds[w])
           << ", \"busy_fraction\": "
           << obs::jsonNumber(workerBusyFraction[w])
           << ", \"points\": " << workerPoints[w] << "}";
    }
    os << "]";
    os << ", \"locks\": [";
    for (std::size_t i = 0; i < locks.size(); ++i) {
        if (i)
            os << ",";
        os << "{\"name\": \"" << obs::jsonEscape(locks[i].name)
           << "\", \"acquisitions\": " << locks[i].acquisitions
           << ", \"contended\": " << locks[i].contended
           << ", \"wait_seconds\": "
           << obs::jsonNumber(
                  static_cast<double>(locks[i].waitNanos) / 1e9)
           << "}";
    }
    os << "]";
    if (enabled)
        os << ", \"telemetry\": " << merged.dumpJsonString();
    os << ", \"points\": [";
    for (std::size_t i = 0; i < timelines.size(); ++i) {
        const SweepPointTimeline &tl = timelines[i];
        if (i)
            os << ",";
        os << "{\"index\": " << tl.index
           << ", \"worker\": " << tl.worker
           << ", \"queue_wait_seconds\": "
           << obs::jsonNumber(static_cast<double>(tl.pickedNs) /
                              1e9)
           << ", \"setup_seconds\": "
           << obs::jsonNumber(
                  static_cast<double>(tl.setupEndNs - tl.pickedNs) /
                  1e9)
           << ", \"run_seconds\": "
           << obs::jsonNumber(
                  static_cast<double>(tl.runEndNs - tl.setupEndNs) /
                  1e9)
           << ", \"teardown_seconds\": "
           << obs::jsonNumber(
                  static_cast<double>(tl.endNs - tl.runEndNs) / 1e9)
           << ", \"report_io_seconds\": "
           << obs::jsonNumber(static_cast<double>(tl.reportIoNs) /
                              1e9)
           << "}";
    }
    os << "]}";
}

bool
SweepRunner::writeHostTelemetryFiles(const std::string &json_path,
                                     const std::string &name) const
{
    {
        std::ofstream os(json_path);
        if (!os)
            return false;
        os << "{\"sweep\": \"" << obs::jsonEscape(name)
           << "\", \"host\": ";
        summary.writeJson(os);
        os << "}\n";
        if (!os)
            return false;
    }

    // Chrome trace: host-time worker tracks in pid 1 (wall ns
    // rendered as ticks, i.e. x1000 to ps so the ps->us writer
    // lands on microseconds), simulated-time tracks of the captured
    // point in pid 0.
    obs::TraceSink sink;
    for (const obs::TraceRecord &rec :
         summary.merged.capturedSimTrace())
        sink.pushRecord(rec);
    for (const SweepPointTimeline &tl : summary.timelines) {
        std::string track = "worker " + std::to_string(tl.worker);
        std::string point = "p" + std::to_string(tl.index);
        auto ticks = [](std::uint64_t ns) { return ns * 1000; };
        if (tl.setupEndNs > tl.pickedNs)
            sink.recordSlice(ticks(tl.pickedNs),
                             ticks(tl.setupEndNs - tl.pickedNs),
                             track, "sweep", point + ":setup", {},
                             obs::tracePidHost);
        sink.recordSlice(
            ticks(tl.setupEndNs), ticks(tl.runEndNs - tl.setupEndNs),
            track, "sweep", point + ":run",
            {{"queue_wait_ms",
              static_cast<double>(tl.pickedNs) / 1e6},
             {"report_io_ms",
              static_cast<double>(tl.reportIoNs) / 1e6}},
            obs::tracePidHost);
        if (tl.endNs > tl.runEndNs)
            sink.recordSlice(ticks(tl.runEndNs),
                             ticks(tl.endNs - tl.runEndNs), track,
                             "sweep", point + ":teardown", {},
                             obs::tracePidHost);
    }
    return sink.writeChromeTraceFile(json_path + ".trace.json");
}

void
SweepRunner::writeAggregateJson(
    std::ostream &os, const std::string &name,
    const std::vector<SweepPointResult> &results, unsigned threads,
    double wall_seconds, const SweepHostSummary *host)
{
    double serial_seconds = 0.0;
    std::size_t failed = 0;
    std::size_t cached = 0;
    std::size_t skipped = 0;
    for (const SweepPointResult &r : results) {
        serial_seconds += r.wallSeconds;
        if (isFailed(r))
            ++failed;
        if (r.outcome == "cached")
            ++cached;
        if (r.outcome == "skipped")
            ++skipped;
    }
    os << "{\"sweep\": \"" << obs::jsonEscape(name) << "\",\n";
    os << " \"points\": " << results.size() << ",\n";
    os << " \"failed_points\": " << failed << ",\n";
    os << " \"cached_points\": " << cached << ",\n";
    os << " \"skipped_points\": " << skipped << ",\n";
    {
        // Outcome histogram so downstream tooling can split the
        // deferred classes (skipped/cached) from real failures
        // without re-deriving the taxonomy.
        std::map<std::string, std::size_t> counts =
            outcomeCounts(results);
        os << " \"outcomes\": {";
        bool first = true;
        for (const auto &[outcome, count] : counts) {
            if (!first)
                os << ", ";
            first = false;
            os << "\"" << obs::jsonEscape(outcome)
               << "\": " << count;
        }
        os << "},\n";
    }
    os << " \"threads\": " << threads << ",\n";
    os << " \"wall_seconds\": " << obs::jsonNumber(wall_seconds)
       << ",\n";
    // Sum of per-point times: an estimate of the one-thread cost,
    // for speedup bookkeeping without rerunning serially.
    os << " \"point_seconds_sum\": "
       << obs::jsonNumber(serial_seconds) << ",\n";
    if (host != nullptr) {
        os << " \"host\": ";
        host->writeJson(os);
        os << ",\n";
    }
    os << " \"results\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SweepPointResult &r = results[i];
        os << "  {\"index\": " << r.index << ", \"outcome\": \""
           << obs::jsonEscape(r.outcome)
           << "\", \"attempts\": " << r.attempts
           << ", \"wall_seconds\": "
           << obs::jsonNumber(r.wallSeconds);
        if (!r.error.empty())
            os << ", \"error\": \"" << obs::jsonEscape(r.error)
               << "\"";
        if (!r.payload.empty())
            os << ", \"point\": " << r.payload;
        os << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << " ]}\n";
}

void
SweepRunner::writeAggregateJson(
    std::ostream &os, const std::string &name,
    const std::vector<SweepPointResult> &results, unsigned threads,
    double wall_seconds)
{
    writeAggregateJson(os, name, results, threads, wall_seconds,
                       nullptr);
}

bool
SweepRunner::writeAggregateJsonFile(
    const std::string &path, const std::string &name,
    const std::vector<SweepPointResult> &results, unsigned threads,
    double wall_seconds, const SweepHostSummary *host)
{
    std::ofstream os(path);
    if (!os)
        return false;
    writeAggregateJson(os, name, results, threads, wall_seconds,
                       host);
    return static_cast<bool>(os);
}

} // namespace salam::drive
