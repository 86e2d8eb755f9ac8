/**
 * @file
 * SweepRunner: thread-parallel design-space sweep execution.
 *
 * The paper's headline use case is rapid pre-RTL design-space
 * exploration; a sweep is dozens of independent simulations over a
 * configuration grid. SweepRunner shards the points across a worker
 * pool: each point runs under a fresh, thread-bound SimContext in
 * FatalMode::Throw, so a point that fatal()s (wrong result, deadlock)
 * is recorded as a failed point instead of killing the process, and
 * the debug-flag mask, trace sink, and termination hooks of one point
 * never leak into another.
 *
 * Results are returned in point order regardless of which worker
 * finished first, so serial and parallel sweeps produce bit-identical
 * output. The point function may also write into caller-owned
 * per-point slots (each index runs exactly once, and the joins
 * establish the happens-before edge back to the caller).
 *
 * Fault tolerance (a sweep is a durable job, not a fragile process):
 *  - per-point deadlines (Options::pointTimeoutSeconds) arm a host
 *    wall-clock limit on each attempt; a hung point is cancelled by
 *    the event-loop backstop or the deadline sentinel, classified
 *    outcome "timeout", and the pool moves on;
 *  - retry with exponential backoff (Options::pointRetries) re-runs
 *    failed points, recording one kind="attempt" store record per
 *    attempt so flakiness is auditable with `salam-query`;
 *  - checkpoint/resume (Options::resumePath) skips points whose
 *    config hash (or point index) already has an ok record in a
 *    ResultStore — outcome "cached" — so a killed sweep restarted
 *    with the same grid finishes only the remaining work;
 *  - graceful shutdown: SIGINT/SIGTERM drain in-flight points, flush
 *    the store, and the bench exits with
 *    interruptedExitCode; a second signal cancels in-flight points
 *    too (outcome "skipped", re-run by the next resume).
 */

#ifndef SALAM_DRIVE_SWEEP_RUNNER_HH
#define SALAM_DRIVE_SWEEP_RUNNER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/host_telemetry.hh"

namespace salam::obs
{
class ResultStore;
} // namespace salam::obs

namespace salam::drive
{

/** Outcome of one sweep point. */
struct SweepPointResult
{
    std::size_t index = 0;

    bool ok = false;

    /**
     * Terminal classification of the point:
     *  - "ok":       ran and passed;
     *  - "cached":   resume hit — an ok record for this
     *                configuration already existed (ok == true);
     *  - "skipped":  never ran (shutdown drain) or cancelled
     *                in-flight by a shutdown escalation;
     *  - "timeout":  per-point deadline expired;
     *  - "fault" / "deadlock" / "error": the fatal or exception
     *    classification of the last attempt.
     */
    std::string outcome = "skipped";

    /** The fatal/exception message when !ok. */
    std::string error;

    /** Attempts actually executed (0 for cached/skipped points). */
    unsigned attempts = 0;

    /**
     * The point function's return value: a raw JSON fragment (or
     * empty) embedded verbatim in the aggregate dump.
     */
    std::string payload;

    /** Wall-clock seconds this point took on its worker. */
    double wallSeconds = 0.0;
};

/**
 * Host-time spans of one point's life on its worker, all in
 * nanoseconds relative to the sweep's start. Every point is enqueued
 * at sweep start, so pickedNs doubles as the point's queue wait.
 */
struct SweepPointTimeline
{
    std::size_t index = 0;
    unsigned worker = 0;
    std::uint64_t pickedNs = 0;   ///< dequeued (queue wait ends)
    std::uint64_t setupEndNs = 0; ///< SimContext bound, fn starting
    std::uint64_t runEndNs = 0;   ///< fn returned or threw
    std::uint64_t endNs = 0;      ///< result recorded, context gone
    /** ReportIo self time inside the point (run-record appends). */
    std::uint64_t reportIoNs = 0;
};

/**
 * Scaling-efficiency summary of one sweep: where the pool's
 * wall-clock capacity (threads x wall) went. serialSeconds is the
 * pool-idle share — capacity no worker was running a point on —
 * which on a saturated machine is the serial-section cost.
 */
struct SweepHostSummary
{
    /** True when Options::hostTelemetry was set for the run. */
    bool enabled = false;

    unsigned threads = 0;
    double wallSeconds = 0.0;
    double pointSecondsSum = 0.0;

    /** pointSecondsSum / wallSeconds — the speedup actually won. */
    double effectiveSpeedup = 0.0;

    /** Pool-idle capacity: wall - sum(worker busy)/threads. */
    double serialSeconds = 0.0;
    double serialShare = 0.0;

    /** TimedMutex wait accrued during the run (process-wide delta). */
    double lockWaitSeconds = 0.0;
    /** lockWaitSeconds as a share of pool capacity. */
    double lockWaitShare = 0.0;

    /** Per-worker busy seconds (points executing on that worker). */
    std::vector<double> workerBusySeconds;
    /** Per-worker busy fraction of the sweep wall clock. */
    std::vector<double> workerBusyFraction;
    /** Per-worker point count. */
    std::vector<std::size_t> workerPoints;

    /** Per-point host-time spans, indexed by point. */
    std::vector<SweepPointTimeline> timelines;

    /** Phase/alloc totals merged over all points (telemetry runs). */
    obs::HostTelemetry merged;

    /** End-of-run TimedMutex snapshot (cumulative, process-wide). */
    std::vector<obs::TimedMutex::Stats> locks;

    /** Write the summary as one JSON object (no trailing newline). */
    void writeJson(std::ostream &os) const;
};

/** Thread-pool executor for independent simulation points. */
class SweepRunner
{
  public:
    struct Options
    {
        /** Worker threads; 0 picks the hardware concurrency. */
        unsigned threads = 1;

        /**
         * Attach a fresh HostTelemetry to every point's SimContext,
         * merge them into hostSummary().merged, and record lock
         * deltas. Timelines are recorded either way (four clock
         * reads per point).
         */
        bool hostTelemetry = false;

        /**
         * With hostTelemetry: the point whose simulated-time trace
         * is captured into its telemetry (so the host trace can
         * show both time domains). Negative disables capture.
         */
        long captureSimTracePoint = 0;

        /**
         * Destination result store (caller-owned, may be null).
         * Every point gets a kind="sweep_point" record and the run
         * gets one kind="sweep" summary record; the store is flushed
         * once at the end of run(). Point functions that build
         * RunReports also land kind="run" records here via their
         * bench wiring — this field only covers the sweep-level
         * bookkeeping.
         */
        obs::ResultStore *store = nullptr;

        /** Bench name stamped on store records. */
        std::string storeName;

        /**
         * Host wall-clock budget per attempt; 0 disables. An attempt
         * that exceeds it is terminated (outcome "timeout") by the
         * deadline sentinel the point function arms — or, for a
         * simulation whose tick is frozen, by the event loop's own
         * backstop — without stalling the rest of the pool.
         */
        double pointTimeoutSeconds = 0.0;

        /**
         * Extra attempts for a point whose attempt ends in a
         * retryable outcome (timeout, fault, deadlock, error); 0
         * disables retry. Each attempt is recorded as a
         * kind="attempt" store record when a store is attached.
         */
        unsigned pointRetries = 0;

        /**
         * First retry backoff; doubles per subsequent attempt,
         * capped at 5s. Shutdown interrupts the wait.
         */
        unsigned retryBackoffMs = 50;

        /**
         * Checkpoint/resume: a ResultStore path (directory or one
         * record file) whose ok records mark points as already done. A
         * point whose pointHash (or, without a hash callback, whose
         * (storeName, index) pair) matches an ok kind="run" or
         * kind="sweep_point" record is skipped with outcome
         * "cached". Empty disables. A missing or empty store is a
         * warning, not an error — the first run of a resumable
         * sweep resumes from nothing.
         */
        std::string resumePath;

        /**
         * Config fingerprint of a point, matching the RunReport
         * configHash its point function would record (see
         * bench::runConfigHash). Enables exact resume matching
         * across grid reorderings; without it resume falls back to
         * (storeName, point index) identity.
         */
        std::function<std::uint64_t(std::size_t)> pointHash;

        /**
         * Flush the store after every completed point, so a killed
         * process (SIGKILL, OOM) loses at most the in-flight points
         * — the property chaos testing relies on. The benches turn
         * this on whenever a store is attached.
         */
        bool durable = false;

        /**
         * Axis values of a point as a compact JSON object (see
         * SweepSpec::axesJson), embedded as "axes" in the point's
         * kind="sweep_point" store record so query output is
         * self-describing. Empty/unset omits the field.
         */
        std::function<std::string(std::size_t)> pointAxes;
    };

    SweepRunner() = default;

    explicit SweepRunner(Options options) : opts(options) {}

    /**
     * Evaluate one point. Runs on a worker thread under its own
     * SimContext (debug-flag mask inherited from the launching
     * thread, fatal() in throw mode). Returns the point's JSON
     * payload ("" for none).
     */
    using PointFn = std::function<std::string(std::size_t index)>;

    /**
     * Run @p num_points points; blocks until all complete. Results
     * are indexed by point, deterministically ordered.
     */
    std::vector<SweepPointResult> run(std::size_t num_points,
                                      const PointFn &fn);

    /** Threads the last run() actually used. */
    unsigned lastThreads() const { return usedThreads; }

    /**
     * True when the last run() was drained by a shutdown request
     * (SIGINT/SIGTERM or requestShutdown()): some points carry
     * outcome "skipped" and the bench should exit with
     * interruptedExitCode so callers can tell "interrupted, resume
     * me" from success and from failure.
     */
    bool interrupted() const { return wasInterrupted; }

    /** Process exit code for an interrupted sweep (EX_TEMPFAIL). */
    static constexpr int interruptedExitCode = 75;

    /**
     * Programmatic equivalent of one SIGINT/SIGTERM: in-flight
     * points finish, queued points are skipped. Used by tests; the
     * signal handlers installed during run() call the same path.
     */
    static void requestShutdown();

    /**
     * Programmatic equivalent of a second signal: additionally
     * cancels in-flight points at the next event-loop limit check
     * (their outcome becomes "skipped").
     */
    static void requestCancel();

    /** True once a shutdown has been requested for the current run. */
    static bool shutdownRequested();

    /** Wall-clock seconds of the last run(), all points included. */
    double lastWallSeconds() const { return wallSeconds; }

    /** Host-time summary of the last run(). */
    const SweepHostSummary &hostSummary() const { return summary; }

    /**
     * Resolve a requested thread count: 0 means "use the hardware
     * concurrency" (min 1). The bench --sweep-threads flag feeds
     * through here.
     */
    static unsigned resolveThreads(unsigned requested);

    /**
     * Write the aggregate sweep dump: sweep-level wall clock and
     * thread count plus every point's outcome, timing, and payload.
     * With @p host, a "host" object carrying the scaling-efficiency
     * summary is included.
     */
    static void writeAggregateJson(
        std::ostream &os, const std::string &name,
        const std::vector<SweepPointResult> &results,
        unsigned threads, double wall_seconds,
        const SweepHostSummary *host);

    static void writeAggregateJson(
        std::ostream &os, const std::string &name,
        const std::vector<SweepPointResult> &results,
        unsigned threads, double wall_seconds);

    /** writeAggregateJson to @p path; false on I/O failure. */
    static bool writeAggregateJsonFile(
        const std::string &path, const std::string &name,
        const std::vector<SweepPointResult> &results,
        unsigned threads, double wall_seconds,
        const SweepHostSummary *host = nullptr);

    /**
     * Write the last run's host telemetry: the summary JSON to
     * @p json_path and a Chrome trace to "<json_path>.trace.json"
     * with per-worker host-time tracks (pid 1) beside any captured
     * simulated-time tracks (pid 0). False on I/O failure.
     */
    bool writeHostTelemetryFiles(const std::string &json_path,
                                 const std::string &name) const;

  private:
    Options opts;
    unsigned usedThreads = 0;
    double wallSeconds = 0.0;
    bool wasInterrupted = false;
    SweepHostSummary summary;
};

} // namespace salam::drive

#endif // SALAM_DRIVE_SWEEP_RUNNER_HH
