/**
 * @file
 * Host-performance telemetry: where does the *simulator's own*
 * wall-clock time go?
 *
 * The PR 1/2 observability layers answer questions about the modeled
 * hardware (simulated ticks, stall causes, critical paths). This
 * subsystem answers the orthogonal question the parallel-sweep work
 * keeps running into: which host-side activity — elaboration, engine
 * scheduling, memory/DMA modeling, event-queue bookkeeping, stats and
 * trace emission, report I/O — the real seconds are spent in, and how
 * much of a multi-threaded sweep is lost to lock contention, queue
 * wait, and serial sections.
 *
 * Three instruments:
 *
 *  - Phase timers (HostPhase + ScopedHostPhase + the EventQueue's
 *    batched per-event attribution). A HostTelemetry object hangs off
 *    a SimContext; because a context is thread-bound, accumulation
 *    needs no synchronization. When no telemetry is attached the cost
 *    of an instrumented scope is one thread-local read and a branch.
 *
 *  - TimedMutex: a drop-in std::mutex wrapper that counts
 *    acquisitions, contended acquisitions, and nanoseconds spent
 *    waiting, and registers itself in a process-wide registry so the
 *    sweep report can name every shared lock and its wait share.
 *
 *  - Allocation pressure: a peak-RSS sample, per point and
 *    aggregated per sweep.
 *
 * Ownership rule: one HostTelemetry belongs to at most one SimContext
 * at a time, and is only mutated by the thread that context is bound
 * to. Cross-thread aggregation (a sweep merging per-point telemetry)
 * happens through mergeFrom() under the caller's lock.
 */

#ifndef SALAM_OBS_HOST_TELEMETRY_HH
#define SALAM_OBS_HOST_TELEMETRY_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "sim/sim_context.hh"
#include "trace_sink.hh"

namespace salam::obs
{

/** Host-side activity classes wall time is attributed to. */
enum class HostPhase : unsigned
{
    Elaboration,    ///< IR build/opt, object construction, seeding
    EngineSchedule, ///< compute-unit tick events (CDFG scheduling)
    MemoryModel,    ///< SPM/cache/xbar/DRAM/DMA/comm event handlers
    EventLoop,      ///< queue bookkeeping + unclassified events
    StatsEmit,      ///< stats dumps, trace export, profiler reports
    ReportIo,       ///< run records appended to the result store
    Other,          ///< host CPU model, watchdog, miscellaneous
};

inline constexpr unsigned numHostPhases = 7;

/** Stable lowercase name for JSON keys and trace labels. */
const char *hostPhaseName(HostPhase phase);

/** Wall-time totals for one phase. */
struct PhaseTotals
{
    std::uint64_t count = 0;      ///< scopes entered / events batched
    std::uint64_t totalNanos = 0; ///< inclusive wall time
    std::uint64_t selfNanos = 0;  ///< exclusive of nested phases
};

/** Monotonic wall clock in nanoseconds (steady_clock). */
inline std::uint64_t
hostNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Peak resident-set sample in kB (VmHWM on Linux; 0 where the proc
 * interface is unavailable). Process-wide, monotone — useful as an
 * allocation-pressure high-water mark, not a per-point delta.
 */
std::uint64_t sampleRssPeakKb();

/**
 * A mutex that measures itself. lock() first tries the uncontended
 * path; only a failed try_lock counts as contended and starts the
 * wait timer. Counters are relaxed atomics so any thread can snapshot
 * them while the mutex is in use. Construction/destruction register
 * and unregister the instance in a process-wide registry keyed by
 * @p name (names need not be unique; snapshots report every
 * instance).
 */
class TimedMutex
{
  public:
    struct Stats
    {
        std::string name;
        std::uint64_t acquisitions = 0;
        std::uint64_t contended = 0;
        std::uint64_t waitNanos = 0;
    };

    explicit TimedMutex(std::string name);
    ~TimedMutex();

    TimedMutex(const TimedMutex &) = delete;
    TimedMutex &operator=(const TimedMutex &) = delete;

    void
    lock()
    {
        if (m.try_lock()) {
            acq.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        cont.fetch_add(1, std::memory_order_relaxed);
        std::uint64_t t0 = hostNowNs();
        m.lock();
        waitNs.fetch_add(hostNowNs() - t0,
                         std::memory_order_relaxed);
        acq.fetch_add(1, std::memory_order_relaxed);
    }

    bool
    try_lock()
    {
        if (!m.try_lock())
            return false;
        acq.fetch_add(1, std::memory_order_relaxed);
        return true;
    }

    void unlock() { m.unlock(); }

    Stats stats() const;

    /** Snapshot every live TimedMutex in construction order. */
    static std::vector<Stats> snapshotAll();

    /**
     * Sum of waitNanos over every live mutex — the process-wide
     * lock-wait total a sweep differences across its run.
     */
    static std::uint64_t totalWaitNanos();

  private:
    std::string mutexName;
    std::mutex m;
    std::atomic<std::uint64_t> acq{0};
    std::atomic<std::uint64_t> cont{0};
    std::atomic<std::uint64_t> waitNs{0};
};

/**
 * Per-SimContext accumulator for host-side wall time and allocation
 * pressure. Attach with SimContext::setHostTelemetry(); detach (or
 * destroy the context binding) before the telemetry object dies.
 */
class HostTelemetry
{
  public:
    HostTelemetry() = default;

    // Copyable by design: sweep summaries keep merged snapshots.

    // --- phase accumulation (context-bound thread only) ---

    /** Open a phase frame; pair with endPhase(). */
    void
    beginPhase(HostPhase phase)
    {
        stack.push_back({phase, hostNowNs(), 0});
    }

    /** Close the innermost frame and attribute its wall time. */
    void
    endPhase()
    {
        Frame frame = stack.back();
        stack.pop_back();
        std::uint64_t elapsed = hostNowNs() - frame.startNs;
        PhaseTotals &t = totals[static_cast<unsigned>(frame.phase)];
        ++t.count;
        t.totalNanos += elapsed;
        t.selfNanos +=
            elapsed - std::min(frame.childNanos, elapsed);
        if (!stack.empty())
            stack.back().childNanos += elapsed;
    }

    /**
     * Bulk attribution from the event-queue dispatch loop: @p nanos
     * of already-exclusive time and @p count events for @p phase.
     * Counts as child time of any open scoped frame.
     */
    void
    addPhaseTime(HostPhase phase, std::uint64_t nanos,
                 std::uint64_t count)
    {
        PhaseTotals &t = totals[static_cast<unsigned>(phase)];
        t.count += count;
        t.totalNanos += nanos;
        t.selfNanos += nanos;
        if (!stack.empty())
            stack.back().childNanos += nanos;
    }

    const std::array<PhaseTotals, numHostPhases> &
    phases() const
    {
        return totals;
    }

    const PhaseTotals &
    phase(HostPhase p) const
    {
        return totals[static_cast<unsigned>(p)];
    }

    /** Sum of per-phase self time — the instrumented wall total. */
    std::uint64_t selfNanosTotal() const;

    // --- allocation pressure ---

    /** Update the peak-RSS high-water mark from /proc. */
    void
    samplePeakRss()
    {
        std::uint64_t kb = sampleRssPeakKb();
        if (kb > peakRssKbValue)
            peakRssKbValue = kb;
    }

    std::uint64_t peakRssKb() const { return peakRssKbValue; }

    // --- sweep-point sim-trace capture ---

    /**
     * Ask the run executing under this telemetry to capture its
     * simulated-time trace records (a sweep enables this for one
     * representative point so the host-telemetry Chrome trace can
     * show simulated-time tracks next to the worker timelines).
     */
    void setSimTraceCapture(bool on) { wantSimTrace = on; }

    bool wantSimTraceCapture() const { return wantSimTrace; }

    void
    captureSimTrace(std::vector<TraceRecord> records)
    {
        simTrace = std::move(records);
    }

    const std::vector<TraceRecord> &
    capturedSimTrace() const
    {
        return simTrace;
    }

    // --- aggregation & output ---

    /** Fold @p other's phases and allocation counters into this. */
    void mergeFrom(const HostTelemetry &other);

    /**
     * One JSON object: {"phases": {...}, "alloc": {...}}. Lock stats
     * are process-wide, so they are reported by the sweep/run-level
     * writers (writeJsonWithLocks), not per point.
     */
    void writeJson(std::ostream &os) const;

    std::string dumpJsonString() const;

    /** writeJson plus a "locks" array from TimedMutex::snapshotAll. */
    void writeJsonWithLocks(std::ostream &os) const;

  private:
    struct Frame
    {
        HostPhase phase;
        std::uint64_t startNs;
        std::uint64_t childNanos;
    };

    std::array<PhaseTotals, numHostPhases> totals{};
    std::vector<Frame> stack;
    std::uint64_t peakRssKbValue = 0;
    bool wantSimTrace = false;
    std::vector<TraceRecord> simTrace;
};

/**
 * RAII phase scope against the calling thread's current SimContext.
 * No-op (one TLS read + branch) when that context carries no
 * telemetry.
 */
class ScopedHostPhase
{
  public:
    explicit ScopedHostPhase(HostPhase phase)
        : tel(SimContext::current().hostTelemetry())
    {
        if (tel != nullptr)
            tel->beginPhase(phase);
    }

    ~ScopedHostPhase()
    {
        if (tel != nullptr)
            tel->endPhase();
    }

    ScopedHostPhase(const ScopedHostPhase &) = delete;
    ScopedHostPhase &operator=(const ScopedHostPhase &) = delete;

  private:
    HostTelemetry *tel;
};

} // namespace salam::obs

#endif // SALAM_OBS_HOST_TELEMETRY_HH
