/**
 * @file
 * SimContext: per-simulation ownership of what used to be process
 * globals, so N independent Simulation instances can run concurrently
 * in one process (thread-parallel design-space sweeps).
 *
 * A SimContext owns:
 *  - the debug-flag enable state (a 64-bit mask indexed by each
 *    DebugFlag's dense id — the flag *names* stay in the process-wide
 *    DebugFlagRegistry, which is immutable after static init);
 *  - the trace/log sink that SALAM_TRACE lines and inform()/warn()
 *    messages are emitted through;
 *  - the termination hooks, fatal-outcome classification, and the
 *    fatal *mode* (exit the process, or throw FatalError so a sweep
 *    worker can record the failure and move to the next point).
 *
 * Binding is thread-local: SimContext::current() returns the context
 * bound to the calling thread, falling back to a shared process
 * default so existing single-simulation code keeps working unchanged.
 * ScopedSimContext binds a context for a scope (a sweep worker binds
 * a fresh context around each point). Contexts are not internally
 * synchronized — one context must only ever be used by one thread at
 * a time, which the scoped binding enforces by construction.
 */

#ifndef SALAM_SIM_SIM_CONTEXT_HH
#define SALAM_SIM_SIM_CONTEXT_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace salam
{

namespace obs
{
class HostTelemetry;
} // namespace obs

/**
 * Graceful-degradation hooks: callbacks run by fatal() (and the
 * watchdog, which terminates via fatal()) before the run terminates,
 * so stats, traces, and run reports survive a failed run. Hooks run
 * newest-first; a hook that itself fatal()s does not recurse. The
 * @p outcome argument is the classification set via setFatalOutcome
 * ("fault" unless overridden, "deadlock" from the watchdog paths).
 */
using TerminationHook =
    std::function<void(const char *outcome, const std::string &message)>;

/**
 * Thrown by fatal() when the bound SimContext uses FatalMode::Throw.
 * Carries the outcome classification ("fault", "deadlock", ...) the
 * run report would have recorded.
 */
class FatalError : public std::runtime_error
{
  public:
    FatalError(std::string outcome, const std::string &message)
        : std::runtime_error(message), _outcome(std::move(outcome))
    {}

    const std::string &outcome() const { return _outcome; }

  private:
    std::string _outcome;
};

/** Per-simulation home for previously process-global mutable state. */
class SimContext
{
  public:
    /** What fatal() does after running the termination hooks. */
    enum class FatalMode
    {
        Exit,  ///< std::exit(1) — the historical behaviour
        Throw, ///< throw FatalError — sweep workers survive a point
    };

    SimContext() = default;

    SimContext(const SimContext &) = delete;
    SimContext &operator=(const SimContext &) = delete;

    /**
     * The shared fallback context used by any thread with no
     * explicit binding. Single-simulation programs never need to
     * know contexts exist.
     */
    static SimContext &processDefault();

    /** The context bound to the calling thread (or the default). */
    static SimContext &
    current()
    {
        return tlsContext != nullptr ? *tlsContext : processDefault();
    }

    // --- debug-flag enable state (indexed by DebugFlag dense id) ---

    bool
    flagEnabled(unsigned id) const
    {
        return (_flagMask >> id) & 1u;
    }

    void
    setFlagEnabled(unsigned id, bool on)
    {
        std::uint64_t bit = std::uint64_t{1} << id;
        if (on)
            _flagMask |= bit;
        else
            _flagMask &= ~bit;
    }

    /** Snapshot/restore the whole mask (sweep workers inherit it). */
    std::uint64_t flagMask() const { return _flagMask; }

    void setFlagMask(std::uint64_t mask) { _flagMask = mask; }

    // --- host-performance telemetry ---

    /**
     * The host-telemetry accumulator for runs under this context, or
     * null (the default: zero-overhead). Non-owning — the attacher
     * (bench main(), a sweep worker) keeps the object alive and
     * detaches before it dies. Only the thread the context is bound
     * to may mutate the telemetry through this pointer.
     */
    obs::HostTelemetry *hostTelemetry() const { return _telemetry; }

    void setHostTelemetry(obs::HostTelemetry *telemetry)
    { _telemetry = telemetry; }

    // --- sweep point identity ---

    /**
     * Index of the sweep point running under this context, or -1
     * outside a sweep. SweepRunner stamps it so records a point
     * appends to a ResultStore carry a stable point identity —
     * `salam-query diff` pairs two sweeps' records by it regardless
     * of which worker finished first.
     */
    long sweepPointIndex() const { return _sweepPoint; }

    void setSweepPointIndex(long index) { _sweepPoint = index; }

    // --- host-side execution limits (per-point deadlines, cancel) ---

    /**
     * Absolute host deadline for the simulation running under this
     * context, as an obs::hostNowNs() value; 0 means no deadline.
     * The event loop checks it periodically and fatal()s with
     * outcome "timeout" once it passes — the backstop that catches a
     * hung point even when the simulated clock is frozen and no
     * sentinel event can ever fire. Plain field: only the bound
     * thread reads or writes it.
     */
    std::uint64_t pointDeadlineNs() const { return _pointDeadlineNs; }

    void setPointDeadlineNs(std::uint64_t deadline_ns)
    { _pointDeadlineNs = deadline_ns; }

    /**
     * External cancellation flag, or null. A signal handler (or a
     * shutdown escalation) sets the pointed-to atomic from another
     * thread; the event loop polls it and fatal()s with outcome
     * "skipped" so the in-flight point unwinds promptly and can be
     * re-run by a later resume. Non-owning.
     */
    void setCancelFlag(const std::atomic<bool> *flag)
    { _cancelFlag = flag; }

    bool
    cancelRequested() const
    {
        return _cancelFlag != nullptr &&
               _cancelFlag->load(std::memory_order_relaxed);
    }

    // --- trace/log sink ---

    using LogSink = std::function<void(const std::string &line)>;

    /** Replace the sink; a null sink restores the default (stderr). */
    void setLogSink(LogSink sink) { _sink = std::move(sink); }

    /** Emit one already-formatted line through this context's sink. */
    void emitLog(const std::string &line) const;

    // --- termination hooks / fatal handling ---

    /** Register a hook; returns an id for removeTerminationHook(). */
    std::size_t addTerminationHook(TerminationHook hook);

    /** Remove a previously registered hook (no-op on unknown id). */
    void removeTerminationHook(std::size_t id);

    void setFatalOutcome(const char *outcome)
    { _outcome = outcome; }

    const char *fatalOutcome() const { return _outcome; }

    void setFatalMode(FatalMode mode) { _fatalMode = mode; }

    /**
     * Terminate the current run: run this context's hooks
     * newest-first, then exit(1) or throw FatalError per the fatal
     * mode. Called by fatal() with the message already logged.
     */
    [[noreturn]] void failFatal(const std::string &message);

  private:
    friend class ScopedSimContext;

    /**
     * The thread's bound context; null means "use processDefault()".
     * constinit: no static-init-order hazard with the DebugFlag
     * constructors that run at static init and call current().
     */
    static constinit thread_local SimContext *tlsContext;

    struct HookEntry
    {
        std::size_t id;
        TerminationHook hook;
    };

    std::uint64_t _flagMask = 0;
    obs::HostTelemetry *_telemetry = nullptr;
    long _sweepPoint = -1;
    std::uint64_t _pointDeadlineNs = 0;
    const std::atomic<bool> *_cancelFlag = nullptr;
    LogSink _sink;
    std::vector<HookEntry> _hooks;
    std::size_t _nextHookId = 1;
    const char *_outcome = "fault";
    FatalMode _fatalMode = FatalMode::Exit;
    bool _inFatal = false;
};

/** RAII thread-local binding of a SimContext. */
class ScopedSimContext
{
  public:
    explicit ScopedSimContext(SimContext &ctx)
        : prev(SimContext::tlsContext)
    {
        SimContext::tlsContext = &ctx;
    }

    ~ScopedSimContext() { SimContext::tlsContext = prev; }

    ScopedSimContext(const ScopedSimContext &) = delete;
    ScopedSimContext &operator=(const ScopedSimContext &) = delete;

  private:
    SimContext *prev;
};

} // namespace salam

#endif // SALAM_SIM_SIM_CONTEXT_HH
