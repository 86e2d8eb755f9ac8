/**
 * @file
 * Trace-reuse fast path: replay a captured dynamic trace under new
 * datapath/memory parameters without re-executing the kernel.
 *
 * A sweep evaluates the same (kernel, input) pair under dozens of
 * DeviceConfigs. The dynamic CDFG's *values* — branch outcomes and
 * effective addresses — do not depend on the timing knobs being
 * swept (FU limits, ports, queue depths, latencies, clock), because
 * the engine's memory disambiguation enforces value determinism
 * regardless of schedule. So the expensive part of a sweep point,
 * executing the kernel, can be done once: capture a DynTrace (see
 * core/dyn_trace.hh), then re-schedule it here per point.
 *
 * There is one scheduler. TraceReplayer runs the RuntimeEngine with
 * the trace as its operand source (RuntimeEngine::setTraceSource):
 * branch targets and addresses come from the trace, compute ops are
 * not evaluated and loads carry no data, and every scheduling
 * decision is the engine's own. TraceReplayer is the engine's
 * client: it clocks the engine cycle by cycle against a cycle-domain
 * model of the private scratchpad's service and latency pipeline,
 * placed where the SPM's events fall around the engine tick, so the
 * EngineStats (cycles, stall attribution, issue mix, FU occupancy,
 * dynamic energy) and SPM access counts are bit-identical to a full
 * simulation of the point.
 *
 * When a swept parameter *could* change data-dependent control flow
 * or the capture regime, fastPathBlocker() reports why and the
 * caller falls back to full simulation.
 */

#ifndef SALAM_DRIVE_TRACE_REPLAY_HH
#define SALAM_DRIVE_TRACE_REPLAY_HH

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/device_config.hh"
#include "core/dyn_trace.hh"
#include "core/runtime_engine.hh"
#include "core/static_cdfg.hh"
#include "mem/ring_queue.hh"

namespace salam::drive
{

/**
 * The scratchpad parameters the replay's cycle-domain SPM model
 * needs: mem::ScratchpadConfig minus the SimObject plumbing.
 */
struct ReplaySpmConfig
{
    std::uint64_t rangeStart = 0;
    unsigned latencyCycles = 1;
    unsigned readPorts = 2;
    unsigned writePorts = 2;
    unsigned banks = 1;
    unsigned wordBytes = 4;
};

/** Outcome of one trace replay. */
struct ReplayResult
{
    /** False when the trace could not be replayed (see error). */
    bool ok = false;

    /** Diagnostic when !ok (trace/static mismatch, bad config, ...). */
    std::string error;

    /** Bit-identical to the full simulation's engine statistics. */
    core::EngineStats stats;

    /** SPM accesses serviced (the CactiLite usage inputs). */
    std::uint64_t spmReads = 0;
    std::uint64_t spmWrites = 0;
};

/**
 * A trace checked against a kernel's IR, shared by every replay of
 * it. Everything here depends only on the instruction stream, never
 * on the FU/port/latency knobs a sweep varies.
 */
struct ReplayPrep
{
    /** Non-empty when the trace does not match the static CDFG. */
    std::string error;

    /** Instructions in the largest block the trace imports. */
    unsigned maxBlockInsts = 0;
};

/**
 * Validate @p trace against @p cdfg, which may be elaborated under
 * any DeviceConfig of the same kernel. The engine imports whichever
 * block the trace names, so the check is complete: the trace must
 * carry @p cdfg's IR hash; read as a chain of whole-block imports
 * from the entry block, each branch word must name one of the
 * branch's successors, which is where the next import starts; each
 * phi must have an incoming edge for the traced predecessor; and the
 * trace must end with ret, at its last record.
 */
ReplayPrep buildReplayPrep(const core::StaticCdfg &cdfg,
                           const core::DynTrace &trace);

/**
 * Reason @p dev cannot reuse @p trace, or "" when the fast path is
 * sound. The rule is conservative: any delta that changes the
 * capture regime (block-sequential import) or makes outcomes
 * schedule-dependent (fault injection) forces full simulation.
 * @p interconnect_in_path declares that the accelerator's memory
 * traffic crosses a modeled interconnect; replay models a private
 * SPM only, so that also forces full simulation.
 */
std::string fastPathBlocker(const core::DynTrace &trace,
                            const core::DeviceConfig &dev,
                            bool fault_injection_active,
                            bool interconnect_in_path = false);

/** One-shot replay: construct, run() once, read the result. */
class TraceReplayer : private core::EngineClient
{
  public:
    /**
     * @param cdfg Elaborated under @p dev (the *replay* config, not
     *        the capture config); must outlive the replayer.
     * @param trace Captured trace for the same kernel and input.
     * @param spm The private scratchpad serving all memory traffic.
     * @param prep buildReplayPrep's result for @p trace; pass
     *        nullptr to have the replayer validate the trace itself.
     */
    TraceReplayer(const core::StaticCdfg &cdfg,
                  const core::DeviceConfig &dev,
                  const core::DynTrace &trace,
                  const ReplaySpmConfig &spm,
                  const ReplayPrep *prep = nullptr);

    /**
     * Replay the trace. Every input the engine could not run to
     * completion on — an unservable SPM, an invalid DeviceConfig, a
     * block larger than the reservation queue, a trace that does not
     * match the IR — is reported as an error before the engine
     * starts.
     */
    ReplayResult run();

  private:
    /** A request waiting in the SPM model, decoded on arrival. */
    struct SpmRequest
    {
        std::uint64_t seq;
        unsigned bank;
        bool isLoad;
    };

    struct SpmResponse
    {
        std::uint64_t seq;
        std::uint64_t readyCycle;
    };

    // EngineClient: memory goes to the SPM model; the replay loop
    // clocks the engine every cycle, so tick requests need nothing.
    bool engineIssueMemory(const core::MemRequest &req) override;

    void engineRequestTick() override {}

    /** Hand the engine every response ready by @p cyc. */
    void deliverResponses(std::uint64_t cyc);

    /** Schedule a service pass for a request arriving at @p cyc. */
    void scheduleService(std::uint64_t cyc);

    /** One SPM service pass at @p cyc (see Scratchpad::serviceCycle). */
    void servicePass(std::uint64_t cyc);

    const core::StaticCdfg &cdfg;
    const core::DeviceConfig cfg;
    const core::DynTrace &trace;
    const ReplaySpmConfig spmCfg;
    const ReplayPrep *const prep;

    /** The engine being clocked (during run() only). */
    core::RuntimeEngine *engine = nullptr;

    // Cycle-domain SPM model (see scratchpad.cc for the original).
    mem::RingQueue<SpmRequest> spmRequests;
    mem::RingQueue<SpmResponse> spmResponses;
    /** Loads/stores in spmRequests (ends a pass's scan early). */
    unsigned queuedLoads = 0;
    unsigned queuedStores = 0;
    /** Banks accessed in the current service pass, one bit each. */
    std::vector<std::uint64_t> busyBanks;
    bool servicePending = false;
    std::uint64_t serviceCycle = 0;
    bool havePass = false;
    std::uint64_t lastPassCycle = 0;
    std::uint64_t spmReads = 0;
    std::uint64_t spmWrites = 0;
};

/**
 * Capture-once cache shared by sweep workers: the first caller of a
 * key runs @p build (a full capture simulation); concurrent callers
 * for the same key block on its completion and share the entry.
 */
class TraceCache
{
  public:
    struct Entry
    {
        core::DynTrace trace;
        /** Keeps the kernel module (and thus fn) alive. */
        std::shared_ptr<void> holder;
        const ir::Function *fn = nullptr;
        /** Shared scheduling skeleton (see buildReplayPrep). */
        std::shared_ptr<const ReplayPrep> prep;
        /** Wall seconds the capture run took (telemetry). */
        double captureSeconds = 0.0;
    };

    using EntryPtr = std::shared_ptr<const Entry>;

    /**
     * Return the entry for @p key, running @p build to create it if
     * this is the first request. Exceptions from @p build propagate
     * to every waiter of that key.
     */
    EntryPtr getOrBuild(const std::string &key,
                        const std::function<Entry()> &build);

  private:
    std::mutex mutex;
    std::unordered_map<std::string, std::shared_future<EntryPtr>>
        entries;
};

} // namespace salam::drive

#endif // SALAM_DRIVE_TRACE_REPLAY_HH
