/**
 * @file
 * RuntimeEngine: gem5-SALAM's dynamic LLVM runtime execution engine.
 *
 * This is the paper's "execute-in-execute" model (Sec. III-B). The
 * engine maintains:
 *
 *  - a reservation queue of dynamic instructions, imported at basic-
 *    block granularity from the static CDFG;
 *  - a compute queue of in-flight operations occupying functional
 *    units until their latency elapses;
 *  - asynchronous read/write memory queues that forward requests to
 *    the communications interface and commit on response.
 *
 * Dynamic dependencies are generated as instructions enter the
 *  reservation queue: RAW edges to the most recent uncommitted
 * producer of each operand, plus WAW/WAR constraints against the
 * previous dynamic instance of the same static instruction and its
 * readers. Basic-block terminators import the successor block
 * immediately after evaluation, which is what enables loop pipelining
 * and correct data-dependent control — the behaviours trace-based
 * models cannot capture.
 *
 * Issue is event-driven. Each instance counts its uncommitted
 * producers, and a producer's commit decrements its readers' counts;
 * an instance whose count reaches zero enters an issue-candidate set
 * that each cycle visits in ascending sequence order. Once a cycle's
 * load or store budget, or a limited FU pool, is exhausted, that
 * class closes for the rest of the cycle. The memory-disambiguation
 * state is kept up to date incrementally as addresses resolve and
 * operations commit, so a cycle's work is proportional to the
 * instructions that can act in it, not to the window size.
 *
 * The engine is a plain clock-stepped class (no SimObject coupling)
 * so it can be unit-tested against a scripted memory interface; the
 * ComputeUnit SimObject drives it inside a full system.
 */

#ifndef SALAM_CORE_RUNTIME_ENGINE_HH
#define SALAM_CORE_RUNTIME_ENGINE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dyn_trace.hh"
#include "ir/eval.hh"
#include "obs/json.hh"
#include "obs/profiler.hh"
#include "obs/trace_sink.hh"
#include "sim/statistics.hh"
#include "sim/types.hh"
#include "static_cdfg.hh"

namespace salam::core
{

/** One dynamic instruction in flight. */
struct DynInst
{
    const ir::Instruction *inst = nullptr;
    const StaticInstInfo *staticInfo = nullptr;
    std::uint64_t seq = 0;

    /** First cycle this instance may issue (block-import fence). */
    std::uint64_t minIssueCycle = 0;

    bool issued = false;
    bool committed = false;

    /** Dynamic consumers that have not issued yet (WAR tracking). */
    unsigned unissuedReaders = 0;

    /** Previous dynamic instance of the same static instruction. */
    DynInst *prevInstance = nullptr;

    /** Next dynamic instance (for safe window retirement). */
    DynInst *nextInstance = nullptr;

    /** Producer instance for each operand (null when committed). */
    std::vector<DynInst *> producers;

    /** Producers in `producers` that have not committed yet. */
    unsigned pendingOperands = 0;

    /** One reader bound to this instance's result at import. */
    struct Reader
    {
        DynInst *inst;
        unsigned slot;
    };

    /** Readers with a live RAW edge here, notified at commit. */
    std::vector<Reader> readers;

    /** Captured operand values (filled at issue). */
    std::vector<ir::RuntimeValue> operandValues;

    ir::RuntimeValue result;

    /** Cycle the result commits (valid once issued, compute ops). */
    std::uint64_t commitCycle = 0;
    std::uint64_t issueCycle = 0;

    /** Tick at issue (recorded only while event tracing is on). */
    Tick issueTick = 0;

    // Memory-op state.
    bool isLoad = false;
    bool isStore = false;
    bool addrKnown = false;
    bool memInFlight = false;
    std::uint64_t memAddr = 0;
    unsigned memSize = 0;
    /** Position in program memory order (disambiguation). */
    std::uint64_t memSeq = 0;
    /** Index in the engine's resolved-address list while listed. */
    std::uint32_t knownIndex = 0;

    // Profiling state, maintained only while a profiler is attached.
    /** Commit cycle of the latest dynamic operand producer. */
    std::uint64_t prodReadyCycle = 0;
    /** That producer's seq; obs::noProfSeq without one. */
    std::uint64_t prodParentSeq = obs::noProfSeq;
    /** Seq of the terminator that imported this instance. */
    std::uint64_t ctrlParentSeq = obs::noProfSeq;
    /**
     * Cause for the control link segment. Control for a prompt
     * import; a memory cause when the import was deferred mostly
     * behind in-flight memory operations.
     */
    obs::ProfCause ctrlLinkCause = obs::ProfCause::Control;
    /** Last reason this instance was seen blocked while ready. */
    obs::ProfCause waitCause = obs::ProfCause::DataDep;
    /** mem::Packet service annotations copied from the response. */
    unsigned memServiceFlags = 0;

    bool isMemory() const { return isLoad || isStore; }

    /**
     * Return to freshly-constructed state, keeping the capacity of
     * the producer/operand vectors (freelist-arena recycling).
     */
    void
    reset()
    {
        inst = nullptr;
        staticInfo = nullptr;
        seq = 0;
        minIssueCycle = 0;
        issued = false;
        committed = false;
        unissuedReaders = 0;
        prevInstance = nullptr;
        nextInstance = nullptr;
        producers.clear();
        pendingOperands = 0;
        readers.clear();
        operandValues.clear();
        result = ir::RuntimeValue{};
        commitCycle = 0;
        issueCycle = 0;
        issueTick = 0;
        isLoad = false;
        isStore = false;
        addrKnown = false;
        memInFlight = false;
        memAddr = 0;
        memSize = 0;
        memSeq = 0;
        knownIndex = 0;
        prodReadyCycle = 0;
        prodParentSeq = obs::noProfSeq;
        ctrlParentSeq = obs::noProfSeq;
        ctrlLinkCause = obs::ProfCause::Control;
        waitCause = obs::ProfCause::DataDep;
        memServiceFlags = 0;
    }
};

/** Per-run statistics, the raw material for Figs. 13-15. */
struct EngineStats
{
    std::uint64_t totalCycles = 0;
    /** Cycles with at least one new instruction issued. */
    std::uint64_t newExecCycles = 0;
    /** Active cycles where nothing new could be scheduled. */
    std::uint64_t stallCycles = 0;

    // Stall-cycle breakdown by what was in flight while stalled.
    std::uint64_t stallLoadOnly = 0;
    std::uint64_t stallStoreOnly = 0;
    std::uint64_t stallComputeOnly = 0;
    std::uint64_t stallLoadCompute = 0;
    std::uint64_t stallStoreCompute = 0;
    std::uint64_t stallLoadStore = 0;
    std::uint64_t stallLoadStoreCompute = 0;
    std::uint64_t stallEmpty = 0;

    // Issue counts.
    std::uint64_t loadsIssued = 0;
    std::uint64_t storesIssued = 0;
    std::uint64_t fpOpsIssued = 0;
    std::uint64_t intOpsIssued = 0;
    std::uint64_t otherOpsIssued = 0;
    std::uint64_t dynamicInstructions = 0;
    /** Dynamic instructions retired (forward-progress signal). */
    std::uint64_t committedInstructions = 0;

    // Cycle-granularity scheduling overlap (Fig. 15).
    std::uint64_t cyclesWithLoadIssue = 0;
    std::uint64_t cyclesWithStoreIssue = 0;
    std::uint64_t cyclesWithFpIssue = 0;
    std::uint64_t cyclesWithLoadAndStoreIssue = 0;
    std::uint64_t cyclesWithLoadAndFpIssue = 0;

    /** Σ over cycles of busy units, per FU type (occupancy). */
    std::array<std::uint64_t, hw::numFuTypes> fuBusyCycleSum{};

    // Dynamic energy (pJ) accumulated over the run.
    double fuEnergyPj = 0.0;
    double registerReadEnergyPj = 0.0;
    double registerWriteEnergyPj = 0.0;

    /** Stalled cycles where a load (and possibly compute) blocked. */
    std::uint64_t
    stallsInvolvingMemory() const
    {
        return stallLoadOnly + stallStoreOnly + stallLoadStore +
               stallLoadCompute + stallStoreCompute +
               stallLoadStoreCompute;
    }
};

/**
 * Observability attachments for one engine. All fields are optional;
 * a default-constructed observer keeps the engine silent. The owner
 * (ComputeUnit) wires the registry-owned stats and the simulation's
 * trace sink here; the plain clock-stepped engine stays decoupled
 * from SimObject and can still be unit-tested bare.
 */
struct EngineObserver
{
    /** Object name used in trace lines and event records. */
    std::string name = "engine";

    /** Tick stamp source; when null, the cycle count is the stamp. */
    std::function<Tick()> now;

    /** Ticks per engine cycle (for event durations). */
    Tick cyclePeriod = 1;

    /** Event-trace sink (counters + per-op slices); may be null. */
    obs::TraceSink *sink = nullptr;

    /** Sampled each cycle with loads+stores in flight. */
    Histogram *memQueueOccupancy = nullptr;

    /** Sampled each cycle with the reservation-queue depth. */
    Histogram *reservationOccupancy = nullptr;

    /** Stall-cause lanes, in RuntimeEngine::stallLaneNames() order. */
    VectorStat *stallCauses = nullptr;

    /** Issue-class lanes, in RuntimeEngine::issueLaneNames() order. */
    VectorStat *issueClasses = nullptr;

    /** Dynamic-CDFG recorder; one node per commit. May be null. */
    obs::Profiler *profiler = nullptr;
};

/**
 * The owner-side interface the engine calls into (ComputeUnit in a
 * full system, a scripted stub in unit tests). A narrow virtual
 * interface instead of per-call std::function hooks: these are the
 * engine's hottest upcalls (every memory issue, every cycle).
 */
class EngineClient
{
  public:
    virtual ~EngineClient() = default;

    /**
     * Issue a memory operation to the communications interface.
     * For stores, op->operandValues[0] holds the data. Returns
     * false when the interface cannot accept it this cycle.
     */
    virtual bool engineIssueMemory(DynInst *op) = 0;

    /** Called when the engine has future work to do. */
    virtual void engineRequestTick() = 0;

    /** Called once when execution completes. */
    virtual void engineDone() {}
};

/** The dynamic engine. */
class RuntimeEngine
{
  public:
    RuntimeEngine(const StaticCdfg &cdfg, const DeviceConfig &config,
                  EngineClient &client);

    /** Begin execution with the given argument values. */
    void start(const std::vector<ir::RuntimeValue> &args);

    /** Advance one accelerator clock cycle. */
    void cycle();

    /**
     * Deliver a memory response for @p op. Loads carry @p data of
     * @p size bytes. May arrive between engine cycles.
     */
    void memoryResponse(DynInst *op, const std::uint8_t *data,
                        unsigned size);

    bool running() const { return active; }

    bool finished() const { return completed; }

    std::uint64_t currentCycle() const { return cycleCount; }

    const EngineStats &stats() const { return engineStats; }

    const DeviceConfig &config() const { return cfg; }

    const StaticCdfg &cdfg() const { return staticCdfg; }

    /** In-flight loads (read queue occupancy). */
    unsigned readsInFlight() const { return loadsInFlight; }

    unsigned writesInFlight() const { return storesInFlight; }

    /**
     * Attach (or replace) the observability wiring. ComputeUnit
     * attaches it at init(), which may come after start().
     */
    void setObserver(EngineObserver obs);

    /**
     * Capture this run's dynamic trace into @p trace (see
     * dyn_trace.hh): one record per dynamic instance, with branch
     * outcomes and resolved addresses filled in as the run decides
     * them. Attach before start(); pass nullptr to detach. The
     * engine only appends — identity fields (kernelKey, ...) are the
     * caller's.
     */
    void setTraceCapture(DynTrace *trace) { capture = trace; }

    /** Lane names for EngineObserver::stallCauses, in lane order. */
    static const std::vector<std::string> &stallLaneNames();

    /** Lane names for EngineObserver::issueClasses, in lane order. */
    static const std::vector<std::string> &issueLaneNames();

    /**
     * Append the scheduler's live state — reservation, compute, and
     * memory queues, in-flight counts, pending block import — to a
     * watchdog state dump.
     */
    void dumpState(obs::JsonBuilder &json) const;

  private:
    /** Stall-cause lane indices (stallLaneNames() order). */
    enum StallLane : std::size_t
    {
        laneLoadOnly = 0,
        laneStoreOnly,
        laneComputeOnly,
        laneLoadCompute,
        laneStoreCompute,
        laneLoadStore,
        laneLoadStoreCompute,
        laneEmpty,
        numStallLanes
    };

    /** Issue-class lane indices (issueLaneNames() order). */
    enum IssueLane : std::size_t
    {
        laneLoad = 0,
        laneStore,
        laneFp,
        laneInt,
        laneOther,
        numIssueLanes
    };

    /** Issue path of a static instruction. */
    enum OpKind : std::uint8_t
    {
        opCompute = 0,
        opBr,
        opRet,
        opLoad,
        opStore
    };

    static constexpr std::uint8_t noLimitedFu = 0xff;
    static constexpr std::uint64_t never = ~0ull;

    /** Per-static-instruction facts hoisted out of the issue path. */
    struct StaticFacts
    {
        /** Σ operand register bits × read energy (issue cost). */
        double readEnergyPj = 0.0;
        /** Result bits × write energy; 0 for void results. */
        double writeEnergyPj = 0.0;
        double fuEnergyPj = 0.0;
        OpKind kind = opCompute;
        /** Compute ops: laneFp, laneInt or laneOther. */
        IssueLane lane = laneOther;
        /** Dense index among limited FU pools; noLimitedFu if none. */
        std::uint8_t limitedFu = noLimitedFu;
        /** FU-bound compute op: issue waits for the FU hand-off. */
        bool handOffGated = false;
    };

    /** One resolved, uncommitted memory reference. */
    struct MemRef
    {
        std::uint64_t seq;
        std::uint64_t addr;
        unsigned size;
        DynInst *inst;
    };

    /** Per-cycle issue bookkeeping, reset at every scan. */
    struct ScanState
    {
        unsigned loads = 0;
        unsigned stores = 0;
        unsigned fp = 0;
        bool issuedAny = false;
        /** A ready op of the class found its port/queue budget spent. */
        bool loadBlocked = false;
        bool storeBlocked = false;
        /** The ordering snapshot blocks every later op of the class. */
        bool loadsOrdered = false;
        bool storesOrdered = false;
        /** Bit per limited FU pool found exhausted this cycle. */
        std::uint32_t fuClosed = 0;
    };

    /** Trace timestamp: wall tick when wired, cycle count bare. */
    Tick
    obsNow() const
    {
        return observer.now ? observer.now() : Tick{cycleCount};
    }
    /** Import @p block's instructions into the reservation queue. */
    void importBlock(const ir::BasicBlock *block,
                     const ir::BasicBlock *from);

    /** Create the dynamic instance of @p info's instruction. */
    DynInst *createDynInst(const StaticInstInfo &info);

    /** Pop a recycled DynInst from the arena (or grow it). */
    DynInst *acquireDynInst();

    /** Return a retired DynInst to the arena freelist. */
    void releaseDynInst(DynInst *di) { freeList.push_back(di); }

    const StaticFacts &factsOf(const DynInst &di) const
    { return facts[di.staticInfo->id]; }

    /** The in-window instance with sequence number @p seq. */
    DynInst *atSeq(std::uint64_t seq) const
    { return window[seq & windowMask]; }

    /**
     * Make room in the window ring for sequence number @p seq. One
     * spare word keeps a scan over [windowFront, nextSeq) from ever
     * meeting two seqs that share a candidate word.
     */
    void
    reserveWindow(std::uint64_t seq)
    {
        if (seq + 1 - windowFront + 64 > window.size())
            growWindow(seq + 1 - windowFront + 64);
    }

    /** Re-lay the ring and candidate bitmaps over >= @p slots. */
    void growWindow(std::uint64_t slots);

    /**
     * Enter @p di into the issue-candidate set once its operands
     * have committed. Without a profiler, an FU-bound compute op
     * also waits for its previous instance's hand-off (issued, with
     * every reader of its result issued).
     */
    void maybeCandidate(DynInst *di);

    /** Leave the candidate set and the reservation count at issue. */
    void markIssued(DynInst *di);

    /**
     * Re-offer @p next (may be null) once its predecessor issued or
     * drained its readers, if its candidacy waits for the hand-off.
     */
    void offerHandOff(DynInst *next);

    /** Capture operand values (producers committed by now). */
    void captureOperands(DynInst *di);

    bool fuAvailable(const DynInst &di);

    void occupyFu(DynInst *di);

    /**
     * Resolve @p di's address at cycle @p due: in the running scan
     * when due, otherwise at the start of that cycle's scan.
     */
    void scheduleResolve(DynInst *di, std::uint64_t due);

    /** Resolve a memory op's effective address (pointer is ready). */
    void resolveAddress(DynInst *di);

    /** Refresh the start-of-cycle unknown-address minimums. */
    void refreshOrderingSnapshot();

    /**
     * Does an older, resolved, uncommitted access overlap @p di with
     * a conflicting kind (store before anything, load before store)?
     */
    bool olderOverlapPending(const DynInst &di) const;

    /** Drop @p di from the resolved-address lists (at commit). */
    void forgetAddress(DynInst *di);

    /** Visit one candidate in the issue scan. */
    void visitCandidate(DynInst *di);

    void issueCompute(DynInst *di);

    void commit(DynInst *di);

    /** Emit @p di's dynamic-CDFG node (profiler is attached). */
    void recordProfile(DynInst *di);

    /** Drop fully retired instructions from the window front. */
    void pruneWindow();

    void recordCycleStats();

    void finish();

    const StaticCdfg &staticCdfg;
    DeviceConfig cfg;
    EngineClient &client;

    bool active = false;
    bool completed = false;
    bool retSeen = false;
    std::uint64_t cycleCount = 0;
    std::uint64_t nextSeq = 0;

    std::vector<StaticFacts> facts;
    std::array<std::uint8_t, hw::numFuTypes> limitedFuOf{};
    unsigned numLimitedFus = 0;

    /**
     * The instruction window (reservation + in-flight), sequence
     * numbers [windowFront, nextSeq), as a power-of-two ring indexed
     * by seq. Entries are arena-pooled: retirement returns them to
     * the freelist instead of deallocating.
     */
    std::vector<DynInst *> window;
    std::uint64_t windowMask = 0;
    std::uint64_t windowFront = 0;

    /** Backing storage for every DynInst ever created (arena). */
    std::vector<std::unique_ptr<DynInst>> arena;

    /** Retired instances ready for reuse. */
    std::vector<DynInst *> freeList;

    /**
     * Host allocation counters, not simulated statistics: DynInst
     * requests served from the freelist vs ones that grew the arena
     * with a heap allocation. finish() adds them to the bound
     * SimContext's HostTelemetry (obs::HostTelemetry::noteArena).
     */
    std::uint64_t arenaHitCount = 0;
    std::uint64_t arenaMissCount = 0;

    /**
     * Issue-candidate set: one bit per window seq, word (seq >> 6)
     * masked to the ring. The class shadows mark loads, stores and
     * compute ops bound to each limited FU pool, so a closed class
     * is masked out of a scan wholesale.
     */
    std::vector<std::uint64_t> candBits;
    std::vector<std::uint64_t> candLoadBits;
    std::vector<std::uint64_t> candStoreBits;
    std::vector<std::vector<std::uint64_t>> candFuBits;

    /** Lower bound on the oldest unissued seq (scan start). */
    std::uint64_t firstUnissued = 0;

    /** Imported but unissued instructions (queue occupancy). */
    unsigned unissuedCount = 0;

    /**
     * Class closing and hand-off-gated candidacy skip visits whose
     * only effect is an instance's profiler wait cause, so they are
     * enabled only while no profiler is attached.
     */
    bool pruneVisits = true;

    bool inScan = false;
    ScanState scan;

    /** Issued compute ops waiting to commit (swap-remove order). */
    std::vector<DynInst *> computeQueue;
    /** Earliest commitCycle in computeQueue (a lower bound). */
    std::uint64_t nextCommitDue = never;
    /** computeQueue entries per FU type (occupancy statistics). */
    std::array<std::uint32_t, hw::numFuTypes> fuInflight{};
    /** Bit per FU type with a nonzero fuInflight entry. */
    std::uint32_t fuInflightTypes = 0;

    /**
     * Unresolved memory ops by seq, in memory order. Their fronts
     * give the unknown-address minimums of the ordering snapshot,
     * taken at the start of each cycle: resolutions made during a
     * scan reach the unknown-address gates only the next cycle.
     */
    std::deque<std::uint64_t> unresolvedStores;
    std::deque<std::uint64_t> unresolvedLoads;
    std::uint64_t snapUnknownStore = never;
    std::uint64_t snapUnknownLoad = never;
    bool snapDirty = false;

    /** Resolved, uncommitted memory references (any order). */
    std::vector<MemRef> knownStores;
    std::vector<MemRef> knownLoads;

    /** Address resolutions due at the start of a later scan. */
    std::vector<std::pair<std::uint64_t, DynInst *>> dueResolves;

    std::uint64_t nextMemSeq = 0;

    /**
     * Latest in-window dynamic instance per static instruction,
     * indexed by StaticInstInfo::id (null = none in window).
     */
    std::vector<DynInst *> latestInstance;

    /**
     * Last committed value per static value, indexed by the dense
     * value id (arguments first, then instruction results);
     * committedKnown marks slots that have ever committed.
     */
    std::vector<ir::RuntimeValue> committedValues;
    std::vector<unsigned char> committedKnown;

    /** Pool FU release times: per type, per unit, free-at cycle. */
    std::array<std::vector<std::uint64_t>, hw::numFuTypes> poolFreeAt;

    /** Pending block import deferred by a full reservation queue. */
    const ir::BasicBlock *pendingImport = nullptr;
    const ir::BasicBlock *pendingImportFrom = nullptr;

    /** Terminator seq behind the import in progress (profiling). */
    std::uint64_t importCtrlSeq = obs::noProfSeq;
    std::uint64_t pendingImportCtrlSeq = obs::noProfSeq;

    /** Link cause handed to instances of the import in progress. */
    obs::ProfCause importCtrlCause = obs::ProfCause::Control;

    /**
     * Cycles the pending import has been deferred with (memory ops
     * in flight) vs. (no memory in flight). The majority decides
     * whether the eventual control link is charged to the memory
     * system or to control flow.
     */
    std::uint64_t importMemWaitCycles = 0;
    std::uint64_t importOtherWaitCycles = 0;

    unsigned loadsInFlight = 0;
    unsigned storesInFlight = 0;
    /** Ready-but-port-blocked memory ops seen this cycle. */
    bool memStallLoadBlocked = false;
    bool memStallStoreBlocked = false;

    EngineStats engineStats;
    EngineObserver observer;

    /** Dynamic-trace capture sink; null = capture off (hot path). */
    DynTrace *capture = nullptr;
};

} // namespace salam::core

#endif // SALAM_CORE_RUNTIME_ENGINE_HH
