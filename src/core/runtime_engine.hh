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
 * ComputeUnit SimObject drives it inside a full system. With a
 * captured DynTrace as its operand source it is also the scheduler
 * of the trace-reuse fast path (drive::TraceReplayer).
 */

#ifndef SALAM_CORE_RUNTIME_ENGINE_HH
#define SALAM_CORE_RUNTIME_ENGINE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
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

/** The seq (and reader link) that names no instance. */
inline constexpr std::uint64_t noSeq = ~std::uint64_t(0);

/**
 * One memory operation the engine hands its client. The instance
 * stays in the engine's window; the client names it by @p seq when
 * it delivers the response.
 */
struct MemRequest
{
    std::uint64_t seq = 0;
    std::uint64_t addr = 0;
    unsigned size = 0;
    bool isLoad = false;
    /** Store data in the low @p size bytes (0 under a trace source). */
    std::uint64_t storeData = 0;
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
 * full system, the trace replay's scratchpad model in the fast path).
 * A narrow virtual interface instead of per-call std::function hooks:
 * these are the engine's hottest upcalls (every memory issue, every
 * cycle).
 */
class EngineClient
{
  public:
    virtual ~EngineClient() = default;

    /**
     * Issue the memory operation @p req. Returns false when the
     * client cannot accept it this cycle.
     */
    virtual bool engineIssueMemory(const MemRequest &req) = 0;

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
     * Deliver the memory response for instance @p seq, carrying the
     * memory system's mem::Packet service annotations. Loads carry
     * @p data of @p size bytes (none under a trace source). May
     * arrive between engine cycles.
     */
    void memoryResponse(std::uint64_t seq, unsigned service_flags,
                        const std::uint8_t *data, unsigned size);

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
     * engine only appends — the stamp fields (irHash,
     * capturedBlockSequential) are the caller's.
     */
    void setTraceCapture(DynTrace *trace) { capture = trace; }

    /**
     * Take operands from @p trace instead of evaluating them (the
     * trace-reuse fast path): branch targets and effective addresses
     * come from its records, compute ops are not evaluated, and
     * loads carry no data. The schedule is the one a full run of the
     * traced execution produces. @p trace must have been validated
     * against this CDFG (drive::buildReplayPrep). Attach before
     * start().
     */
    void setTraceSource(const DynTrace *trace) { source = trace; }

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
    static constexpr unsigned noBlock = ~0u;

    /**
     * One dynamic instance, kept by value in the window ring at slot
     * seq & windowMask: one cache line, no heap storage. Links are
     * seqs (noSeq: none). Its operand slots, memory state, values
     * and profiling state live in parallel rings at the same slot.
     */
    struct DynInst
    {
        /** First cycle this instance may issue (block-import fence). */
        std::uint64_t minIssueCycle = 0;
        std::uint64_t issueCycle = 0;
        /** Cycle the result commits (valid once issued). */
        std::uint64_t commitCycle = 0;
        /** Previous and next in-window instance of the same static
         * instruction (WAW/WAR hand-off and safe retirement). */
        std::uint64_t prevInstance = noSeq;
        std::uint64_t nextInstance = noSeq;
        /** Head of the list of readers bound to this result, as a
         * reader link (see Operand::nextReader). */
        std::uint64_t firstReader = noSeq;
        std::uint32_t staticId = 0;
        /** Producers in the operand slots that have not committed. */
        std::uint32_t pendingOperands = 0;
        /** Dynamic consumers that have not issued yet (WAR). */
        std::uint32_t unissuedReaders = 0;
        bool issued = false;
        bool committed = false;
        bool addrKnown = false;
        bool memInFlight = false;
    };

    /** One operand slot of an instance. */
    struct Operand
    {
        /** Uncommitted producer bound at import; noSeq once captured. */
        std::uint64_t producer = noSeq;
        /**
         * Next reader of the same producer, as a link
         * (seq << slotShift | slot); noSeq ends the list.
         */
        std::uint64_t nextReader = noSeq;
    };

    /** A memory op's address state. */
    struct MemState
    {
        std::uint64_t addr = 0;
        /** Position in program memory order (disambiguation). */
        std::uint64_t memSeq = 0;
        unsigned size = 0;
        /** Index in the resolved-address list while listed. */
        std::uint32_t knownIndex = 0;
        /** mem::Packet service annotations copied from the response. */
        unsigned serviceFlags = 0;
    };

    /**
     * Instance state read only by a profiler or a trace sink, kept
     * only while one is attached.
     */
    struct ProfState
    {
        /** Tick at issue (trace sink). */
        Tick issueTick = 0;
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
    };

    /** Per-static-instruction facts hoisted out of the issue path. */
    struct StaticFacts
    {
        /** Σ operand register bits × read energy (issue cost). */
        double readEnergyPj = 0.0;
        /** Result bits × write energy; 0 for void results. */
        double writeEnergyPj = 0.0;
        double fuEnergyPj = 0.0;
        const ir::Instruction *inst = nullptr;
        unsigned resultValueId = 0;
        unsigned latency = 0;
        unsigned initiationInterval = 1;
        /** Access size in bytes (loads and stores). */
        unsigned memSize = 0;
        /** Block ids: the parent, and a branch's two successors. */
        unsigned block = 0;
        unsigned ifTrue = noBlock;
        unsigned ifFalse = noBlock;
        hw::FuType fu = hw::FuType::None;
        OpKind kind = opCompute;
        /** Compute ops: laneFp, laneInt or laneOther. */
        std::uint8_t lane = laneOther;
        /** Dense index among limited FU pools; noLimitedFu if none. */
        std::uint8_t limitedFu = noLimitedFu;
        /** Operand slots an instance binds (phis keep one). */
        std::uint8_t numSlots = 0;
        /** FU-bound compute op: issue waits for the FU hand-off. */
        bool handOffGated = false;
        bool isVoid = true;
        bool isPhi = false;

        bool isMemory() const { return kind == opLoad || kind == opStore; }

        /** Slot holding a load's or store's pointer. */
        unsigned ptrSlot() const { return kind == opLoad ? 0 : 1; }
    };

    /** One resolved, uncommitted memory reference. */
    struct MemRef
    {
        std::uint64_t memSeq;
        std::uint64_t addr;
        unsigned size;
        std::uint64_t seq;
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

    /** Import block @p block's instructions into the reservation
     * queue, entered from block @p from (noBlock at the entry). */
    void importBlock(unsigned block, unsigned from);

    /** Create the dynamic instance of @p info's instruction. */
    std::uint64_t createDynInst(const StaticInstInfo &info);

    DynInst &at(std::uint64_t seq) { return window[seq & windowMask]; }

    const DynInst &
    at(std::uint64_t seq) const
    {
        return window[seq & windowMask];
    }

    const StaticFacts &factsOf(std::uint64_t seq) const
    { return facts[at(seq).staticId]; }

    Operand *
    operandsOf(std::uint64_t seq)
    {
        return &operands[(seq & windowMask) << slotShift];
    }

    /** Operand values of @p seq (without a trace source only). */
    ir::RuntimeValue *
    valuesOf(std::uint64_t seq)
    {
        return &operandValues[(seq & windowMask) << slotShift];
    }

    ir::RuntimeValue &resultOf(std::uint64_t seq)
    { return results[seq & windowMask]; }

    MemState &memOf(std::uint64_t seq)
    { return memStates[seq & windowMask]; }

    const MemState &
    memOf(std::uint64_t seq) const
    {
        return memStates[seq & windowMask];
    }

    ProfState &profOf(std::uint64_t seq)
    { return profStates[seq & windowMask]; }

    /** Record why ready @p seq did not issue (profiler only). */
    void
    noteWait(std::uint64_t seq, obs::ProfCause cause)
    {
        if (observer.profiler != nullptr)
            profOf(seq).waitCause = cause;
    }

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

    /** Re-lay the rings and candidate bitmaps over >= @p slots. */
    void growWindow(std::uint64_t slots);

    /**
     * Enter @p seq into the issue-candidate set once its operands
     * have committed. Without a profiler, an FU-bound compute op
     * also waits for its previous instance's hand-off (issued, with
     * every reader of its result issued).
     */
    void maybeCandidate(std::uint64_t seq);

    /** Leave the candidate set and the reservation count at issue. */
    void markIssued(std::uint64_t seq);

    /**
     * Re-offer @p next (may be noSeq), the next instance of the
     * static instruction @p f describes, once its predecessor issued
     * or drained its readers, if its candidacy waits for the
     * hand-off.
     */
    void offerHandOff(const StaticFacts &f, std::uint64_t next);

    /** Capture operand values (producers committed by now). */
    void captureOperands(std::uint64_t seq);

    bool fuAvailable(std::uint64_t seq);

    void occupyFu(const StaticFacts &f);

    /**
     * Resolve @p seq's address at cycle @p due: in the running scan
     * when due, otherwise at the start of that cycle's scan.
     */
    void scheduleResolve(std::uint64_t seq, std::uint64_t due);

    /** Resolve a memory op's effective address (pointer is ready). */
    void resolveAddress(std::uint64_t seq);

    /** Refresh the start-of-cycle unknown-address minimums. */
    void refreshOrderingSnapshot();

    /**
     * Does an older, resolved, uncommitted access overlap @p seq with
     * a conflicting kind (store before anything, load before store)?
     */
    bool olderOverlapPending(std::uint64_t seq, bool is_store) const;

    /** Drop @p seq from the resolved-address lists (at commit). */
    void forgetAddress(std::uint64_t seq);

    /** Visit one candidate in the issue scan. */
    void visitCandidate(std::uint64_t seq);

    /** Issue a branch or ret: commit now, import the successor. */
    void issueControl(std::uint64_t seq, const StaticFacts &f);

    /** Issue a ready load or store if ordering and ports allow. */
    void issueMemory(std::uint64_t seq, const StaticFacts &f);

    void issueCompute(std::uint64_t seq);

    void commit(std::uint64_t seq);

    /** Emit @p seq's dynamic-CDFG node (profiler is attached). */
    void recordProfile(std::uint64_t seq);

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
     * by seq. The parallel rings below share its slots; operand
     * rings hold 1 << slotShift slots per instance.
     */
    std::vector<DynInst> window;
    std::uint64_t windowMask = 0;
    std::uint64_t windowFront = 0;
    unsigned slotShift = 0;
    std::vector<Operand> operands;
    std::vector<MemState> memStates;
    /** Operand values and results; empty under a trace source. */
    std::vector<ir::RuntimeValue> operandValues;
    std::vector<ir::RuntimeValue> results;
    /** Empty unless a profiler or trace sink is attached. */
    std::vector<ProfState> profStates;

    /**
     * Issue-candidate set: one bit per window seq, word (seq >> 6)
     * masked to the ring. The class shadows mark loads, stores and
     * compute ops bound to each limited FU pool, so a closed class
     * is masked out of a scan wholesale.
     */
    std::vector<std::uint64_t> candBits;
    /** Bit per candBits word that is nonzero (the scan skips the rest). */
    std::vector<std::uint64_t> candWords;
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

    /**
     * An issued compute op waiting to commit, with what the commit
     * walk reads of it, so a walk touches no window slot or
     * StaticFacts for the ops that are not due.
     */
    struct PendingCommit
    {
        std::uint64_t seq;
        std::uint64_t commitCycle;
        std::size_t fu; ///< FuType index (occupancy statistics)
    };

    /** Issued compute ops waiting to commit (swap-remove order). */
    std::vector<PendingCommit> computeQueue;
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

    /** Address resolutions (due cycle, seq) for a later scan. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> dueResolves;

    std::uint64_t nextMemSeq = 0;

    /**
     * Latest in-window dynamic instance per static instruction,
     * indexed by StaticInstInfo::id (noSeq = none in window).
     */
    std::vector<std::uint64_t> latestInstance;

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
    unsigned pendingImport = noBlock;
    unsigned pendingImportFrom = noBlock;

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

    /** Trace operand source; null = evaluate the IR (full mode). */
    const DynTrace *source = nullptr;
};

} // namespace salam::core

#endif // SALAM_CORE_RUNTIME_ENGINE_HH
