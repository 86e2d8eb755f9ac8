/**
 * @file
 * DynTrace: a reusable dynamic-execution trace of one (kernel,
 * input) pair.
 *
 * The trace-reuse fast path (Sec. "incremental simulation") runs the
 * full execute-in-execute engine once with capture enabled, recording
 * per dynamic instance only what depends on *data*: the control edge
 * each terminator took and every resolved memory address. A replay
 * then drives the same RuntimeEngine with this trace as its operand
 * source (RuntimeEngine::setTraceSource) under different FU counts,
 * port limits, queue sizes, and memory latencies without re-executing
 * a single operand — those knobs change *when* instances issue, never
 * *which* instances exist or *where* they touch memory.
 *
 * The record is one 8-byte word per dynamic instance, indexed by the
 * engine's dynamic seq: a load's or store's resolved address, a
 * branch's successor block id, and nothing for any other
 * instruction. Everything else follows from the IR the trace is
 * stamped with (a hash of the captured function): static ids are
 * assigned in block and instruction order (StaticCdfg), so the
 * instruction a seq executed is fixed by walking the chain of block
 * imports from the entry block, each branch word naming the next
 * one; an access's size is StaticFacts::memSize. A replay on any
 * other IR is refused, and drive::buildReplayPrep checks the chain
 * before a replay starts. Operand values are not stored either: the
 * engine does not evaluate under a trace source, so it only needs the
 * dependence shape (already in the StaticCdfg) plus these outcomes.
 */

#ifndef SALAM_CORE_DYN_TRACE_HH
#define SALAM_CORE_DYN_TRACE_HH

#include <cstdint>
#include <vector>

namespace salam::ir
{
class Function;
} // namespace salam::ir

namespace salam::core
{

/**
 * Per-dynamic-instance capture record (index == engine seq): the one
 * outcome of the instance that data decides.
 */
struct DynTraceInst
{
    /**
     * Loads and stores: the resolved effective address. Branches:
     * the StaticBlockInfo::id of the successor block the branch
     * imported. Unused (0) for every other instruction, ret included.
     */
    std::uint64_t word = 0;
};

static_assert(sizeof(DynTraceInst) == 8,
              "a trace costs one word per dynamic instance");

/** One captured execution of one (kernel, input) pair. */
struct DynTrace
{
    /**
     * DeviceConfig::blockSequentialImport at capture time. The one
     * scheduling knob that changes which dynamic instances exist
     * (FSM-style drain points alter import timing but, more to the
     * point, a replay under the other mode has no captured drain
     * semantics to honour) — a mismatch forces full simulation.
     */
    bool capturedBlockSequential = false;

    /** irHashOf() the captured function (stamped at capture). */
    std::uint64_t irHash = 0;

    /** The dynamic instruction stream, in seq order. */
    std::vector<DynTraceInst> insts;

    bool empty() const { return insts.empty(); }
};

/**
 * obs::fnv1aHash of @p fn's printer text: the identity of the IR a
 * trace's block chain and words refer to. The function is hashed,
 * not its module, whose name differs between capture and replay.
 */
std::uint64_t irHashOf(const ir::Function &fn);

} // namespace salam::core

#endif // SALAM_CORE_DYN_TRACE_HH
