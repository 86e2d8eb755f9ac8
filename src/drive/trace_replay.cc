#include "trace_replay.hh"

#include <algorithm>
#include <bit>

#include "ir/instruction.hh"

namespace salam::drive
{

using namespace salam::core;
using namespace salam::hw;

std::string
fastPathBlocker(const DynTrace &trace, const DeviceConfig &dev,
                bool fault_injection_active,
                bool interconnect_in_path)
{
    if (trace.empty())
        return "no captured trace";
    if (fault_injection_active) {
        return "fault injection makes outcomes schedule-dependent";
    }
    if (interconnect_in_path) {
        return "memory path crosses a modeled interconnect; replay "
               "models a private scratchpad only";
    }
    if (dev.blockSequentialImport != trace.capturedBlockSequential) {
        return "block-sequential import differs from the capture "
               "run (control-affecting parameter)";
    }
    return {};
}

ReplayPrep
buildReplayPrep(const StaticCdfg &cdfg, const DynTrace &trace)
{
    ReplayPrep prep;
    constexpr std::uint32_t npos = ReplayPrep::npos;
    constexpr std::uint32_t no_block = ~0u;
    const std::size_t n = trace.insts.size();
    prep.prevSame.assign(n, npos);
    prep.nextSame.assign(n, npos);
    prep.memSeq.assign(n, 0);
    prep.slotOffsets.assign(n + 1, 0);
    prep.slotTargets.reserve(n * 2);

    // 0 = not a memory op, 1 = load, 2 = store.
    std::vector<std::uint8_t> memKind(n, 0);

    // Pass 1: group the trace into whole-block imports (the capture
    // appends block-at-a-time, in import order), tracking the
    // control edge each import took so phi operand plans can be
    // selected statically, and mirroring latestInstance to turn the
    // engine's live-instance operand binding into per-seq targets.
    std::vector<std::uint32_t> lastInstance(cdfg.numInstructions(),
                                            npos);
    std::uint32_t from_id = no_block;
    std::uint32_t mem_count = 0;
    std::size_t pos = 0;
    while (pos < n) {
        std::uint32_t first_sid = trace.insts[pos].staticId;
        if (first_sid >= cdfg.numInstructions()) {
            prep.error = "trace references an unknown instruction";
            return prep;
        }
        const StaticInstInfo &finfo = cdfg.infoById(first_sid);
        const StaticBlockInfo &binfo =
            cdfg.blockInfo(finfo.inst->parent());
        if (binfo.firstInstId != first_sid ||
            pos + binfo.numInsts > n) {
            prep.error = "trace/static mismatch at seq " +
                std::to_string(pos);
            return prep;
        }
        for (unsigned i = 0; i < binfo.numInsts; ++i) {
            auto seq = static_cast<std::uint32_t>(pos + i);
            const StaticInstInfo &sinfo =
                cdfg.infoById(binfo.firstInstId + i);
            if (trace.insts[seq].staticId != sinfo.id) {
                prep.error = "trace/static mismatch at seq " +
                    std::to_string(seq);
                return prep;
            }

            // Same-instruction chain. The engine registers the new
            // instance before binding its operands, so update
            // lastInstance first, exactly as createDynInst does.
            std::uint32_t prev = lastInstance[sinfo.id];
            prep.prevSame[seq] = prev;
            if (prev != npos)
                prep.nextSame[prev] = seq;
            lastInstance[sinfo.id] = seq;

            auto bind = [&](const OperandPlan &plan) {
                prep.slotTargets.push_back(
                    plan.kind == OperandPlan::Kind::Producer
                        ? lastInstance[plan.producerId]
                        : npos);
            };
            if (sinfo.isPhi) {
                const OperandPlan *plan = nullptr;
                if (from_id != no_block) {
                    for (const auto &[pred_id, p] :
                         sinfo.phiIncoming) {
                        if (pred_id == from_id) {
                            plan = &p;
                            break;
                        }
                    }
                }
                if (plan == nullptr) {
                    prep.error = "phi has no incoming edge for the "
                                 "traced control flow";
                    return prep;
                }
                bind(*plan);
            } else {
                for (const OperandPlan &plan : sinfo.operands)
                    bind(plan);
            }
            prep.slotOffsets[seq + 1] =
                static_cast<std::uint32_t>(prep.slotTargets.size());

            auto opc = sinfo.inst->opcode();
            if (opc == ir::Opcode::Load) {
                memKind[seq] = 1;
                prep.memSeq[seq] = mem_count++;
            } else if (opc == ir::Opcode::Store) {
                memKind[seq] = 2;
                prep.memSeq[seq] = mem_count++;
            }
        }
        from_id = binfo.id;
        pos += binfo.numInsts;
    }

    // Reverse producer edges (commit notifications), ascending by
    // reader within each producer because seq is walked ascending.
    prep.readerOffsets.assign(n + 1, 0);
    for (std::uint32_t t : prep.slotTargets) {
        if (t != npos)
            ++prep.readerOffsets[t + 1];
    }
    for (std::size_t i = 0; i < n; ++i)
        prep.readerOffsets[i + 1] += prep.readerOffsets[i];
    prep.readerEdges.resize(prep.readerOffsets[n]);
    {
        std::vector<std::uint32_t> cursor(
            prep.readerOffsets.begin(), prep.readerOffsets.end() - 1);
        for (std::uint32_t seq = 0;
             seq < static_cast<std::uint32_t>(n); ++seq) {
            for (std::uint32_t s = prep.slotOffsets[seq];
                 s < prep.slotOffsets[seq + 1]; ++s) {
                std::uint32_t t = prep.slotTargets[s];
                if (t == npos)
                    continue;
                prep.readerEdges[cursor[t]++] =
                    (static_cast<std::uint64_t>(s) << 32) | seq;
            }
        }
    }

    // Memory-conflict edges. Work at the coarsest granularity that
    // divides every traced address and size: then two ops share a
    // bucket iff their byte ranges overlap, and the engine's
    // disambiguation reduces exactly to (a) the latest store per
    // bucket — earlier stores on a bucket serialize through it, so
    // it is uncommitted whenever any of them is — and (b) for
    // stores, every load on the bucket since that store (loads do
    // not serialize; loads before the store must commit before the
    // store can issue).
    std::uint64_t align_acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (memKind[i] != 0 && trace.insts[i].memSize != 0)
            align_acc |= trace.insts[i].memAddr |
                trace.insts[i].memSize;
    }
    unsigned shift =
        align_acc == 0
            ? 0
            : static_cast<unsigned>(std::countr_zero(align_acc));

    struct Cell
    {
        std::uint32_t lastStore = ReplayPrep::npos;
        std::vector<std::uint32_t> loadsSince;
    };
    std::unordered_map<std::uint64_t, Cell> cells;
    prep.conflictOffsets.assign(n + 1, 0);
    std::vector<std::uint32_t> scratch;
    for (std::uint32_t seq = 0; seq < static_cast<std::uint32_t>(n);
         ++seq) {
        if (memKind[seq] == 0) {
            prep.conflictOffsets[seq + 1] =
                prep.conflictOffsets[seq];
            continue;
        }
        const DynTraceInst &rec = trace.insts[seq];
        bool is_store = memKind[seq] == 2;
        scratch.clear();
        if (rec.memSize != 0) {
            std::uint64_t b0 = rec.memAddr >> shift;
            std::uint64_t b1 =
                (rec.memAddr + rec.memSize - 1) >> shift;
            for (std::uint64_t b = b0; b <= b1; ++b) {
                Cell &cell = cells[b];
                if (cell.lastStore != npos)
                    scratch.push_back(cell.lastStore);
                if (is_store) {
                    for (std::uint32_t ld : cell.loadsSince)
                        scratch.push_back(ld);
                    cell.lastStore = seq;
                    cell.loadsSince.clear();
                } else {
                    cell.loadsSince.push_back(seq);
                }
            }
        }
        std::sort(scratch.begin(), scratch.end());
        scratch.erase(std::unique(scratch.begin(), scratch.end()),
                      scratch.end());
        prep.conflictEdges.insert(prep.conflictEdges.end(),
                                  scratch.begin(), scratch.end());
        prep.conflictOffsets[seq + 1] = static_cast<std::uint32_t>(
            prep.conflictEdges.size());
    }

    prep.notifyOffsets.assign(n + 1, 0);
    for (std::uint32_t t : prep.conflictEdges)
        ++prep.notifyOffsets[t + 1];
    for (std::size_t i = 0; i < n; ++i)
        prep.notifyOffsets[i + 1] += prep.notifyOffsets[i];
    prep.notifyEdges.resize(prep.notifyOffsets[n]);
    {
        std::vector<std::uint32_t> cursor(
            prep.notifyOffsets.begin(), prep.notifyOffsets.end() - 1);
        for (std::uint32_t seq = 0;
             seq < static_cast<std::uint32_t>(n); ++seq) {
            for (std::uint32_t e = prep.conflictOffsets[seq];
                 e < prep.conflictOffsets[seq + 1]; ++e) {
                prep.notifyEdges[cursor[prep.conflictEdges[e]]++] =
                    seq;
            }
        }
    }
    return prep;
}

TraceReplayer::TraceReplayer(const StaticCdfg &cdfg,
                             const DeviceConfig &dev,
                             const DynTrace &trace,
                             const ReplaySpmConfig &spm,
                             const ReplayPrep *prep)
    : cdfg(cdfg), cfg(dev), trace(trace), spmCfg(spm), prep(prep)
{
    limitedIdxOf.fill(0xff);
    for (std::size_t t = 0; t < numFuTypes; ++t) {
        unsigned limit = cfg.fuLimits[t];
        if (limit > 0) {
            poolFreeAt[t].assign(limit, 0);
            limitedIdxOf[t] =
                static_cast<std::uint8_t>(numLimitedFus++);
        }
    }
    if (spmCfg.banks > 1)
        busyBank.assign(spmCfg.banks, 0);

    // Per-static-instruction facts, hoisted out of the hot loop.
    // The energy terms reproduce RuntimeEngine's arithmetic exactly
    // (same operand-bit double sum, same products) so the replayed
    // accumulators are bit-identical.
    const HardwareProfile &profile = cfg.profile;
    facts.resize(cdfg.numInstructions());
    for (std::size_t id = 0; id < cdfg.numInstructions(); ++id) {
        const StaticInstInfo &info =
            cdfg.infoById(static_cast<unsigned>(id));
        const ir::Instruction *inst = info.inst;
        StaticFacts &f = facts[id];
        double read_bits = 0.0;
        for (std::size_t o = 0; o < inst->numOperands(); ++o)
            read_bits += inst->operand(o)->type()->bitWidth();
        f.readEnergyPj =
            read_bits * profile.registers().readEnergyPjPerBit;
        f.isVoid = inst->type()->isVoid();
        f.writeEnergyPj = f.isVoid
            ? 0.0
            : static_cast<double>(info.resultBits) *
                  profile.registers().writeEnergyPjPerBit;
        f.fuEnergyPj = info.fu != FuType::None
            ? profile.fu(info.fu).dynamicEnergyPj
            : 0.0;
        f.parentBlock = cdfg.blockInfo(inst->parent()).id;
        f.fu = info.fu;
        if (info.fu != FuType::None)
            f.limitedIdx =
                limitedIdxOf[static_cast<std::size_t>(info.fu)];
        f.latency = info.latency;
        f.initiationInterval = info.initiationInterval;
        switch (inst->opcode()) {
          case ir::Opcode::Load:
            f.opKind = opLoad;
            break;
          case ir::Opcode::Store:
            f.opKind = opStore;
            break;
          case ir::Opcode::Br:
            f.opKind = opBr;
            break;
          case ir::Opcode::Ret:
            f.opKind = opRet;
            break;
          default:
            f.opKind = opCompute;
            break;
        }
        if (ir::isFloatingPointOp(inst->opcode()) ||
            info.fu == FuType::FpSpecial) {
            f.issueLane = laneFp;
        } else if (info.fu != FuType::None) {
            f.issueLane = laneInt;
        } else {
            f.issueLane = laneOther;
        }
    }
}

bool
TraceReplayer::fail(std::string why)
{
    if (!failed) {
        failed = true;
        failReason = std::move(why);
    }
    return false;
}

void
TraceReplayer::importBlock(std::uint32_t block_id,
                           std::uint32_t from_id)
{
    const StaticBlockInfo &binfo = cdfg.blockInfoById(block_id);
    if (binfo.numInsts > cfg.reservationQueueSize) {
        fail("block exceeds the reservation queue (the full "
             "simulation would fatal too)");
        return;
    }
    if (unissuedCount + binfo.numInsts > cfg.reservationQueueSize) {
        pendingImport = block_id;
        pendingImportFrom = from_id;
        return;
    }
    pendingImport = noBlock;

    if (static_cast<std::uint64_t>(imported) + binfo.numInsts >
        trace.insts.size()) {
        fail("trace ends mid-import: control flow diverged from "
             "the capture run");
        return;
    }

    const ReplayPrep &pp = *prep;
    for (unsigned i = 0; i < binfo.numInsts; ++i) {
        std::uint32_t seq = imported++;
        ++stats.dynamicInstructions;
        ++unissuedCount;

        RNode &n = nodes[seq];
        n.fence = curCycle + 1;
        // The engine only applies initiation-interval/hand-off
        // checks against a previous instance that is still in the
        // reservation window at import time.
        std::uint32_t prev = pp.prevSame[seq];
        n.prevLink =
            (prev != noNode && prev >= pruneFront) ? prev : noNode;

        // Bind producer edges with the engine's exact rule: an
        // uncommitted live instance is a RAW edge (and counts a
        // reader); anything else resolves to an already-available
        // value, i.e. no edge.
        std::uint32_t sb = pp.slotOffsets[seq];
        std::uint32_t se = pp.slotOffsets[seq + 1];
        std::uint16_t pend = 0;
        for (std::uint32_t s = sb; s < se; ++s) {
            std::uint32_t t = pp.slotTargets[s];
            if (t != noNode && !nodes[t].committed) {
                slots[s] = t;
                ++nodes[t].unissuedReaders;
                ++pend;
            } else {
                slots[s] = noNode;
            }
        }
        n.pendingOperands = pend;

        const StaticFacts &f = factOf(seq);
        if (f.opKind == opLoad || f.opKind == opStore) {
            std::uint16_t conf = 0;
            for (std::uint32_t e = pp.conflictOffsets[seq];
                 e < pp.conflictOffsets[seq + 1]; ++e) {
                if (!nodes[pp.conflictEdges[e]].committed)
                    ++conf;
            }
            n.pendingConflicts = conf;
            if (f.opKind == opStore)
                unresolvedStores.push_back(seq);
            else
                unresolvedLoads.push_back(seq);
            snapDirty = true;
            // Pointer operand already available: the address
            // resolves the first cycle the scan can visit this op.
            std::uint32_t ptr_abs = sb + (f.opKind == opLoad ? 0 : 1);
            if (slots[ptr_abs] == noNode)
                futureResolves.push_back({n.fence, seq});
        } else if (pend == 0) {
            maybeCandidate(seq);
        }
    }
}

void
TraceReplayer::captureOperands(std::uint32_t seq)
{
    for (std::uint32_t s = prep->slotOffsets[seq];
         s < prep->slotOffsets[seq + 1]; ++s) {
        std::uint32_t &p = slots[s];
        if (p != noNode) {
            std::uint32_t prod = p;
            p = noNode;
            if (--nodes[prod].unissuedReaders == 0) {
                // Draining the producer's output register may open
                // its successor instance's FU hand-off gate.
                std::uint32_t nxt = prep->nextSame[prod];
                if (nxt != noNode && nxt < imported &&
                    nodes[nxt].prevLink == prod) {
                    maybeCandidate(nxt);
                }
            }
        }
    }
}

void
TraceReplayer::maybeCandidate(std::uint32_t seq)
{
    const RNode &n = nodes[seq];
    if (n.issued || n.pendingOperands != 0)
        return;
    const StaticFacts &f = factOf(seq);
    std::uint64_t bit = 1ull << (seq & 63);
    if (f.opKind == opLoad || f.opKind == opStore) {
        if (!n.addrKnown || n.pendingConflicts != 0)
            return;
        if (f.opKind == opLoad)
            candLoadBits[seq >> 6] |= bit;
        else
            candStoreBits[seq >> 6] |= bit;
    } else if (f.opKind == opCompute && f.fu != FuType::None) {
        if (n.prevLink != noNode) {
            // The engine's FU hand-off rejects an instance whose
            // in-window predecessor has not issued or still holds
            // readers on its output register, unconditionally —
            // the same untimed checks fuAvailable applies. The
            // predecessor's issue (clear_bit) and its last reader
            // draining (captureOperands) re-enter this instance.
            const RNode &prev = nodes[n.prevLink];
            if (!prev.issued || prev.unissuedReaders > 0)
                return;
        }
        if (f.limitedIdx != 0xff)
            candFuBits[f.limitedIdx][seq >> 6] |= bit;
    }
    candBits[seq >> 6] |= bit;
}

void
TraceReplayer::applyResolve(std::uint32_t seq)
{
    // The engine resolves as soon as the pointer operand's value is
    // available and the fence has passed; the *address* comes from
    // the trace (the value the capture run computed — identical by
    // value determinism). The ordering snapshot for this cycle was
    // taken before resolutions apply, reproducing the engine's
    // built-before-the-scan summary staleness.
    RNode &n = nodes[seq];
    if (n.addrKnown)
        return;
    n.addrKnown = true;
    lastScanResolvedAddr = true;
    snapDirty = true;
    maybeCandidate(seq);
}

bool
TraceReplayer::fuAvailable(std::uint32_t seq, const StaticFacts &f,
                           std::uint64_t cyc)
{
    if (f.fu == FuType::None)
        return true;

    // Same check order as the engine; the first *timed* blocker
    // (initiation interval, pool release) also feeds earliestWake
    // so stall spans can be fast-forwarded.
    const RNode &n = nodes[seq];
    if (n.prevLink != noNode) {
        const RNode &prev = nodes[n.prevLink];
        if (!prev.issued) {
            return false;
        }
        std::uint64_t ii_ready =
            prev.issueCycle + f.initiationInterval;
        if (cyc < ii_ready) {
            earliestWake = std::min(earliestWake, ii_ready);
            return false;
        }
        if (prev.unissuedReaders > 0) {
            return false;
        }
    }

    std::size_t t = static_cast<std::size_t>(f.fu);
    unsigned limit = cfg.fuLimits[t];
    if (limit == 0)
        return true;
    std::uint64_t min_free = never;
    for (std::uint64_t free_at : poolFreeAt[t]) {
        if (free_at <= cyc)
            return true;
        min_free = std::min(min_free, free_at);
    }
    earliestWake = std::min(earliestWake, min_free);
    // Pool state only tightens for the rest of this scan, so every
    // later candidate of this type parks too — close the class.
    if (f.limitedIdx != 0xff)
        fuClosedMask |= 1u << f.limitedIdx;
    return false;
}

void
TraceReplayer::occupyFu(const StaticFacts &f, std::uint64_t cyc)
{
    if (f.fu == FuType::None)
        return;
    std::size_t t = static_cast<std::size_t>(f.fu);
    if (cfg.fuLimits[t] == 0)
        return;
    for (auto &free_at : poolFreeAt[t]) {
        if (free_at <= cyc) {
            free_at = cyc + f.initiationInterval;
            return;
        }
    }
}

void
TraceReplayer::commitNode(std::uint32_t seq, std::uint64_t cyc)
{
    RNode &n = nodes[seq];
    n.committed = true;
    ++stats.committedInstructions;
    n.commitCycle = cyc;
    const StaticFacts &f = factOf(seq);
    if (!f.isVoid)
        stats.registerWriteEnergyPj += f.writeEnergyPj;

    const ReplayPrep &pp = *prep;
    // Wake readers: every reader imported before this commit bound a
    // live RAW edge to us (we were uncommitted then, and commit
    // happens once), so the decrement matches the engine's
    // pendingOperands decrement for exactly those instances. Readers
    // not yet imported bind no edge (they see a committed value).
    for (std::uint32_t e = pp.readerOffsets[seq];
         e < pp.readerOffsets[seq + 1]; ++e) {
        std::uint64_t edge = pp.readerEdges[e];
        auto r = static_cast<std::uint32_t>(edge);
        if (r >= imported)
            break;
        auto abs_slot = static_cast<std::uint32_t>(edge >> 32);
        RNode &rn = nodes[r];
        --rn.pendingOperands;
        const StaticFacts &rf = factOf(r);
        if (rf.opKind == opLoad || rf.opKind == opStore) {
            std::uint32_t ptr_abs = pp.slotOffsets[r] +
                (rf.opKind == opLoad ? 0 : 1);
            if (abs_slot == ptr_abs && !rn.addrKnown) {
                // A mid-scan commit resolves later scan visits this
                // same cycle; commits landing outside the scan (or a
                // fence still ahead) resolve at the next scan the
                // engine would reach them in.
                std::uint64_t due = std::max(cyc, rn.fence);
                if (inScan && due <= curCycle)
                    applyResolve(r);
                else
                    futureResolves.push_back({due, r});
            }
        }
        maybeCandidate(r);
    }
    if (f.opKind == opLoad || f.opKind == opStore) {
        for (std::uint32_t e = pp.notifyOffsets[seq];
             e < pp.notifyOffsets[seq + 1]; ++e) {
            std::uint32_t r = pp.notifyEdges[e];
            if (r >= imported)
                break;
            RNode &rn = nodes[r];
            if (--rn.pendingConflicts == 0)
                maybeCandidate(r);
        }
    }
}

void
TraceReplayer::pruneWindow()
{
    const ReplayPrep &pp = *prep;
    while (pruneFront < imported) {
        RNode &front = nodes[pruneFront];
        if (!front.committed || front.unissuedReaders > 0)
            break;
        std::uint32_t next = pp.nextSame[pruneFront];
        if (next != noNode && next < imported &&
            !nodes[next].issued) {
            break;
        }
        ++pruneFront;
    }
}

void
TraceReplayer::deliverResponses(std::uint64_t cyc, std::uint64_t eff)
{
    while (!spmResponseQueue.empty() &&
           spmResponseQueue.front().readyCycle <= cyc) {
        std::uint32_t seq = spmResponseQueue.front().seq;
        spmResponseQueue.pop_front();
        if (factOf(seq).opKind == opLoad)
            --loadsInFlight;
        else
            --storesInFlight;
        commitNode(seq, eff);
    }
}

void
TraceReplayer::scheduleService(std::uint64_t cyc)
{
    // Mirrors Scratchpad::scheduleService tick arithmetic in the
    // cycle domain: at most one pass per SPM cycle; requests that
    // arrive after this cycle's pass wait for the next edge. A pass
    // scheduled from within the engine scan runs post-engine (event
    // priorities: service 0 < engine tick 10).
    if (servicePending)
        return;
    servicePending = true;
    serviceCycle = (havePass && lastPassCycle == cyc) ? cyc + 1 : cyc;
}

void
TraceReplayer::servicePass(std::uint64_t cyc, bool post_engine)
{
    servicePending = false;
    havePass = true;
    lastPassCycle = cyc;
    if (spmRequestQueue.empty())
        return;

    unsigned reads_left = spmCfg.readPorts;
    unsigned writes_left = spmCfg.writePorts;
    if (spmCfg.banks > 1)
        std::fill(busyBank.begin(), busyBank.end(), 0);

    std::uint64_t ready = cyc + spmCfg.latencyCycles;
    unsigned loads_remaining = queuedLoads;
    unsigned stores_remaining = queuedStores;
    for (auto it = spmRequestQueue.begin();
         it != spmRequestQueue.end();) {
        // Stop once neither class can be serviced any more; the
        // entries this skips would all be passed over anyway.
        if ((reads_left == 0 || loads_remaining == 0) &&
            (writes_left == 0 || stores_remaining == 0)) {
            break;
        }
        bool is_load = factOf(it->seq).opKind == opLoad;
        if (is_load)
            --loads_remaining;
        else
            --stores_remaining;
        unsigned bank = 0;
        if (spmCfg.banks > 1) {
            bank = static_cast<unsigned>(
                ((trace.insts[it->seq].memAddr - spmCfg.rangeStart) /
                 spmCfg.wordBytes) % spmCfg.banks);
        }
        unsigned &budget = is_load ? reads_left : writes_left;
        if (budget == 0 ||
            (spmCfg.banks > 1 && busyBank[bank] != 0)) {
            ++it;
            continue;
        }
        --budget;
        if (spmCfg.banks > 1)
            busyBank[bank] = 1;
        if (is_load) {
            ++spmReads;
            --queuedLoads;
        } else {
            ++spmWrites;
            --queuedStores;
        }
        spmResponseQueue.push_back({it->seq, ready});
        it = spmRequestQueue.erase(it);
    }

    // Zero-latency responses fire in the same tick (priority -10):
    // pre-engine passes commit with this cycle's count, post-engine
    // passes after the engine already advanced it.
    if (spmCfg.latencyCycles == 0)
        deliverResponses(cyc, post_engine ? cyc + 1 : cyc);

    if (!spmRequestQueue.empty()) {
        servicePending = true;
        serviceCycle = cyc + 1;
    }
}

void
TraceReplayer::handleCandidate(std::uint32_t seq, std::uint64_t cyc)
{
    RNode &n = nodes[seq];
    if (n.fence > cyc) {
        earliestWake = std::min(earliestWake, n.fence);
        return;
    }
    const StaticFacts &f = factOf(seq);
    auto clear_bit = [&] {
        std::uint64_t keep = ~(1ull << (seq & 63));
        candBits[seq >> 6] &= keep;
        candLoadBits[seq >> 6] &= keep;
        candStoreBits[seq >> 6] &= keep;
        if (f.limitedIdx != 0xff)
            candFuBits[f.limitedIdx][seq >> 6] &= keep;
        --unissuedCount;
        // Issuing may open the successor instance's hand-off gate.
        std::uint32_t nxt = prep->nextSame[seq];
        if (nxt != noNode && nxt < imported &&
            nodes[nxt].prevLink == seq) {
            maybeCandidate(nxt);
        }
    };

    if (f.opKind == opBr) {
        captureOperands(seq);
        std::uint32_t target = trace.insts[seq].branchTarget;
        if (target == DynTrace::noBranchTarget ||
            target >= cdfg.numBlocks()) {
            fail("trace has no branch outcome at seq " +
                 std::to_string(seq));
            return;
        }
        n.issued = true;
        n.issueCycle = cyc;
        commitNode(seq, cyc);
        std::uint32_t cur = f.parentBlock;
        if (cfg.blockSequentialImport && target != cur &&
            pendingImport == noBlock) {
            pendingImport = target;
            pendingImportFrom = cur;
        } else {
            importBlock(target, cur);
        }
        // The branch holds its reservation slot during its own
        // import, as in the engine: free it only afterwards.
        clear_bit();
        issuedAny = true;
        ++stats.otherOpsIssued;
        return;
    }
    if (f.opKind == opRet) {
        captureOperands(seq);
        n.issued = true;
        n.issueCycle = cyc;
        clear_bit();
        commitNode(seq, cyc);
        retSeen = true;
        issuedAny = true;
        ++stats.otherOpsIssued;
        return;
    }

    if (f.opKind == opLoad || f.opKind == opStore) {
        // Candidacy certifies operands, address, and resolved
        // conflicts; the snapshot gate reproduces the engine's
        // conservative any-earlier-unresolved check.
        std::uint32_t ms = prep->memSeq[seq];
        bool is_load = f.opKind == opLoad;
        if (snapUnknownStore < ms) {
            // Every later memory candidate has a larger memSeq
            // against the same frozen snapshot, so both classes
            // are done for this cycle.
            snapClosedLoads = true;
            snapClosedStores = true;
            return;
        }
        if (!is_load && snapUnknownLoad < ms) {
            snapClosedStores = true;
            return;
        }
        if (is_load &&
            (loadsIssuedNow >= cfg.readPortsPerCycle ||
             loadsInFlight >= cfg.readQueueSize)) {
            readyLoadBlocked = true;
            return;
        }
        if (!is_load &&
            (storesIssuedNow >= cfg.writePortsPerCycle ||
             storesInFlight >= cfg.writeQueueSize)) {
            readyStoreBlocked = true;
            return;
        }
        captureOperands(seq);
        n.issued = true;
        n.issueCycle = cyc;
        clear_bit();
        spmRequestQueue.push_back({seq});
        scheduleService(cyc);
        if (is_load)
            ++queuedLoads;
        else
            ++queuedStores;
        if (is_load) {
            ++loadsInFlight;
            ++loadsIssuedNow;
            ++stats.loadsIssued;
        } else {
            ++storesInFlight;
            ++storesIssuedNow;
            ++stats.storesIssued;
        }
        issuedAny = true;
        return;
    }

    // Compute ops (including phi and zero-latency wiring).
    if (!fuAvailable(seq, f, cyc)) {
        return;
    }
    captureOperands(seq);
    occupyFu(f, cyc);
    n.issued = true;
    n.issueCycle = cyc;
    clear_bit();
    if (f.fu != FuType::None)
        stats.fuEnergyPj += f.fuEnergyPj;
    stats.registerReadEnergyPj += f.readEnergyPj;
    unsigned latency = f.latency;
    if (latency == 0) {
        commitNode(seq, cyc);
    } else {
        n.commitCycle = cyc + latency;
        computeQueue.push_back(seq);
        nextCommitDue = std::min(nextCommitDue, n.commitCycle);
        ++fuInflight[static_cast<std::size_t>(f.fu)];
    }
    issuedAny = true;
    if (f.issueLane == laneFp) {
        ++fpIssuedNow;
        ++stats.fpOpsIssued;
    } else if (f.issueLane == laneInt) {
        ++stats.intOpsIssued;
    } else {
        ++stats.otherOpsIssued;
    }
}

bool
TraceReplayer::engineCycle(std::uint64_t cyc)
{
    curCycle = cyc;
    earliestWake = never;
    lastScanResolvedAddr = false;

    // 1. Commit compute operations whose latency has elapsed (same
    //    swap-remove order as the engine: it shapes computeQueue for
    //    the rest of the run, and commit order fixes the FP
    //    accumulation order of the energy counters).
    //    The walk only runs on cycles with a due commit (pushes keep
    //    nextCommitDue a lower bound; each walk recomputes it
    //    exactly), and a walk without removals leaves the order
    //    unchanged, so the removal order the engine would produce is
    //    preserved.
    if (cyc >= nextCommitDue) {
        nextCommitDue = never;
        for (std::size_t i = 0; i < computeQueue.size();) {
            std::uint32_t idx = computeQueue[i];
            if (nodes[idx].commitCycle <= cyc) {
                --fuInflight[static_cast<std::size_t>(
                    factOf(idx).fu)];
                commitNode(idx, cyc);
                computeQueue[i] = computeQueue.back();
                computeQueue.pop_back();
            } else {
                nextCommitDue = std::min(nextCommitDue,
                                         nodes[idx].commitCycle);
                ++i;
            }
        }
    }

    // 2. Retry a deferred block import.
    if (pendingImport != noBlock) {
        bool drained = unissuedCount == 0 && computeQueue.empty() &&
            loadsInFlight == 0 && storesInFlight == 0;
        if (!cfg.blockSequentialImport || drained ||
            pendingImportFrom == pendingImport) {
            importBlock(pendingImport, pendingImportFrom);
            if (failed)
                return false;
        }
    }

    // 3. Ordering snapshot (the engine builds its memory summary
    //    before the scan; resolutions applied below are therefore
    //    invisible to this cycle's ordering gates). The deques are
    //    in memory-program order, so the first still-unresolved
    //    entry is the minimum the engine's summary would carry.
    if (snapDirty) {
        snapDirty = false;
        while (!unresolvedStores.empty() &&
               nodes[unresolvedStores.front()].addrKnown) {
            unresolvedStores.pop_front();
        }
        snapUnknownStore = unresolvedStores.empty()
            ? noMemSeq
            : prep->memSeq[unresolvedStores.front()];
        while (!unresolvedLoads.empty() &&
               nodes[unresolvedLoads.front()].addrKnown) {
            unresolvedLoads.pop_front();
        }
        snapUnknownLoad = unresolvedLoads.empty()
            ? noMemSeq
            : prep->memSeq[unresolvedLoads.front()];
    }

    // 4. Apply address resolutions that came due.
    for (std::size_t i = 0; i < futureResolves.size();) {
        if (futureResolves[i].first <= cyc) {
            std::uint32_t seq = futureResolves[i].second;
            futureResolves[i] = futureResolves.back();
            futureResolves.pop_back();
            applyResolve(seq);
        } else {
            ++i;
        }
    }

    // 5. Issue sweep over the candidate bitmap, ascending seq — the
    //    reservation queue keeps import order, so this is the
    //    engine's exact visit order over the instructions that can
    //    matter. Handlers may set bits (mid-scan commits and block
    //    imports unblock strictly later seqs); re-reading the
    //    current word after each candidate picks those up within
    //    the same cycle, as the engine's growing scan does.
    issuedAny = false;
    readyLoadBlocked = false;
    readyStoreBlocked = false;
    snapClosedLoads = false;
    snapClosedStores = false;
    fuClosedMask = 0;
    loadsIssuedNow = 0;
    storesIssuedNow = 0;
    fpIssuedNow = 0;
    inScan = true;
    while (firstUnissued < imported && nodes[firstUnissued].issued)
        ++firstUnissued;
    std::uint32_t wi = firstUnissued >> 6;
    std::uint64_t mask = ~0ull << (firstUnissued & 63);
    while (!failed && imported != 0) {
        std::uint32_t hi_word = (imported - 1) >> 6;
        if (wi > hi_word)
            break;
        std::uint64_t w = candBits[wi] & mask;
        // A set stall flag witnesses this cycle's budget for that
        // class closing (budgets only tighten within a scan), so
        // every remaining candidate of the class parks without
        // side effects — drop them wholesale.
        if (readyLoadBlocked || snapClosedLoads)
            w &= ~candLoadBits[wi];
        if (readyStoreBlocked || snapClosedStores)
            w &= ~candStoreBits[wi];
        for (std::uint32_t cm = fuClosedMask; cm != 0;
             cm &= cm - 1) {
            w &= ~candFuBits[std::countr_zero(cm)][wi];
        }
        if (w == 0) {
            ++wi;
            mask = ~0ull;
            continue;
        }
        auto b = static_cast<unsigned>(std::countr_zero(w));
        std::uint32_t seq = (wi << 6) | b;
        mask = b == 63 ? 0 : ~0ull << (b + 1);
        handleCandidate(seq, cyc);
    }
    inScan = false;
    if (failed)
        return false;

    memStallLoadBlocked = readyLoadBlocked;
    memStallStoreBlocked = readyStoreBlocked;

    // recordCycleStats, minus the (absent) observers; the in-flight
    // counters stand in for walking computeQueue, and nextCommitDue
    // is exact here (last walk recomputed it, pushes only lower it).
    minComputeCommit = nextCommitDue;
    for (std::size_t t = 0; t < hw::numFuTypes; ++t)
        stats.fuBusyCycleSum[t] += fuInflight[t];
    if (issuedAny) {
        ++stats.newExecCycles;
        if (loadsIssuedNow > 0)
            ++stats.cyclesWithLoadIssue;
        if (storesIssuedNow > 0)
            ++stats.cyclesWithStoreIssue;
        if (fpIssuedNow > 0)
            ++stats.cyclesWithFpIssue;
        if (loadsIssuedNow > 0 && storesIssuedNow > 0)
            ++stats.cyclesWithLoadAndStoreIssue;
        if (loadsIssuedNow > 0 && fpIssuedNow > 0)
            ++stats.cyclesWithLoadAndFpIssue;
    } else {
        accrueStall(1);
    }
    lastIssuedAny = issuedAny;
    pruneWindow();

    // 6. Completion check.
    if (retSeen && unissuedCount == 0 && computeQueue.empty() &&
        loadsInFlight == 0 && storesInFlight == 0 &&
        pendingImport == noBlock) {
        stats.totalCycles = cyc + 1;
        if (imported != trace.insts.size()) {
            fail("replay finished before consuming the whole "
                 "trace: control flow diverged");
            return false;
        }
        return true;
    }
    return false;
}

void
TraceReplayer::accrueStall(std::uint64_t count)
{
    stats.stallCycles += count;
    bool load_busy = loadsInFlight > 0 || memStallLoadBlocked;
    bool store_busy = storesInFlight > 0 || memStallStoreBlocked;
    bool compute_busy = !computeQueue.empty();
    if (load_busy && store_busy && compute_busy)
        stats.stallLoadStoreCompute += count;
    else if (load_busy && compute_busy)
        stats.stallLoadCompute += count;
    else if (store_busy && compute_busy)
        stats.stallStoreCompute += count;
    else if (load_busy && store_busy)
        stats.stallLoadStore += count;
    else if (compute_busy)
        stats.stallComputeOnly += count;
    else if (load_busy)
        stats.stallLoadOnly += count;
    else if (store_busy)
        stats.stallStoreOnly += count;
    else
        stats.stallEmpty += count;
}

ReplayResult
TraceReplayer::run()
{
    ReplayResult result;
    if (trace.empty()) {
        result.error = "empty trace";
        return result;
    }
    if (prep == nullptr) {
        ownPrep = std::make_unique<const ReplayPrep>(
            buildReplayPrep(cdfg, trace));
        prep = ownPrep.get();
    }
    if (!prep->error.empty()) {
        result.error = prep->error;
        return result;
    }
    nodes.assign(trace.insts.size(), RNode{});
    slots.assign(prep->slotTargets.size(), noNode);
    candBits.assign((trace.insts.size() + 63) / 64, 0);
    candLoadBits.assign(candBits.size(), 0);
    candStoreBits.assign(candBits.size(), 0);
    candFuBits.assign(numLimitedFus,
                      std::vector<std::uint64_t>(candBits.size(), 0));

    // start(): import the entry block, then lift its fence so it
    // may issue in cycle 0 (the engine does exactly this) — which
    // also moves the entry block's already-available address
    // resolutions to cycle 0.
    curCycle = 0;
    importBlock(cdfg.blockInfo(cdfg.function().entry()).id, noBlock);
    for (std::uint32_t seq = 0; seq < imported; ++seq)
        nodes[seq].fence = 0;
    futureResolves.clear();
    for (std::uint32_t seq = 0; seq < imported; ++seq) {
        const StaticFacts &f = factOf(seq);
        if (f.opKind != opLoad && f.opKind != opStore)
            continue;
        std::uint32_t ptr_abs = prep->slotOffsets[seq] +
            (f.opKind == opLoad ? 0 : 1);
        if (slots[ptr_abs] == noNode)
            futureResolves.push_back({0, seq});
    }

    std::uint64_t cyc = 0;
    while (!failed) {
        deliverResponses(cyc, cyc);
        if (servicePending && serviceCycle <= cyc)
            servicePass(cyc, false);
        bool done = engineCycle(cyc);
        if (failed)
            break;
        if (done) {
            result.ok = true;
            result.stats = stats;
            result.spmReads = spmReads;
            result.spmWrites = spmWrites;
            return result;
        }
        if (servicePending && serviceCycle <= cyc)
            servicePass(cyc, true);

        // Fast-forward provably idle spans: when nothing issued,
        // the next state change is a timed event — a compute
        // commit, an SPM response or service pass, a scheduled
        // address resolution, or a candidate's fence/II/pool
        // release (earliestWake). Parked non-candidates need one of
        // those commits or resolutions first, so the bound is
        // sound. The skipped cycles are stalls with an unchanged
        // in-flight profile, so their statistics are accrued in
        // closed form. One non-timed hazard: a scan that issues
        // nothing can still resolve a memory address, and the
        // ordering snapshot only reflects that NEXT cycle — so a
        // newly resolved address means cycle+1 may issue even with
        // no timed event pending.
        std::uint64_t next = cyc + 1;
        if (!lastIssuedAny && !lastScanResolvedAddr) {
            std::uint64_t skip_to = earliestWake;
            skip_to = std::min(skip_to, minComputeCommit);
            if (!spmResponseQueue.empty()) {
                skip_to = std::min(
                    skip_to, spmResponseQueue.front().readyCycle);
            }
            if (servicePending)
                skip_to = std::min(skip_to, serviceCycle);
            for (const ResolveEvent &ev : futureResolves)
                skip_to = std::min(skip_to, ev.first);
            if (skip_to == never) {
                fail("replay deadlocked: no runnable work and no "
                     "pending event");
                break;
            }
            if (skip_to > next) {
                std::uint64_t k = skip_to - next;
                accrueStall(k);
                for (std::size_t t = 0; t < hw::numFuTypes; ++t)
                    stats.fuBusyCycleSum[t] += k * fuInflight[t];
                next = skip_to;
            }
        }
        cyc = next;
    }

    result.error = failReason.empty() ? "replay failed" : failReason;
    return result;
}

TraceCache::EntryPtr
TraceCache::getOrBuild(const std::string &key,
                       const std::function<Entry()> &build)
{
    std::promise<EntryPtr> promise;
    std::shared_future<EntryPtr> future;
    bool builder = false;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = entries.find(key);
        if (it == entries.end()) {
            future = promise.get_future().share();
            entries.emplace(key, future);
            builder = true;
        } else {
            future = it->second;
        }
    }
    if (builder) {
        try {
            promise.set_value(
                std::make_shared<const Entry>(build()));
        } catch (...) {
            promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

} // namespace salam::drive
