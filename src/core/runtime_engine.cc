#include "runtime_engine.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <span>

#include "mem/packet.hh"
#include "sim/logging.hh"

namespace salam::core
{

using namespace salam::ir;
using namespace salam::hw;

const std::vector<std::string> &
RuntimeEngine::stallLaneNames()
{
    static const std::vector<std::string> names = {
        "load_only",    "store_only",      "compute_only",
        "load_compute", "store_compute",   "load_store",
        "load_store_compute", "empty",
    };
    return names;
}

const std::vector<std::string> &
RuntimeEngine::issueLaneNames()
{
    static const std::vector<std::string> names = {
        "load", "store", "fp", "int", "other",
    };
    return names;
}

RuntimeEngine::RuntimeEngine(const StaticCdfg &cdfg,
                             const DeviceConfig &config,
                             EngineClient &client)
    : staticCdfg(cdfg), cfg(config), client(client)
{
    limitedFuOf.fill(noLimitedFu);
    for (std::size_t t = 0; t < numFuTypes; ++t) {
        unsigned limit = cfg.fuLimits[t];
        if (limit > 0) {
            poolFreeAt[t].assign(limit, 0);
            limitedFuOf[t] =
                static_cast<std::uint8_t>(numLimitedFus++);
        }
    }
    latestInstance.assign(staticCdfg.numInstructions(), noSeq);
    committedValues.assign(staticCdfg.numValueIds(), RuntimeValue{});
    committedKnown.assign(staticCdfg.numValueIds(), 0);

    // Issue-time costs and classes per static instruction. The
    // energy terms are the products the issue path used to form per
    // dynamic instance (same operand-bit double sum, same factors),
    // so the accumulated energies are bit-identical.
    const HardwareProfile &profile = cfg.profile;
    facts.resize(staticCdfg.numInstructions());
    unsigned max_slots = 1;
    for (unsigned id = 0; id < staticCdfg.numInstructions(); ++id) {
        const StaticInstInfo &info = staticCdfg.infoById(id);
        const Instruction *inst = info.inst;
        StaticFacts &f = facts[id];
        f.inst = inst;
        f.resultValueId = info.resultValueId;
        f.latency = info.latency;
        f.initiationInterval = info.initiationInterval;
        f.fu = info.fu;
        f.isPhi = info.isPhi;
        f.isVoid = inst->type()->isVoid();
        f.block = staticCdfg.blockInfo(inst->parent()).id;
        unsigned slots = info.isPhi
            ? 1u
            : static_cast<unsigned>(inst->numOperands());
        if (slots > 0xff)
            fatal("engine: %%%s has %u operands (at most 255)",
                  inst->name().c_str(), slots);
        f.numSlots = static_cast<std::uint8_t>(slots);
        max_slots = std::max(max_slots, slots);
        double read_bits = 0.0;
        for (std::size_t o = 0; o < inst->numOperands(); ++o)
            read_bits += inst->operand(o)->type()->bitWidth();
        f.readEnergyPj =
            read_bits * profile.registers().readEnergyPjPerBit;
        if (!f.isVoid) {
            f.writeEnergyPj = static_cast<double>(info.resultBits) *
                profile.registers().writeEnergyPjPerBit;
        }
        if (info.fu != FuType::None) {
            f.fuEnergyPj = profile.fu(info.fu).dynamicEnergyPj;
            f.limitedFu = limitedFuOf[static_cast<std::size_t>(info.fu)];
        }
        switch (inst->opcode()) {
          case Opcode::Br: {
            f.kind = opBr;
            const auto *br = static_cast<const BranchInst *>(inst);
            f.ifTrue = staticCdfg.blockInfo(br->ifTrue()).id;
            if (br->isConditional())
                f.ifFalse = staticCdfg.blockInfo(br->ifFalse()).id;
            break;
          }
          case Opcode::Ret:
            f.kind = opRet;
            break;
          case Opcode::Load:
            f.kind = opLoad;
            f.memSize = static_cast<unsigned>(inst->type()->storeSize());
            break;
          case Opcode::Store:
            f.kind = opStore;
            f.memSize = static_cast<unsigned>(
                static_cast<const StoreInst *>(inst)
                    ->value()->type()->storeSize());
            break;
          default:
            f.kind = opCompute;
            break;
        }
        f.handOffGated = f.kind == opCompute && info.fu != FuType::None;
        if (isFloatingPointOp(inst->opcode()) ||
            info.fu == FuType::FpSpecial) {
            f.lane = laneFp;
        } else if (info.fu != FuType::None) {
            f.lane = laneInt;
        } else {
            f.lane = laneOther;
        }
    }
    while ((1u << slotShift) < max_slots)
        ++slotShift;

    // The window ring starts small and grows on demand
    // (reserveWindow), so a point touches only the ring it needs.
    std::uint64_t slots = 256;
    windowMask = slots - 1;
    window.resize(slots);
    operands.resize(slots << slotShift);
    memStates.resize(slots);
    candBits.assign(slots / 64, 0);
    candWords.assign((slots / 64 + 63) / 64, 0);
    candLoadBits.assign(slots / 64, 0);
    candStoreBits.assign(slots / 64, 0);
    candFuBits.assign(numLimitedFus,
                      std::vector<std::uint64_t>(slots / 64, 0));
}

void
RuntimeEngine::start(const std::vector<RuntimeValue> &args)
{
    const Function &fn = staticCdfg.function();
    if (args.size() != fn.numArguments())
        fatal("engine: @%s expects %zu args, got %zu",
              fn.name().c_str(), fn.numArguments(), args.size());
    SALAM_ASSERT(!active);

    for (std::size_t i = 0; i < args.size(); ++i) {
        committedValues[i] = args[i];
        committedKnown[i] = 1;
    }
    if (source == nullptr) {
        operandValues.resize(window.size() << slotShift);
        results.resize(window.size());
    }

    active = true;
    completed = false;
    retSeen = false;
    cycleCount = 0;
    importBlock(staticCdfg.blockInfo(fn.entry()).id, noBlock);
    // The entry block may issue in cycle 0, and so may its memory
    // ops with an already-known pointer resolve.
    for (std::uint64_t seq = windowFront; seq < nextSeq; ++seq)
        at(seq).minIssueCycle = 0;
    for (auto &due : dueResolves)
        due.first = 0;
    client.engineRequestTick();
}

void
RuntimeEngine::setObserver(EngineObserver obs)
{
    observer = std::move(obs);
    if ((observer.profiler || observer.sink) && profStates.empty()) {
        // Instances imported before the attach start from defaults.
        profStates.assign(window.size(), ProfState{});
    }
    bool prune = observer.profiler == nullptr;
    if (pruneVisits && !prune) {
        // A profiler sees every ready instance's wait cause: offer
        // the ones hand-off gating kept out of the candidate set.
        pruneVisits = false;
        for (std::uint64_t seq = windowFront; seq < nextSeq; ++seq)
            maybeCandidate(seq);
    }
    pruneVisits = prune;
}

std::uint64_t
RuntimeEngine::createDynInst(const StaticInstInfo &info)
{
    reserveWindow(nextSeq);
    std::uint64_t seq = nextSeq++;
    const StaticFacts &f = facts[info.id];
    DynInst &di = at(seq);
    di = DynInst{};
    di.staticId = info.id;
    di.minIssueCycle = cycleCount + 1;
    Operand *ops = operandsOf(seq);
    for (unsigned s = 0; s < f.numSlots; ++s)
        ops[s] = Operand{};
    if (!profStates.empty()) {
        ProfState &prof = profOf(seq);
        prof = ProfState{};
        prof.ctrlParentSeq = importCtrlSeq;
        prof.ctrlLinkCause = importCtrlCause;
    }

    // WAW/WAR chain against the previous dynamic instance.
    std::uint64_t &latest = latestInstance[info.id];
    if (latest != noSeq) {
        di.prevInstance = latest;
        at(latest).nextInstance = seq;
    }
    latest = seq;

    ++engineStats.dynamicInstructions;
    if (capture != nullptr)
        capture->insts.emplace_back();
    return seq;
}

void
RuntimeEngine::growWindow(std::uint64_t needed)
{
    std::uint64_t slots = window.size();
    while (slots < needed)
        slots *= 2;
    std::uint64_t mask = slots - 1;
    // Each ring keeps its in-window entries at their new slots.
    auto regrid = [&](auto &ring, unsigned shift) {
        if (ring.empty())
            return; // a ring this engine does not keep
        std::remove_reference_t<decltype(ring)> out(slots << shift);
        for (std::uint64_t s = windowFront; s < nextSeq; ++s) {
            for (std::uint64_t k = 0; k < (1ull << shift); ++k) {
                out[((s & mask) << shift) | k] =
                    ring[((s & windowMask) << shift) | k];
            }
        }
        ring = std::move(out);
    };
    regrid(window, 0);
    regrid(operands, slotShift);
    regrid(memStates, 0);
    regrid(operandValues, slotShift);
    regrid(results, 0);
    regrid(profStates, 0);
    auto regrid_bits = [&](std::vector<std::uint64_t> &bits) {
        std::vector<std::uint64_t> out(slots / 64, 0);
        for (std::uint64_t s = windowFront; s < nextSeq; ++s) {
            if (bits[(s >> 6) & (windowMask >> 6)] >> (s & 63) & 1)
                out[(s >> 6) & (mask >> 6)] |= 1ull << (s & 63);
        }
        bits = std::move(out);
    };
    regrid_bits(candBits);
    candWords.assign((slots / 64 + 63) / 64, 0);
    for (std::size_t w = 0; w < candBits.size(); ++w) {
        if (candBits[w] != 0)
            candWords[w >> 6] |= 1ull << (w & 63);
    }
    regrid_bits(candLoadBits);
    regrid_bits(candStoreBits);
    for (auto &bits : candFuBits)
        regrid_bits(bits);
    windowMask = mask;
}

void
RuntimeEngine::importBlock(unsigned block, unsigned from)
{
    const StaticBlockInfo &binfo = staticCdfg.blockInfoById(block);
    if (binfo.numInsts > cfg.reservationQueueSize)
        fatal("engine: block '%s' (%zu instructions) exceeds the "
              "reservation queue (%u); raise "
              "DeviceConfig::reservationQueueSize",
              binfo.block->name().c_str(), binfo.block->size(),
              cfg.reservationQueueSize);
    // A branch importing its successor is still unissued here: it
    // holds its slot until the import is done.
    if (unissuedCount + binfo.numInsts > cfg.reservationQueueSize) {
        pendingImport = block;
        pendingImportFrom = from;
        pendingImportCtrlSeq = importCtrlSeq;
        return;
    }
    pendingImport = noBlock;
    SALAM_TRACE_AT(RuntimeEngine, obsNow(), observer.name,
                   "import block '%s' (%zu instructions)",
                   binfo.block->name().c_str(), binfo.block->size());
    if (observer.sink) {
        observer.sink->recordInstant(obsNow(), observer.name,
                                     "engine",
                                     "import " + binfo.block->name());
    }

    const bool values = source == nullptr;
    for (unsigned i = 0; i < binfo.numInsts; ++i) {
        const StaticInstInfo &sinfo =
            staticCdfg.infoById(binfo.firstInstId + i);
        std::uint64_t seq = createDynInst(sinfo);
        DynInst &di = at(seq);
        Operand *ops = operandsOf(seq);
        RuntimeValue *vals = values ? valuesOf(seq) : nullptr;

        // Bind operands from the elaboration-time plans. A Producer
        // plan checks the live-instance table first (RAW edge or
        // in-window result), then falls back to the committed-value
        // slot; Committed plans go straight there. Without values
        // (a trace source) only the RAW edges matter.
        auto bind_plan = [&](unsigned slot, const OperandPlan &plan) {
            switch (plan.kind) {
              case OperandPlan::Kind::Constant:
                if (values)
                    vals[slot] = plan.constant;
                return;
              case OperandPlan::Kind::Control:
                return; // control references carry no data
              case OperandPlan::Kind::Producer: {
                std::uint64_t latest = latestInstance[plan.producerId];
                if (latest == noSeq)
                    break;
                DynInst &producer = at(latest);
                if (!producer.committed) {
                    ops[slot].producer = latest;
                    ops[slot].nextReader = producer.firstReader;
                    producer.firstReader = (seq << slotShift) | slot;
                    ++producer.unissuedReaders;
                    ++di.pendingOperands;
                } else if (values) {
                    vals[slot] = resultOf(latest);
                }
                return;
              }
              case OperandPlan::Kind::Committed:
                break;
            }
            if (!committedKnown[plan.valueId]) {
                panic("engine: operand %%%s of %%%s has no value",
                      sinfo.isPhi
                          ? "phi-incoming"
                          : sinfo.inst->operand(slot)->name().c_str(),
                      sinfo.inst->name().c_str());
            }
            if (values)
                vals[slot] = committedValues[plan.valueId];
        };

        if (sinfo.isPhi) {
            const OperandPlan *plan = nullptr;
            if (from != noBlock) {
                for (const auto &[pred_id, p] : sinfo.phiIncoming) {
                    if (pred_id == from) {
                        plan = &p;
                        break;
                    }
                }
            }
            if (plan == nullptr)
                panic("phi %%%s has no incoming for edge",
                      sinfo.inst->name().c_str());
            // Keep exactly one live operand slot for the edge taken.
            bind_plan(0, *plan);
        } else {
            for (unsigned o = 0; o < sinfo.operands.size(); ++o)
                bind_plan(o, sinfo.operands[o]);
        }

        ++unissuedCount;
        const StaticFacts &f = facts[sinfo.id];
        if (f.isMemory()) {
            memOf(seq) = MemState{.memSeq = nextMemSeq++};
            (f.kind == opLoad ? unresolvedLoads : unresolvedStores)
                .push_back(seq);
            snapDirty = true;
            // A pointer known at import resolves at the first scan
            // past the import fence.
            if (ops[f.ptrSlot()].producer == noSeq)
                scheduleResolve(seq, di.minIssueCycle);
        }
        if (di.pendingOperands == 0)
            maybeCandidate(seq);
    }
}

void
RuntimeEngine::maybeCandidate(std::uint64_t seq)
{
    const DynInst &di = at(seq);
    if (di.issued || di.pendingOperands != 0)
        return;
    const StaticFacts &f = facts[di.staticId];
    std::size_t word = (seq >> 6) & (windowMask >> 6);
    std::uint64_t bit = 1ull << (seq & 63);
    if (f.kind == opLoad) {
        candLoadBits[word] |= bit;
    } else if (f.kind == opStore) {
        candStoreBits[word] |= bit;
    } else if (f.handOffGated) {
        // fuAvailable rejects an instance whose previous instance
        // has not issued or still has unissued readers, whatever
        // the cycle; both conditions only clear (markIssued and
        // captureOperands re-offer the successor then).
        if (pruneVisits && di.prevInstance != noSeq) {
            const DynInst &prev = at(di.prevInstance);
            if (!prev.issued || prev.unissuedReaders > 0)
                return;
        }
        if (f.limitedFu != noLimitedFu)
            candFuBits[f.limitedFu][word] |= bit;
    }
    candBits[word] |= bit;
    candWords[word >> 6] |= 1ull << (word & 63);
}

void
RuntimeEngine::markIssued(std::uint64_t seq)
{
    const StaticFacts &f = factsOf(seq);
    std::size_t word = (seq >> 6) & (windowMask >> 6);
    std::uint64_t keep = ~(1ull << (seq & 63));
    candBits[word] &= keep;
    if (candBits[word] == 0)
        candWords[word >> 6] &= ~(1ull << (word & 63));
    if (f.kind == opLoad)
        candLoadBits[word] &= keep;
    else if (f.kind == opStore)
        candStoreBits[word] &= keep;
    else if (f.limitedFu != noLimitedFu)
        candFuBits[f.limitedFu][word] &= keep;
    --unissuedCount;
    offerHandOff(f, at(seq).nextInstance);
}

void
RuntimeEngine::offerHandOff(const StaticFacts &f, std::uint64_t next)
{
    if (pruneVisits && f.handOffGated && next != noSeq)
        maybeCandidate(next);
}

void
RuntimeEngine::captureOperands(std::uint64_t seq)
{
    const unsigned n = factsOf(seq).numSlots;
    Operand *ops = operandsOf(seq);
    for (unsigned i = 0; i < n; ++i) {
        std::uint64_t p = ops[i].producer;
        if (p == noSeq)
            continue;
        DynInst &producer = at(p);
        SALAM_ASSERT(producer.committed);
        if (source == nullptr)
            valuesOf(seq)[i] = resultOf(p);
        SALAM_ASSERT(producer.unissuedReaders > 0);
        ops[i].producer = noSeq;
        // The last reader draining the producer's result may open
        // its successor instance's FU hand-off.
        if (--producer.unissuedReaders == 0)
            offerHandOff(facts[producer.staticId], producer.nextInstance);
        // Remember the latest-committing producer: it is the
        // critical data predecessor in the recorded CDFG.
        if (observer.profiler != nullptr) {
            ProfState &prof = profOf(seq);
            if (prof.prodParentSeq == obs::noProfSeq ||
                producer.commitCycle > prof.prodReadyCycle ||
                (producer.commitCycle == prof.prodReadyCycle &&
                 p > prof.prodParentSeq)) {
                prof.prodReadyCycle = producer.commitCycle;
                prof.prodParentSeq = p;
            }
        }
    }
}

bool
RuntimeEngine::fuAvailable(std::uint64_t seq)
{
    const DynInst &di = at(seq);
    const StaticFacts &f = facts[di.staticId];
    if (f.fu == FuType::None)
        return true;

    // WAW/WAR against the previous instance of this instruction:
    // the shared (or dedicated) unit enforces the initiation
    // interval, and the destination register cannot be rewritten
    // while readers of the previous value are pending.
    if (di.prevInstance != noSeq) {
        const DynInst &prev = at(di.prevInstance);
        if (!prev.issued)
            return false;
        if (cycleCount < prev.issueCycle + f.initiationInterval)
            return false;
        if (prev.unissuedReaders > 0)
            return false;
    }

    std::size_t t = static_cast<std::size_t>(f.fu);
    unsigned limit = cfg.fuLimits[t];
    if (limit == 0)
        return true; // dedicated unit per static instruction
    for (std::uint64_t free_at : poolFreeAt[t]) {
        if (free_at <= cycleCount)
            return true;
    }
    // Units only get busier within a scan: the pool stays exhausted
    // for every later instance of this type this cycle.
    scan.fuClosed |= 1u << f.limitedFu;
    return false;
}

void
RuntimeEngine::occupyFu(const StaticFacts &f)
{
    if (f.fu == FuType::None)
        return;
    std::size_t t = static_cast<std::size_t>(f.fu);
    unsigned limit = cfg.fuLimits[t];
    if (limit == 0)
        return; // dedicated: II enforced via prevInstance
    for (auto &free_at : poolFreeAt[t]) {
        if (free_at <= cycleCount) {
            free_at = cycleCount + f.initiationInterval;
            return;
        }
    }
    panic("occupyFu called without an available unit");
}

void
RuntimeEngine::scheduleResolve(std::uint64_t seq, std::uint64_t due)
{
    if (inScan && due <= cycleCount)
        resolveAddress(seq);
    else
        dueResolves.push_back({due, seq});
}

void
RuntimeEngine::resolveAddress(std::uint64_t seq)
{
    DynInst &di = at(seq);
    if (di.addrKnown)
        return;
    const StaticFacts &f = facts[di.staticId];
    MemState &mem = memOf(seq);
    if (source != nullptr) {
        mem.addr = source->insts[seq].word;
    } else {
        unsigned ptr = f.ptrSlot();
        std::uint64_t producer = operandsOf(seq)[ptr].producer;
        SALAM_ASSERT(producer == noSeq || at(producer).committed);
        mem.addr = producer == noSeq ? valuesOf(seq)[ptr].bits
                                     : resultOf(producer).bits;
    }
    mem.size = f.memSize;
    di.addrKnown = true;
    snapDirty = true;
    std::vector<MemRef> &known =
        f.kind == opLoad ? knownLoads : knownStores;
    mem.knownIndex = static_cast<std::uint32_t>(known.size());
    known.push_back({mem.memSeq, mem.addr, mem.size, seq});
    if (capture != nullptr)
        capture->insts[seq].word = mem.addr;
}

void
RuntimeEngine::forgetAddress(std::uint64_t seq)
{
    std::vector<MemRef> &known =
        factsOf(seq).kind == opLoad ? knownLoads : knownStores;
    std::uint32_t index = memOf(seq).knownIndex;
    SALAM_ASSERT(index < known.size() && known[index].seq == seq);
    known[index] = known.back();
    memOf(known[index].seq).knownIndex = index;
    known.pop_back();
}

void
RuntimeEngine::refreshOrderingSnapshot()
{
    auto oldest = [this](std::deque<std::uint64_t> &fifo) {
        while (!fifo.empty() && (fifo.front() < windowFront ||
                                 at(fifo.front()).addrKnown)) {
            fifo.pop_front();
        }
        return fifo.empty() ? never : memOf(fifo.front()).memSeq;
    };
    snapUnknownStore = oldest(unresolvedStores);
    snapUnknownLoad = oldest(unresolvedLoads);
}

bool
RuntimeEngine::olderOverlapPending(std::uint64_t seq, bool is_store) const
{
    // An older access resolved after this cycle's snapshot is also
    // older than the snapshot's unknown-address minimum, which the
    // caller checked first, so the current lists give the snapshot's
    // answer.
    const MemState &mem = memOf(seq);
    auto overlaps = [&](const MemRef &ref) {
        return ref.memSeq < mem.memSeq &&
            ref.addr < mem.addr + mem.size &&
            mem.addr < ref.addr + ref.size;
    };
    for (const MemRef &store : knownStores) {
        if (overlaps(store))
            return true;
    }
    if (is_store) {
        for (const MemRef &load : knownLoads) {
            if (overlaps(load))
                return true;
        }
    }
    return false;
}

void
RuntimeEngine::issueCompute(std::uint64_t seq)
{
    const StaticFacts &f = factsOf(seq);
    SALAM_TRACE_AT(Issue, obsNow(), observer.name.c_str(),
                   "issue %s seq=%llu fu=%u", f.inst->name().c_str(),
                   (unsigned long long)seq,
                   static_cast<unsigned>(f.fu));
    captureOperands(seq);
    occupyFu(f);
    DynInst &di = at(seq);
    di.issued = true;
    di.issueCycle = cycleCount;
    if (observer.sink)
        profOf(seq).issueTick = obsNow();

    if (f.fu != FuType::None)
        engineStats.fuEnergyPj += f.fuEnergyPj;
    // Register file activity: operand reads now, result write at
    // commit.
    engineStats.registerReadEnergyPj += f.readEnergyPj;

    // Functional evaluation happens at issue; the commit of the
    // result is delayed by the unit latency.
    if (source == nullptr) {
        if (f.isPhi) {
            resultOf(seq) = valuesOf(seq)[0];
        } else if (f.inst->isComputeOp()) {
            resultOf(seq) = evalCompute(
                *f.inst, std::span<const RuntimeValue>(valuesOf(seq),
                                                       f.numSlots));
        }
    }

    if (f.latency == 0) {
        commit(seq);
    } else {
        di.commitCycle = cycleCount + f.latency;
        auto t = static_cast<std::size_t>(f.fu);
        computeQueue.push_back({seq, di.commitCycle, t});
        nextCommitDue = std::min(nextCommitDue, di.commitCycle);
        if (fuInflight[t]++ == 0)
            fuInflightTypes |= 1u << t;
    }
}

void
RuntimeEngine::commit(std::uint64_t seq)
{
    DynInst &di = at(seq);
    const StaticFacts &f = facts[di.staticId];
    SALAM_ASSERT(!di.committed);
    di.committed = true;
    ++engineStats.committedInstructions;
    // The engine is ticked every cycle while active, so queued
    // compute ops reach here exactly at their scheduled cycle; for
    // everything else (memory, branches, zero-latency wiring) this
    // is the only place the commit cycle gets stamped.
    di.commitCycle = cycleCount;
    if (observer.sink && di.issued && (f.isMemory() || f.latency > 0)) {
        Tick issued_at = profOf(seq).issueTick;
        Tick end = obsNow();
        Tick dur = end > issued_at ? end - issued_at : 0;
        observer.sink->recordSlice(
            issued_at, dur, observer.name,
            f.isMemory() ? "mem" : "compute",
            f.kind == opLoad ? "load"
                : f.kind == opStore ? "store" : f.inst->name());
    }
    if (!f.isVoid) {
        if (source == nullptr)
            committedValues[f.resultValueId] = resultOf(seq);
        committedKnown[f.resultValueId] = 1;
        engineStats.registerWriteEnergyPj += f.writeEnergyPj;
    }
    if (observer.profiler != nullptr)
        recordProfile(seq);
    if (f.isMemory())
        forgetAddress(seq);

    // Wake the readers bound to this result. A memory reader's
    // pointer operand resolves its address at the first scan past
    // both this commit and its import fence.
    const std::uint64_t slot_mask = (1ull << slotShift) - 1;
    for (std::uint64_t link = di.firstReader; link != noSeq;) {
        std::uint64_t r = link >> slotShift;
        auto slot = static_cast<unsigned>(link & slot_mask);
        link = operandsOf(r)[slot].nextReader;
        DynInst &reader = at(r);
        SALAM_ASSERT(reader.pendingOperands > 0);
        --reader.pendingOperands;
        const StaticFacts &rf = facts[reader.staticId];
        if (rf.isMemory() && slot == rf.ptrSlot())
            scheduleResolve(r, std::max(cycleCount, reader.minIssueCycle));
        if (reader.pendingOperands == 0)
            maybeCandidate(r);
    }
    di.firstReader = noSeq;
}

void
RuntimeEngine::recordProfile(std::uint64_t seq)
{
    const DynInst &di = at(seq);
    const ProfState &prof = profOf(seq);
    obs::ProfNode node;
    node.seq = seq;
    node.staticId = di.staticId;
    node.issueCycle = di.issueCycle;
    node.commitCycle = di.commitCycle;

    // The instance became ready when its last constraint cleared:
    // the importing terminator (minIssueCycle fence) or the
    // latest-committing operand producer. Ties go to the data edge —
    // it is the longer dependence chain.
    node.readyCycle = di.minIssueCycle;
    if (prof.ctrlParentSeq != obs::noProfSeq) {
        node.parentSeq = prof.ctrlParentSeq;
        node.linkCause = prof.ctrlLinkCause;
    }
    if (prof.prodParentSeq != obs::noProfSeq &&
        prof.prodReadyCycle >= node.readyCycle) {
        node.readyCycle = prof.prodReadyCycle;
        node.parentSeq = prof.prodParentSeq;
        node.linkCause = obs::ProfCause::DataDep;
    }
    if (node.readyCycle > node.issueCycle)
        node.readyCycle = node.issueCycle;

    node.waitCause = prof.waitCause;
    if (factsOf(seq).isMemory()) {
        // Precedence: the most specific memory-system annotation
        // wins; a plain round trip is the default.
        unsigned flags = memOf(seq).serviceFlags;
        if (flags & mem::svcCacheMiss)
            node.execCause = obs::ProfCause::CacheMiss;
        else if (flags & mem::svcBankConflict)
            node.execCause = obs::ProfCause::BankConflict;
        else if (flags & mem::svcDmaWait)
            node.execCause = obs::ProfCause::DmaWait;
        else if (flags & mem::svcCreditStall)
            node.execCause = obs::ProfCause::CreditStall;
        else if (flags & mem::svcBusArbitration)
            node.execCause = obs::ProfCause::BusArbitration;
        else if (flags & mem::svcQueued)
            node.execCause = obs::ProfCause::MemQueue;
        else
            node.execCause = obs::ProfCause::MemResponse;
    } else {
        node.execCause = obs::ProfCause::Compute;
    }
    observer.profiler->record(node);
}

void
RuntimeEngine::memoryResponse(std::uint64_t seq, unsigned service_flags,
                              const std::uint8_t *data, unsigned size)
{
    DynInst &op = at(seq);
    const StaticFacts &f = facts[op.staticId];
    MemState &mem = memOf(seq);
    SALAM_ASSERT(op.memInFlight);
    SALAM_TRACE_AT(RuntimeEngine, obsNow(), observer.name,
                   "%s response seq=%llu addr=0x%llx size=%u",
                   f.kind == opLoad ? "load" : "store",
                   (unsigned long long)seq,
                   (unsigned long long)mem.addr, mem.size);
    // Surface the memory system's service annotations before the
    // commit they will be attributed at.
    mem.serviceFlags = service_flags;
    op.memInFlight = false;
    if (f.kind == opLoad) {
        if (source == nullptr) {
            SALAM_ASSERT(size >= mem.size);
            std::uint64_t raw = 0;
            std::memcpy(&raw, data, mem.size);
            resultOf(seq).bits = RuntimeValue::mask(f.inst->type(), raw);
        }
        SALAM_ASSERT(loadsInFlight > 0);
        --loadsInFlight;
    } else {
        SALAM_ASSERT(storesInFlight > 0);
        --storesInFlight;
    }
    commit(seq);
    if (active)
        client.engineRequestTick();
}

void
RuntimeEngine::pruneWindow()
{
    // Retire from the window front (oldest first). An instruction
    // may leave once it is committed, every reader has captured its
    // result, and a newer instance of the same static instruction
    // has issued (so nothing consults it for WAW/WAR any more).
    while (windowFront < nextSeq) {
        const DynInst &front = at(windowFront);
        if (!front.committed || front.unissuedReaders > 0)
            break;
        if (front.nextInstance != noSeq &&
            !at(front.nextInstance).issued) {
            break;
        }
        if (front.nextInstance == noSeq) {
            // Still the newest instance of its static instruction:
            // unregister it so later readers bind to the committed
            // value instead. (A future instance then starts without
            // a WAW link to this long-retired one; by then the
            // initiation-interval spacing is trivially satisfied.)
            std::uint64_t &latest = latestInstance[front.staticId];
            if (latest == windowFront)
                latest = noSeq;
        } else {
            at(front.nextInstance).prevInstance = noSeq;
        }
        ++windowFront;
    }
}

void
RuntimeEngine::recordCycleStats()
{
    // In-flight FU occupancy by type.
    for (std::uint32_t m = fuInflightTypes; m != 0; m &= m - 1) {
        auto t = static_cast<std::size_t>(std::countr_zero(m));
        engineStats.fuBusyCycleSum[t] += fuInflight[t];
    }

    if (observer.memQueueOccupancy) {
        observer.memQueueOccupancy->sample(
            static_cast<double>(loadsInFlight + storesInFlight));
    }
    if (observer.reservationOccupancy) {
        observer.reservationOccupancy->sample(
            static_cast<double>(unissuedCount));
    }
    if (observer.sink) {
        observer.sink->recordCounter(
            obsNow(), observer.name, "queues",
            {{"reservation", static_cast<double>(unissuedCount)},
             {"compute", static_cast<double>(computeQueue.size())},
             {"loads_in_flight", static_cast<double>(loadsInFlight)},
             {"stores_in_flight",
              static_cast<double>(storesInFlight)}});
    }

    if (scan.issuedAny) {
        ++engineStats.newExecCycles;
        if (scan.loads > 0)
            ++engineStats.cyclesWithLoadIssue;
        if (scan.stores > 0)
            ++engineStats.cyclesWithStoreIssue;
        if (scan.fp > 0)
            ++engineStats.cyclesWithFpIssue;
        if (scan.loads > 0 && scan.stores > 0)
            ++engineStats.cyclesWithLoadAndStoreIssue;
        if (scan.loads > 0 && scan.fp > 0)
            ++engineStats.cyclesWithLoadAndFpIssue;
        return;
    }

    ++engineStats.stallCycles;
    // A stall involves a memory class when an access of that class
    // is in flight or was ready but blocked by port/queue limits
    // this cycle; it involves computation when operations occupy
    // functional units.
    bool load_busy = loadsInFlight > 0 || memStallLoadBlocked;
    bool store_busy = storesInFlight > 0 || memStallStoreBlocked;
    bool compute_busy = !computeQueue.empty();
    StallLane lane;
    if (load_busy && store_busy && compute_busy) {
        ++engineStats.stallLoadStoreCompute;
        lane = laneLoadStoreCompute;
    } else if (load_busy && compute_busy) {
        ++engineStats.stallLoadCompute;
        lane = laneLoadCompute;
    } else if (store_busy && compute_busy) {
        ++engineStats.stallStoreCompute;
        lane = laneStoreCompute;
    } else if (load_busy && store_busy) {
        ++engineStats.stallLoadStore;
        lane = laneLoadStore;
    } else if (compute_busy) {
        ++engineStats.stallComputeOnly;
        lane = laneComputeOnly;
    } else if (load_busy) {
        ++engineStats.stallLoadOnly;
        lane = laneLoadOnly;
    } else if (store_busy) {
        ++engineStats.stallStoreOnly;
        lane = laneStoreOnly;
    } else {
        ++engineStats.stallEmpty;
        lane = laneEmpty;
    }
    if (observer.stallCauses)
        observer.stallCauses->add(lane);
}

void
RuntimeEngine::dumpState(obs::JsonBuilder &json) const
{
    json.field("active", active).field("completed", completed);
    json.field("cycle", cycleCount);
    json.field("window", nextSeq - windowFront);
    json.field("loads_in_flight", std::uint64_t(loadsInFlight));
    json.field("stores_in_flight", std::uint64_t(storesInFlight));
    json.field("committed_instructions",
               engineStats.committedInstructions);
    if (pendingImport != noBlock) {
        json.field("pending_import",
                   staticCdfg.blockInfoById(pendingImport).block->name());
    }

    auto describe = [&](std::uint64_t seq) {
        const DynInst &di = at(seq);
        const StaticFacts &f = facts[di.staticId];
        json.beginObject()
            .field("seq", seq)
            .field("inst", "%" + f.inst->name())
            .field("issued", di.issued)
            .field("committed", di.committed);
        if (f.isMemory()) {
            const MemState &mem = memOf(seq);
            json.field("mem", f.kind == opLoad ? "load" : "store")
                .field("addr_known", di.addrKnown)
                .field("addr", mem.addr)
                .field("in_flight", di.memInFlight)
                .field("service_flags",
                       std::uint64_t(mem.serviceFlags));
        }
        json.endObject();
    };

    json.beginArray("reservation_queue");
    for (std::uint64_t seq = windowFront; seq < nextSeq; ++seq) {
        if (!at(seq).issued)
            describe(seq);
    }
    json.endArray();
    json.beginArray("compute_queue");
    for (const PendingCommit &op : computeQueue)
        describe(op.seq);
    json.endArray();
    json.beginArray("memory_order");
    for (std::uint64_t seq = windowFront; seq < nextSeq; ++seq) {
        if (factsOf(seq).isMemory())
            describe(seq);
    }
    json.endArray();
}

void
RuntimeEngine::finish()
{
    active = false;
    completed = true;
    engineStats.totalCycles = cycleCount + 1;
    SALAM_TRACE_AT(RuntimeEngine, obsNow(), observer.name,
                   "finished after %llu cycles (%llu dynamic insts)",
                   (unsigned long long)engineStats.totalCycles,
                   (unsigned long long)
                       engineStats.dynamicInstructions);
    if (observer.sink) {
        observer.sink->recordInstant(obsNow(), observer.name,
                                     "engine", "kernel done");
    }
    client.engineDone();
}

void
RuntimeEngine::issueControl(std::uint64_t seq, const StaticFacts &f)
{
    captureOperands(seq);
    DynInst &di = at(seq);
    di.issued = true;
    di.issueCycle = cycleCount;
    if (f.kind == opRet) {
        if (source == nullptr && f.numSlots == 1)
            resultOf(seq) = valuesOf(seq)[0];
        commit(seq);
        retSeen = true;
    } else {
        unsigned target;
        if (source != nullptr)
            target = static_cast<unsigned>(source->insts[seq].word);
        else if (f.ifFalse == noBlock || valuesOf(seq)[0].asBool())
            target = f.ifTrue;
        else
            target = f.ifFalse;
        commit(seq);
        if (capture != nullptr)
            capture->insts[seq].word = target;
        if (cfg.blockSequentialImport && target != f.block &&
            pendingImport == noBlock) {
            // Defer the state transition until drain.
            pendingImport = target;
            pendingImportFrom = f.block;
            pendingImportCtrlSeq = seq;
        } else {
            importCtrlSeq = seq;
            importBlock(target, f.block);
            importCtrlSeq = obs::noProfSeq;
        }
    }
    markIssued(seq);
    scan.issuedAny = true;
    ++engineStats.otherOpsIssued;
    if (observer.issueClasses)
        observer.issueClasses->add(laneOther);
}

void
RuntimeEngine::issueMemory(std::uint64_t seq, const StaticFacts &f)
{
    // The pointer committed and the fence lifted by now, so the
    // address resolved at the latest at the start of this scan.
    SALAM_ASSERT(at(seq).addrKnown);
    bool is_load = f.kind == opLoad;
    const MemState &mem = memOf(seq);
    // Unknown-address older stores block everything younger;
    // unknown older loads block younger stores. Candidates come
    // in memory order, so the first op the snapshot blocks
    // closes its classes for the rest of the scan.
    if (snapUnknownStore < mem.memSeq) {
        noteWait(seq, obs::ProfCause::MemOrdering);
        scan.loadsOrdered = scan.storesOrdered = true;
        return;
    }
    if (!is_load && snapUnknownLoad < mem.memSeq) {
        noteWait(seq, obs::ProfCause::MemOrdering);
        scan.storesOrdered = true;
        return;
    }
    if (olderOverlapPending(seq, !is_load)) {
        noteWait(seq, obs::ProfCause::MemOrdering);
        return;
    }
    if (is_load && (scan.loads >= cfg.readPortsPerCycle ||
                    loadsInFlight >= cfg.readQueueSize)) {
        scan.loadBlocked = true;
        noteWait(seq, obs::ProfCause::MemPort);
        return;
    }
    if (!is_load && (scan.stores >= cfg.writePortsPerCycle ||
                     storesInFlight >= cfg.writeQueueSize)) {
        scan.storeBlocked = true;
        noteWait(seq, obs::ProfCause::MemPort);
        return;
    }
    captureOperands(seq);
    MemRequest req;
    req.seq = seq;
    req.addr = mem.addr;
    req.size = mem.size;
    req.isLoad = is_load;
    // Store data is operand 0 of the store instruction.
    if (!is_load && source == nullptr)
        req.storeData = valuesOf(seq)[0].bits;
    if (!client.engineIssueMemory(req)) {
        // Interface refused; operands stay captured, retry next
        // cycle (captureOperands is idempotent once producers
        // are cleared).
        noteWait(seq, obs::ProfCause::MemPort);
        return;
    }
    DynInst &di = at(seq);
    di.issued = true;
    di.issueCycle = cycleCount;
    di.memInFlight = true;
    markIssued(seq);
    if (observer.sink)
        profOf(seq).issueTick = obsNow();
    SALAM_TRACE_AT(Issue, obsNow(), observer.name,
                   "issue %s seq=%llu addr=0x%llx size=%u",
                   is_load ? "load" : "store", (unsigned long long)seq,
                   (unsigned long long)mem.addr, mem.size);
    if (is_load) {
        ++loadsInFlight;
        ++scan.loads;
        ++engineStats.loadsIssued;
        if (observer.issueClasses)
            observer.issueClasses->add(laneLoad);
    } else {
        ++storesInFlight;
        ++scan.stores;
        ++engineStats.storesIssued;
        if (observer.issueClasses)
            observer.issueClasses->add(laneStore);
    }
    scan.issuedAny = true;
}

void
RuntimeEngine::visitCandidate(std::uint64_t seq)
{
    if (at(seq).minIssueCycle > cycleCount)
        return; // imported this cycle: the fence lifts next cycle
    const StaticFacts &f = factsOf(seq);
    if (f.kind == opBr || f.kind == opRet) {
        issueControl(seq, f);
        return;
    }
    if (f.isMemory()) {
        issueMemory(seq, f);
        return;
    }

    // Compute ops (including phi and zero-latency wiring).
    if (!fuAvailable(seq)) {
        noteWait(seq, obs::ProfCause::FuContention);
        return;
    }
    issueCompute(seq);
    markIssued(seq);
    scan.issuedAny = true;
    if (f.lane == laneFp) {
        ++scan.fp;
        ++engineStats.fpOpsIssued;
    } else if (f.lane == laneInt) {
        ++engineStats.intOpsIssued;
    } else {
        ++engineStats.otherOpsIssued;
    }
    if (observer.issueClasses)
        observer.issueClasses->add(f.lane);
}

void
RuntimeEngine::cycle()
{
    if (!active)
        return;

    // 1. Commit compute operations whose latency has elapsed. The
    //    queue is walked only on cycles with a due commit; a walk
    //    without removals leaves it unchanged, so the swap-remove
    //    commit order (which fixes the floating-point accumulation
    //    order of the energy statistics) is that of a walk every
    //    cycle.
    if (cycleCount >= nextCommitDue) {
        nextCommitDue = never;
        for (std::size_t i = 0; i < computeQueue.size();) {
            const PendingCommit op = computeQueue[i];
            if (op.commitCycle <= cycleCount) {
                if (--fuInflight[op.fu] == 0)
                    fuInflightTypes &= ~(1u << op.fu);
                commit(op.seq);
                computeQueue[i] = computeQueue.back();
                computeQueue.pop_back();
            } else {
                nextCommitDue = std::min(nextCommitDue, op.commitCycle);
                ++i;
            }
        }
    }

    // 2. Retry a deferred block import. Under block-sequential
    //    scheduling a cross-block import additionally waits for the
    //    pipeline to drain (FSM state-transition semantics).
    if (pendingImport != noBlock) {
        bool drained = unissuedCount == 0 && computeQueue.empty() &&
            loadsInFlight == 0 && storesInFlight == 0;
        if (!cfg.blockSequentialImport || drained ||
            pendingImportFrom == pendingImport) {
            importCtrlSeq = pendingImportCtrlSeq;
            // Charge the control link for what actually held the
            // import back: mostly memory ops clogging the pipeline,
            // or genuine control-flow serialization.
            importCtrlCause =
                importMemWaitCycles > importOtherWaitCycles
                    ? obs::ProfCause::MemPort
                    : obs::ProfCause::Control;
            importBlock(pendingImport, pendingImportFrom);
            importCtrlSeq = obs::noProfSeq;
            importCtrlCause = obs::ProfCause::Control;
            if (pendingImport == noBlock) {
                importMemWaitCycles = 0;
                importOtherWaitCycles = 0;
            }
        }
        if (pendingImport != noBlock) {
            // Memory holds the import back either as in-flight ops
            // or as ready ops the ports refused last cycle.
            if (loadsInFlight + storesInFlight > 0 ||
                memStallLoadBlocked || memStallStoreBlocked) {
                ++importMemWaitCycles;
            } else {
                ++importOtherWaitCycles;
            }
        }
    }

    // 3. Snapshot the unknown-address minimums, then resolve the
    //    addresses that came due: their pointers committed and their
    //    fences lifted by this cycle.
    if (snapDirty) {
        snapDirty = false;
        refreshOrderingSnapshot();
    }
    for (std::size_t i = 0; i < dueResolves.size();) {
        if (dueResolves[i].first <= cycleCount) {
            std::uint64_t seq = dueResolves[i].second;
            dueResolves[i] = dueResolves.back();
            dueResolves.pop_back();
            resolveAddress(seq);
        } else {
            ++i;
        }
    }

    // 4. Visit the issue candidates in ascending seq — the program
    //    order the reservation queue keeps. Issue is dataflow:
    //    younger ready instructions are not blocked by older unready
    //    ones (other than through the explicit dependency, FU, and
    //    memory-ordering rules). Visits may add candidates (mid-scan
    //    commits, block imports), always younger than the visit;
    //    re-reading the current word picks them up this cycle.
    scan = ScanState{};
    inScan = true;
    firstUnissued = std::max(firstUnissued, windowFront);
    while (firstUnissued < nextSeq && at(firstUnissued).issued)
        ++firstUnissued;
    std::uint64_t wi = firstUnissued >> 6;
    std::uint64_t mask = ~0ull << (firstUnissued & 63);
    while (nextSeq != 0 && wi <= (nextSeq - 1) >> 6) {
        // (A visit's import may grow the ring: re-read its mask.)
        std::size_t pw = wi & (windowMask >> 6);
        // Skip the words with no candidate at all, up to the next
        // summary word or the ring's end, whichever comes first.
        std::uint64_t nonempty = candWords[pw >> 6] >> (pw & 63);
        if (nonempty == 0) {
            wi += std::min<std::uint64_t>(64 - (pw & 63),
                                          (windowMask >> 6) + 1 - pw);
            mask = ~0ull;
            continue;
        }
        if ((nonempty & 1) == 0) {
            wi += static_cast<unsigned>(std::countr_zero(nonempty));
            mask = ~0ull;
            continue;
        }
        std::uint64_t w = candBits[pw] & mask;
        if (pruneVisits) {
            // A closed class only parks its remaining candidates
            // (their wait causes aside), so skip it wholesale.
            if (scan.loadBlocked || scan.loadsOrdered)
                w &= ~candLoadBits[pw];
            if (scan.storeBlocked || scan.storesOrdered)
                w &= ~candStoreBits[pw];
            for (std::uint32_t cm = scan.fuClosed; cm != 0;
                 cm &= cm - 1) {
                w &= ~candFuBits[std::countr_zero(cm)][pw];
            }
        }
        if (w == 0) {
            ++wi;
            mask = ~0ull;
            continue;
        }
        auto b = static_cast<unsigned>(std::countr_zero(w));
        mask = b == 63 ? 0 : ~0ull << (b + 1);
        visitCandidate((wi << 6) | b);
    }
    inScan = false;

    SALAM_TRACE_AT(RuntimeEngine, obsNow(), observer.name,
                   "cyc %llu: issued=%d loads=%u stores=%u fp=%u "
                   "rq=%u cq=%zu lif=%u sif=%u",
                   (unsigned long long)cycleCount, (int)scan.issuedAny,
                   scan.loads, scan.stores, scan.fp, unissuedCount,
                   computeQueue.size(), loadsInFlight, storesInFlight);
    memStallLoadBlocked = scan.loadBlocked;
    memStallStoreBlocked = scan.storeBlocked;
    recordCycleStats();
    pruneWindow();

    // 5. Completion check: the kernel is done when ret has executed
    //    and every queue has drained.
    if (retSeen && unissuedCount == 0 && computeQueue.empty() &&
        loadsInFlight == 0 && storesInFlight == 0 &&
        pendingImport == noBlock) {
        finish();
        return;
    }

    ++cycleCount;
    client.engineRequestTick();
}

} // namespace salam::core
