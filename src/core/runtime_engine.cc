#include "runtime_engine.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "mem/packet.hh"
#include "obs/host_telemetry.hh"
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
    latestInstance.assign(staticCdfg.numInstructions(), nullptr);
    committedValues.assign(staticCdfg.numValueIds(), RuntimeValue{});
    committedKnown.assign(staticCdfg.numValueIds(), 0);

    // Issue-time costs and classes per static instruction. The
    // energy terms are the products the issue path used to form per
    // dynamic instance (same operand-bit double sum, same factors),
    // so the accumulated energies are bit-identical.
    const HardwareProfile &profile = cfg.profile;
    facts.resize(staticCdfg.numInstructions());
    for (unsigned id = 0; id < staticCdfg.numInstructions(); ++id) {
        const StaticInstInfo &info = staticCdfg.infoById(id);
        const Instruction *inst = info.inst;
        StaticFacts &f = facts[id];
        double read_bits = 0.0;
        for (std::size_t o = 0; o < inst->numOperands(); ++o)
            read_bits += inst->operand(o)->type()->bitWidth();
        f.readEnergyPj =
            read_bits * profile.registers().readEnergyPjPerBit;
        if (!inst->type()->isVoid()) {
            f.writeEnergyPj = static_cast<double>(info.resultBits) *
                profile.registers().writeEnergyPjPerBit;
        }
        if (info.fu != FuType::None) {
            f.fuEnergyPj = profile.fu(info.fu).dynamicEnergyPj;
            f.limitedFu = limitedFuOf[static_cast<std::size_t>(info.fu)];
        }
        switch (inst->opcode()) {
          case Opcode::Br:
            f.kind = opBr;
            break;
          case Opcode::Ret:
            f.kind = opRet;
            break;
          case Opcode::Load:
            f.kind = opLoad;
            break;
          case Opcode::Store:
            f.kind = opStore;
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

    // The window ring starts at twice the reservation capacity and
    // grows on demand (reserveWindow).
    std::uint64_t slots = 256;
    while (slots < 2ull * cfg.reservationQueueSize)
        slots *= 2;
    window.assign(slots, nullptr);
    windowMask = slots - 1;
    candBits.assign(slots / 64, 0);
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

    active = true;
    completed = false;
    retSeen = false;
    cycleCount = 0;
    importBlock(fn.entry(), nullptr);
    // The entry block may issue in cycle 0, and so may its memory
    // ops with an already-known pointer resolve.
    for (std::uint64_t seq = windowFront; seq < nextSeq; ++seq)
        atSeq(seq)->minIssueCycle = 0;
    for (auto &due : dueResolves)
        due.first = 0;
    client.engineRequestTick();
}

void
RuntimeEngine::setObserver(EngineObserver obs)
{
    observer = std::move(obs);
    bool prune = observer.profiler == nullptr;
    if (pruneVisits && !prune) {
        // A profiler sees every ready instance's wait cause: offer
        // the ones hand-off gating kept out of the candidate set.
        pruneVisits = false;
        for (std::uint64_t seq = windowFront; seq < nextSeq; ++seq)
            maybeCandidate(atSeq(seq));
    }
    pruneVisits = prune;
}

DynInst *
RuntimeEngine::acquireDynInst()
{
    if (freeList.empty()) {
        ++arenaMissCount;
        arena.push_back(std::make_unique<DynInst>());
        return arena.back().get();
    }
    ++arenaHitCount;
    DynInst *di = freeList.back();
    freeList.pop_back();
    di->reset();
    return di;
}

DynInst *
RuntimeEngine::createDynInst(const StaticInstInfo &info)
{
    const Instruction *inst = info.inst;
    DynInst *di = acquireDynInst();
    di->inst = inst;
    di->staticInfo = &info;
    di->seq = nextSeq++;
    di->minIssueCycle = cycleCount + 1;
    di->ctrlParentSeq = importCtrlSeq;
    di->ctrlLinkCause = importCtrlCause;
    di->isLoad = inst->opcode() == Opcode::Load;
    di->isStore = inst->opcode() == Opcode::Store;
    di->producers.assign(inst->numOperands(), nullptr);
    di->operandValues.assign(inst->numOperands(), RuntimeValue{});

    // WAW/WAR chain against the previous dynamic instance.
    DynInst *&latest = latestInstance[info.id];
    if (latest != nullptr) {
        di->prevInstance = latest;
        latest->nextInstance = di;
    }
    latest = di;

    reserveWindow(di->seq);
    window[di->seq & windowMask] = di;
    ++engineStats.dynamicInstructions;
    if (capture != nullptr)
        capture->insts.push_back({info.id, DynTrace::noBranchTarget,
                                  0, 0});
    return di;
}

void
RuntimeEngine::growWindow(std::uint64_t needed)
{
    std::uint64_t slots = window.size();
    while (slots < needed)
        slots *= 2;
    std::uint64_t mask = slots - 1;
    std::vector<DynInst *> grown(slots, nullptr);
    auto regrid = [&](std::vector<std::uint64_t> &bits) {
        std::vector<std::uint64_t> out(slots / 64, 0);
        for (std::uint64_t s = windowFront; s < nextSeq; ++s) {
            if (bits[(s >> 6) & (windowMask >> 6)] >> (s & 63) & 1)
                out[(s >> 6) & (mask >> 6)] |= 1ull << (s & 63);
        }
        bits = std::move(out);
    };
    regrid(candBits);
    regrid(candLoadBits);
    regrid(candStoreBits);
    for (auto &bits : candFuBits)
        regrid(bits);
    for (std::uint64_t s = windowFront; s < nextSeq; ++s)
        grown[s & mask] = window[s & windowMask];
    window = std::move(grown);
    windowMask = mask;
}

void
RuntimeEngine::importBlock(const BasicBlock *block,
                           const BasicBlock *from)
{
    const StaticBlockInfo &binfo = staticCdfg.blockInfo(block);
    if (binfo.numInsts > cfg.reservationQueueSize)
        fatal("engine: block '%s' (%zu instructions) exceeds the "
              "reservation queue (%u); raise "
              "DeviceConfig::reservationQueueSize",
              block->name().c_str(), block->size(),
              cfg.reservationQueueSize);
    // A branch importing its successor is still unissued here: it
    // holds its slot until the import is done.
    if (unissuedCount + binfo.numInsts > cfg.reservationQueueSize) {
        pendingImport = block;
        pendingImportFrom = from;
        pendingImportCtrlSeq = importCtrlSeq;
        return;
    }
    pendingImport = nullptr;
    SALAM_TRACE_AT(RuntimeEngine, obsNow(), observer.name,
                   "import block '%s' (%zu instructions)",
                   block->name().c_str(), block->size());
    if (observer.sink) {
        observer.sink->recordInstant(obsNow(), observer.name,
                                     "engine",
                                     "import " + block->name());
    }

    unsigned from_id = 0;
    bool have_from = false;
    if (from != nullptr) {
        from_id = staticCdfg.blockInfo(from).id;
        have_from = true;
    }

    for (unsigned i = 0; i < binfo.numInsts; ++i) {
        const StaticInstInfo &sinfo =
            staticCdfg.infoById(binfo.firstInstId + i);
        DynInst *di = createDynInst(sinfo);

        // Bind operands from the elaboration-time plans. A Producer
        // plan checks the live-instance table first (RAW edge or
        // in-window result), then falls back to the committed-value
        // slot; Committed plans go straight there.
        auto bind_plan = [&](std::size_t slot,
                             const OperandPlan &plan) {
            switch (plan.kind) {
              case OperandPlan::Kind::Constant:
                di->operandValues[slot] = plan.constant;
                return;
              case OperandPlan::Kind::Control:
                return; // control references carry no data
              case OperandPlan::Kind::Producer: {
                DynInst *latest = latestInstance[plan.producerId];
                if (latest != nullptr && !latest->committed) {
                    di->producers[slot] = latest;
                    ++latest->unissuedReaders;
                    latest->readers.push_back(
                        {di, static_cast<unsigned>(slot)});
                    ++di->pendingOperands;
                    return;
                }
                if (latest != nullptr) {
                    di->operandValues[slot] = latest->result;
                    return;
                }
                break;
              }
              case OperandPlan::Kind::Committed:
                break;
            }
            if (!committedKnown[plan.valueId]) {
                panic("engine: operand %%%s of %%%s has no value",
                      sinfo.isPhi
                          ? "phi-incoming"
                          : di->inst->operand(slot)->name().c_str(),
                      di->inst->name().c_str());
            }
            di->operandValues[slot] = committedValues[plan.valueId];
        };

        if (sinfo.isPhi) {
            const OperandPlan *plan = nullptr;
            if (have_from) {
                for (const auto &[pred_id, p] : sinfo.phiIncoming) {
                    if (pred_id == from_id) {
                        plan = &p;
                        break;
                    }
                }
            }
            if (plan == nullptr)
                panic("phi %%%s has no incoming for edge",
                      di->inst->name().c_str());
            // Keep exactly one live operand slot for the edge taken.
            di->producers.assign(1, nullptr);
            di->operandValues.assign(1, RuntimeValue{});
            bind_plan(0, *plan);
        } else {
            for (std::size_t o = 0; o < sinfo.operands.size(); ++o)
                bind_plan(o, sinfo.operands[o]);
        }

        ++unissuedCount;
        if (di->isMemory()) {
            di->memSeq = nextMemSeq++;
            (di->isLoad ? unresolvedLoads : unresolvedStores)
                .push_back(di->seq);
            snapDirty = true;
            // A pointer known at import resolves at the first scan
            // past the import fence.
            if (di->producers[di->isLoad ? 0 : 1] == nullptr)
                scheduleResolve(di, di->minIssueCycle);
        }
        maybeCandidate(di);
    }
}

void
RuntimeEngine::maybeCandidate(DynInst *di)
{
    if (di->issued || di->pendingOperands != 0)
        return;
    const StaticFacts &f = factsOf(*di);
    std::size_t word = (di->seq >> 6) & (windowMask >> 6);
    std::uint64_t bit = 1ull << (di->seq & 63);
    if (f.kind == opLoad) {
        candLoadBits[word] |= bit;
    } else if (f.kind == opStore) {
        candStoreBits[word] |= bit;
    } else if (f.handOffGated) {
        // fuAvailable rejects an instance whose previous instance
        // has not issued or still has unissued readers, whatever
        // the cycle; both conditions only clear (markIssued and
        // captureOperands re-offer the successor then).
        const DynInst *prev = di->prevInstance;
        if (pruneVisits && prev != nullptr &&
            (!prev->issued || prev->unissuedReaders > 0)) {
            return;
        }
        if (f.limitedFu != noLimitedFu)
            candFuBits[f.limitedFu][word] |= bit;
    }
    candBits[word] |= bit;
}

void
RuntimeEngine::markIssued(DynInst *di)
{
    const StaticFacts &f = factsOf(*di);
    std::size_t word = (di->seq >> 6) & (windowMask >> 6);
    std::uint64_t keep = ~(1ull << (di->seq & 63));
    candBits[word] &= keep;
    if (f.kind == opLoad)
        candLoadBits[word] &= keep;
    else if (f.kind == opStore)
        candStoreBits[word] &= keep;
    else if (f.limitedFu != noLimitedFu)
        candFuBits[f.limitedFu][word] &= keep;
    --unissuedCount;
    offerHandOff(di->nextInstance);
}

void
RuntimeEngine::offerHandOff(DynInst *next)
{
    if (pruneVisits && next != nullptr && factsOf(*next).handOffGated)
        maybeCandidate(next);
}

void
RuntimeEngine::captureOperands(DynInst *di)
{
    for (std::size_t i = 0; i < di->producers.size(); ++i) {
        DynInst *producer = di->producers[i];
        if (producer != nullptr) {
            SALAM_ASSERT(producer->committed);
            di->operandValues[i] = producer->result;
            SALAM_ASSERT(producer->unissuedReaders > 0);
            // The last reader draining the producer's result may
            // open its successor instance's FU hand-off.
            if (--producer->unissuedReaders == 0)
                offerHandOff(producer->nextInstance);
            di->producers[i] = nullptr;
            // Remember the latest-committing producer: it is the
            // critical data predecessor in the recorded CDFG.
            if (observer.profiler != nullptr &&
                (di->prodParentSeq == obs::noProfSeq ||
                 producer->commitCycle > di->prodReadyCycle ||
                 (producer->commitCycle == di->prodReadyCycle &&
                  producer->seq > di->prodParentSeq))) {
                di->prodReadyCycle = producer->commitCycle;
                di->prodParentSeq = producer->seq;
            }
        }
    }
}

bool
RuntimeEngine::fuAvailable(const DynInst &di)
{
    FuType type = di.staticInfo->fu;
    if (type == FuType::None)
        return true;

    // WAW/WAR against the previous instance of this instruction:
    // the shared (or dedicated) unit enforces the initiation
    // interval, and the destination register cannot be rewritten
    // while readers of the previous value are pending.
    const DynInst *prev = di.prevInstance;
    if (prev != nullptr) {
        if (!prev->issued)
            return false;
        if (cycleCount <
            prev->issueCycle + di.staticInfo->initiationInterval) {
            return false;
        }
        if (prev->unissuedReaders > 0)
            return false;
    }

    std::size_t t = static_cast<std::size_t>(type);
    unsigned limit = cfg.fuLimits[t];
    if (limit == 0)
        return true; // dedicated unit per static instruction
    for (std::uint64_t free_at : poolFreeAt[t]) {
        if (free_at <= cycleCount)
            return true;
    }
    // Units only get busier within a scan: the pool stays exhausted
    // for every later instance of this type this cycle.
    scan.fuClosed |= 1u << factsOf(di).limitedFu;
    return false;
}

void
RuntimeEngine::occupyFu(DynInst *di)
{
    FuType type = di->staticInfo->fu;
    if (type == FuType::None)
        return;
    std::size_t t = static_cast<std::size_t>(type);
    unsigned limit = cfg.fuLimits[t];
    if (limit == 0)
        return; // dedicated: II enforced via prevInstance
    for (auto &free_at : poolFreeAt[t]) {
        if (free_at <= cycleCount) {
            free_at = cycleCount + di->staticInfo->initiationInterval;
            return;
        }
    }
    panic("occupyFu called without an available unit");
}

void
RuntimeEngine::scheduleResolve(DynInst *di, std::uint64_t due)
{
    if (inScan && due <= cycleCount)
        resolveAddress(di);
    else
        dueResolves.push_back({due, di});
}

void
RuntimeEngine::resolveAddress(DynInst *di)
{
    if (di->addrKnown)
        return;
    std::size_t ptr_slot = di->isLoad ? 0 : 1;
    const DynInst *producer = di->producers[ptr_slot];
    SALAM_ASSERT(producer == nullptr || producer->committed);
    RuntimeValue addr = producer == nullptr
        ? di->operandValues[ptr_slot]
        : producer->result;
    di->memAddr = addr.bits;
    if (di->isLoad) {
        di->memSize = static_cast<unsigned>(
            di->inst->type()->storeSize());
    } else {
        const auto *store =
            static_cast<const StoreInst *>(di->inst);
        di->memSize = static_cast<unsigned>(
            store->value()->type()->storeSize());
    }
    di->addrKnown = true;
    snapDirty = true;
    std::vector<MemRef> &known = di->isLoad ? knownLoads : knownStores;
    di->knownIndex = static_cast<std::uint32_t>(known.size());
    known.push_back({di->memSeq, di->memAddr, di->memSize, di});
    if (capture != nullptr) {
        DynTraceInst &rec = capture->insts[di->seq];
        rec.memAddr = di->memAddr;
        rec.memSize = di->memSize;
    }
}

void
RuntimeEngine::forgetAddress(DynInst *di)
{
    std::vector<MemRef> &known = di->isLoad ? knownLoads : knownStores;
    SALAM_ASSERT(di->knownIndex < known.size() &&
                 known[di->knownIndex].inst == di);
    known[di->knownIndex] = known.back();
    known[di->knownIndex].inst->knownIndex = di->knownIndex;
    known.pop_back();
}

void
RuntimeEngine::refreshOrderingSnapshot()
{
    auto oldest = [this](std::deque<std::uint64_t> &fifo) {
        while (!fifo.empty() && (fifo.front() < windowFront ||
                                 atSeq(fifo.front())->addrKnown)) {
            fifo.pop_front();
        }
        return fifo.empty() ? never : atSeq(fifo.front())->memSeq;
    };
    snapUnknownStore = oldest(unresolvedStores);
    snapUnknownLoad = oldest(unresolvedLoads);
}

bool
RuntimeEngine::olderOverlapPending(const DynInst &di) const
{
    // An older access resolved after this cycle's snapshot is also
    // older than the snapshot's unknown-address minimum, which the
    // caller checked first, so the current lists give the snapshot's
    // answer.
    auto overlaps = [&](const MemRef &ref) {
        return ref.seq < di.memSeq &&
            ref.addr < di.memAddr + di.memSize &&
            di.memAddr < ref.addr + ref.size;
    };
    for (const MemRef &store : knownStores) {
        if (overlaps(store))
            return true;
    }
    if (di.isStore) {
        for (const MemRef &load : knownLoads) {
            if (overlaps(load))
                return true;
        }
    }
    return false;
}

void
RuntimeEngine::issueCompute(DynInst *di)
{
    SALAM_TRACE_AT(Issue, obsNow(), observer.name.c_str(),
                   "issue %s seq=%llu fu=%u",
                   di->inst->name().c_str(),
                   (unsigned long long)di->seq,
                   static_cast<unsigned>(di->staticInfo->fu));
    captureOperands(di);
    occupyFu(di);
    di->issued = true;
    di->issueCycle = cycleCount;
    if (observer.sink)
        di->issueTick = obsNow();

    const StaticFacts &f = factsOf(*di);
    if (di->staticInfo->fu != FuType::None)
        engineStats.fuEnergyPj += f.fuEnergyPj;
    // Register file activity: operand reads now, result write at
    // commit.
    engineStats.registerReadEnergyPj += f.readEnergyPj;

    // Functional evaluation happens at issue; the commit of the
    // result is delayed by the unit latency.
    if (di->inst->opcode() == Opcode::Phi) {
        di->result = di->operandValues[0];
    } else if (di->inst->isComputeOp()) {
        di->result = evalCompute(*di->inst, di->operandValues);
    }

    unsigned latency = di->staticInfo->latency;
    if (latency == 0) {
        commit(di);
    } else {
        di->commitCycle = cycleCount + latency;
        computeQueue.push_back(di);
        nextCommitDue = std::min(nextCommitDue, di->commitCycle);
        auto t = static_cast<std::size_t>(di->staticInfo->fu);
        if (fuInflight[t]++ == 0)
            fuInflightTypes |= 1u << t;
    }
}

void
RuntimeEngine::commit(DynInst *di)
{
    SALAM_ASSERT(!di->committed);
    di->committed = true;
    ++engineStats.committedInstructions;
    // The engine is ticked every cycle while active, so queued
    // compute ops reach here exactly at their scheduled cycle; for
    // everything else (memory, branches, zero-latency wiring) this
    // is the only place the commit cycle gets stamped.
    di->commitCycle = cycleCount;
    if (observer.sink && di->issued &&
        (di->isMemory() || di->staticInfo->latency > 0)) {
        Tick end = obsNow();
        Tick dur = end > di->issueTick ? end - di->issueTick : 0;
        observer.sink->recordSlice(
            di->issueTick, dur, observer.name,
            di->isMemory() ? "mem" : "compute",
            di->isLoad ? "load"
                       : di->isStore ? "store" : di->inst->name());
    }
    if (!di->inst->type()->isVoid()) {
        committedValues[di->staticInfo->resultValueId] = di->result;
        committedKnown[di->staticInfo->resultValueId] = 1;
        engineStats.registerWriteEnergyPj += factsOf(*di).writeEnergyPj;
    }
    if (observer.profiler != nullptr)
        recordProfile(di);
    if (di->isMemory())
        forgetAddress(di);

    // Wake the readers bound to this result. A memory reader's
    // pointer operand resolves its address at the first scan past
    // both this commit and its import fence.
    for (const DynInst::Reader &reader : di->readers) {
        DynInst *r = reader.inst;
        SALAM_ASSERT(r->pendingOperands > 0);
        --r->pendingOperands;
        if (r->isMemory() && reader.slot == (r->isLoad ? 0u : 1u))
            scheduleResolve(r, std::max(cycleCount, r->minIssueCycle));
        maybeCandidate(r);
    }
    di->readers.clear();
}

void
RuntimeEngine::recordProfile(DynInst *di)
{
    obs::ProfNode node;
    node.seq = di->seq;
    node.staticId = di->staticInfo->id;
    node.issueCycle = di->issueCycle;
    node.commitCycle = di->commitCycle;

    // The instance became ready when its last constraint cleared:
    // the importing terminator (minIssueCycle fence) or the
    // latest-committing operand producer. Ties go to the data edge —
    // it is the longer dependence chain.
    node.readyCycle = di->minIssueCycle;
    if (di->ctrlParentSeq != obs::noProfSeq) {
        node.parentSeq = di->ctrlParentSeq;
        node.linkCause = di->ctrlLinkCause;
    }
    if (di->prodParentSeq != obs::noProfSeq &&
        di->prodReadyCycle >= node.readyCycle) {
        node.readyCycle = di->prodReadyCycle;
        node.parentSeq = di->prodParentSeq;
        node.linkCause = obs::ProfCause::DataDep;
    }
    if (node.readyCycle > node.issueCycle)
        node.readyCycle = node.issueCycle;

    node.waitCause = di->waitCause;
    if (di->isMemory()) {
        // Precedence: the most specific memory-system annotation
        // wins; a plain round trip is the default.
        unsigned flags = di->memServiceFlags;
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
RuntimeEngine::memoryResponse(DynInst *op, const std::uint8_t *data,
                              unsigned size)
{
    SALAM_ASSERT(op->memInFlight);
    SALAM_TRACE_AT(RuntimeEngine, obsNow(), observer.name,
                   "%s response seq=%llu addr=0x%llx size=%u",
                   op->isLoad ? "load" : "store",
                   (unsigned long long)op->seq,
                   (unsigned long long)op->memAddr, op->memSize);
    op->memInFlight = false;
    if (op->isLoad) {
        SALAM_ASSERT(size >= op->memSize);
        std::uint64_t raw = 0;
        std::memcpy(&raw, data, op->memSize);
        op->result.bits = RuntimeValue::mask(op->inst->type(), raw);
        SALAM_ASSERT(loadsInFlight > 0);
        --loadsInFlight;
    } else {
        SALAM_ASSERT(storesInFlight > 0);
        --storesInFlight;
    }
    commit(op);
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
        DynInst *front = atSeq(windowFront);
        if (!front->committed || front->unissuedReaders > 0)
            break;
        if (front->nextInstance != nullptr &&
            !front->nextInstance->issued) {
            break;
        }
        if (front->nextInstance == nullptr) {
            // Still the newest instance of its static instruction:
            // unregister it so later readers bind to the committed
            // value instead. (A future instance then starts without
            // a WAW link to this long-retired one; by then the
            // initiation-interval spacing is trivially satisfied.)
            DynInst *&latest =
                latestInstance[front->staticInfo->id];
            if (latest == front)
                latest = nullptr;
        } else {
            front->nextInstance->prevInstance = nullptr;
        }
        ++windowFront;
        releaseDynInst(front);
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
    if (pendingImport)
        json.field("pending_import", pendingImport->name());

    auto describe = [&json](const DynInst *di) {
        json.beginObject()
            .field("seq", di->seq)
            .field("inst", "%" + di->inst->name())
            .field("issued", di->issued)
            .field("committed", di->committed);
        if (di->isMemory()) {
            json.field("mem",
                       di->isLoad ? "load" : "store")
                .field("addr_known", di->addrKnown)
                .field("addr", di->memAddr)
                .field("in_flight", di->memInFlight)
                .field("service_flags",
                       std::uint64_t(di->memServiceFlags));
        }
        json.endObject();
    };

    json.beginArray("reservation_queue");
    for (std::uint64_t seq = windowFront; seq < nextSeq; ++seq) {
        if (!atSeq(seq)->issued)
            describe(atSeq(seq));
    }
    json.endArray();
    json.beginArray("compute_queue");
    for (const DynInst *di : computeQueue)
        describe(di);
    json.endArray();
    json.beginArray("memory_order");
    for (std::uint64_t seq = windowFront; seq < nextSeq; ++seq) {
        if (atSeq(seq)->isMemory())
            describe(atSeq(seq));
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
    if (obs::HostTelemetry *tel = SimContext::current().hostTelemetry())
        tel->noteArena(arenaHitCount, arenaMissCount);
    client.engineDone();
}

void
RuntimeEngine::visitCandidate(DynInst *di)
{
    if (di->minIssueCycle > cycleCount)
        return; // imported this cycle: the fence lifts next cycle
    const StaticFacts &f = factsOf(*di);

    if (f.kind == opBr) {
        const auto *br = static_cast<const BranchInst *>(di->inst);
        captureOperands(di);
        const BasicBlock *target;
        if (br->isConditional()) {
            target = di->operandValues[0].asBool() ? br->ifTrue()
                                                   : br->ifFalse();
        } else {
            target = br->ifTrue();
        }
        di->issued = true;
        di->issueCycle = cycleCount;
        commit(di);
        if (capture != nullptr) {
            capture->insts[di->seq].branchTarget =
                staticCdfg.blockInfo(target).id;
        }
        const BasicBlock *cur = di->inst->parent();
        if (cfg.blockSequentialImport && target != cur &&
            pendingImport == nullptr) {
            // Defer the state transition until drain.
            pendingImport = target;
            pendingImportFrom = cur;
            pendingImportCtrlSeq = di->seq;
        } else {
            importCtrlSeq = di->seq;
            importBlock(target, cur);
            importCtrlSeq = obs::noProfSeq;
        }
        markIssued(di);
        scan.issuedAny = true;
        ++engineStats.otherOpsIssued;
        if (observer.issueClasses)
            observer.issueClasses->add(laneOther);
        return;
    }
    if (f.kind == opRet) {
        captureOperands(di);
        if (di->inst->numOperands() == 1)
            di->result = di->operandValues[0];
        di->issued = true;
        di->issueCycle = cycleCount;
        commit(di);
        retSeen = true;
        markIssued(di);
        scan.issuedAny = true;
        ++engineStats.otherOpsIssued;
        if (observer.issueClasses)
            observer.issueClasses->add(laneOther);
        return;
    }

    if (f.kind == opLoad || f.kind == opStore) {
        // The pointer committed and the fence lifted by now, so the
        // address resolved at the latest at the start of this scan.
        SALAM_ASSERT(di->addrKnown);
        bool is_load = f.kind == opLoad;
        // Unknown-address older stores block everything younger;
        // unknown older loads block younger stores. Candidates come
        // in memory order, so the first op the snapshot blocks
        // closes its classes for the rest of the scan.
        if (snapUnknownStore < di->memSeq) {
            di->waitCause = obs::ProfCause::MemOrdering;
            scan.loadsOrdered = scan.storesOrdered = true;
            return;
        }
        if (!is_load && snapUnknownLoad < di->memSeq) {
            di->waitCause = obs::ProfCause::MemOrdering;
            scan.storesOrdered = true;
            return;
        }
        if (olderOverlapPending(*di)) {
            di->waitCause = obs::ProfCause::MemOrdering;
            return;
        }
        if (is_load && (scan.loads >= cfg.readPortsPerCycle ||
                        loadsInFlight >= cfg.readQueueSize)) {
            scan.loadBlocked = true;
            di->waitCause = obs::ProfCause::MemPort;
            return;
        }
        if (!is_load && (scan.stores >= cfg.writePortsPerCycle ||
                         storesInFlight >= cfg.writeQueueSize)) {
            scan.storeBlocked = true;
            di->waitCause = obs::ProfCause::MemPort;
            return;
        }
        captureOperands(di);
        if (!client.engineIssueMemory(di)) {
            // Interface refused; operands stay captured, retry next
            // cycle (captureOperands is idempotent once producers
            // are cleared).
            di->waitCause = obs::ProfCause::MemPort;
            return;
        }
        di->issued = true;
        di->issueCycle = cycleCount;
        di->memInFlight = true;
        markIssued(di);
        if (observer.sink)
            di->issueTick = obsNow();
        SALAM_TRACE_AT(Issue, obsNow(), observer.name,
                       "issue %s seq=%llu addr=0x%llx size=%u",
                       is_load ? "load" : "store",
                       (unsigned long long)di->seq,
                       (unsigned long long)di->memAddr, di->memSize);
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
        return;
    }

    // Compute ops (including phi and zero-latency wiring).
    if (!fuAvailable(*di)) {
        di->waitCause = obs::ProfCause::FuContention;
        return;
    }
    issueCompute(di);
    markIssued(di);
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
            DynInst *op = computeQueue[i];
            if (op->commitCycle <= cycleCount) {
                auto t = static_cast<std::size_t>(op->staticInfo->fu);
                if (--fuInflight[t] == 0)
                    fuInflightTypes &= ~(1u << t);
                commit(op);
                computeQueue[i] = computeQueue.back();
                computeQueue.pop_back();
            } else {
                nextCommitDue = std::min(nextCommitDue,
                                         op->commitCycle);
                ++i;
            }
        }
    }

    // 2. Retry a deferred block import. Under block-sequential
    //    scheduling a cross-block import additionally waits for the
    //    pipeline to drain (FSM state-transition semantics).
    if (pendingImport != nullptr) {
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
            if (pendingImport == nullptr) {
                importMemWaitCycles = 0;
                importOtherWaitCycles = 0;
            }
        }
        if (pendingImport != nullptr) {
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
            DynInst *di = dueResolves[i].second;
            dueResolves[i] = dueResolves.back();
            dueResolves.pop_back();
            resolveAddress(di);
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
    while (firstUnissued < nextSeq && atSeq(firstUnissued)->issued)
        ++firstUnissued;
    std::uint64_t wi = firstUnissued >> 6;
    std::uint64_t mask = ~0ull << (firstUnissued & 63);
    while (nextSeq != 0 && wi <= (nextSeq - 1) >> 6) {
        std::size_t pw = wi & (windowMask >> 6);
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
        visitCandidate(atSeq((wi << 6) | b));
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
        pendingImport == nullptr) {
        finish();
        return;
    }

    ++cycleCount;
    client.engineRequestTick();
}

} // namespace salam::core
