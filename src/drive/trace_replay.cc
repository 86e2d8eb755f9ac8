#include "trace_replay.hh"

#include <algorithm>

#include "ir/instruction.hh"
#include "mem/scratchpad.hh"

namespace salam::drive
{

using namespace salam::core;

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
    auto reject = [&prep](std::string why) {
        prep.error = std::move(why);
        return prep;
    };
    if (trace.irHash != irHashOf(cdfg.function())) {
        return reject("trace was captured on other kernel IR (IR hash "
                      "mismatch)");
    }

    // Walk the trace as the chain of block imports it records: the
    // entry block, then each block its predecessor's branch word
    // names. The walk is what ties each seq to its static
    // instruction: under the hashed IR, a block import is that
    // block's instructions in order, so only the branch words (and
    // the trace's length) can disagree with the IR.
    constexpr unsigned no_block = ~0u;
    const std::size_t n = trace.insts.size();
    unsigned block = cdfg.blockInfo(cdfg.function().entry()).id;
    unsigned from = no_block;
    std::size_t pos = 0;
    for (;;) {
        const StaticBlockInfo &binfo = cdfg.blockInfoById(block);
        if (pos + binfo.numInsts > n) {
            return reject("trace ends mid-import at seq " +
                          std::to_string(pos) +
                          ": control flow diverged from the capture");
        }
        prep.maxBlockInsts = std::max(prep.maxBlockInsts, binfo.numInsts);
        for (unsigned i = 0; i < binfo.numInsts; ++i) {
            const StaticInstInfo &sinfo =
                cdfg.infoById(binfo.firstInstId + i);
            if (sinfo.isPhi &&
                std::none_of(sinfo.phiIncoming.begin(),
                             sinfo.phiIncoming.end(),
                             [from](const auto &edge) {
                                 return edge.first == from;
                             })) {
                return reject("phi has no incoming edge for the "
                              "traced control flow");
            }
        }
        pos += binfo.numInsts;
        const ir::Instruction *term =
            cdfg.infoById(binfo.firstInstId + binfo.numInsts - 1).inst;
        if (term->opcode() == ir::Opcode::Ret) {
            if (pos != n) {
                return reject("trace continues past ret at seq " +
                              std::to_string(pos));
            }
            return prep;
        }
        const auto *br = dynamic_cast<const ir::BranchInst *>(term);
        std::uint64_t word = trace.insts[pos - 1].word;
        const ir::BasicBlock *next =
            word < cdfg.numBlocks()
                ? cdfg.blockInfoById(static_cast<unsigned>(word)).block
                : nullptr;
        bool successor = br != nullptr && next != nullptr &&
            (next == br->ifTrue() ||
             (br->isConditional() && next == br->ifFalse()));
        if (!successor) {
            return reject("branch at seq " + std::to_string(pos - 1) +
                          " names no successor block");
        }
        from = block;
        block = static_cast<unsigned>(word);
    }
}

TraceReplayer::TraceReplayer(const StaticCdfg &cdfg,
                             const DeviceConfig &dev,
                             const DynTrace &trace,
                             const ReplaySpmConfig &spm,
                             const ReplayPrep *prep)
    : cdfg(cdfg), cfg(dev), trace(trace), spmCfg(spm), prep(prep)
{}

bool
TraceReplayer::engineIssueMemory(const MemRequest &req)
{
    unsigned bank = 0;
    if (spmCfg.banks > 1) {
        bank = static_cast<unsigned>(
            (req.addr - spmCfg.rangeStart) / spmCfg.wordBytes %
            spmCfg.banks);
    }
    spmRequests.push_back({req.seq, bank, req.isLoad});
    ++(req.isLoad ? queuedLoads : queuedStores);
    scheduleService(engine->currentCycle());
    return true;
}

void
TraceReplayer::deliverResponses(std::uint64_t cyc)
{
    while (!spmResponses.empty() &&
           spmResponses.front().readyCycle <= cyc) {
        std::uint64_t seq = spmResponses.front().seq;
        spmResponses.pop_front();
        engine->memoryResponse(seq, 0, nullptr, 0);
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
TraceReplayer::servicePass(std::uint64_t cyc)
{
    servicePending = false;
    havePass = true;
    lastPassCycle = cyc;
    if (spmRequests.empty())
        return;

    unsigned reads_left = spmCfg.readPorts;
    unsigned writes_left = spmCfg.writePorts;
    unsigned loads_left = queuedLoads;
    unsigned stores_left = queuedStores;
    std::fill(busyBanks.begin(), busyBanks.end(), 0);
    std::uint64_t ready = cyc + spmCfg.latencyCycles;
    // The scratchpad's in-order scan, ended once neither class can
    // be serviced any more; serviced entries are squeezed out below.
    std::size_t scanned = 0;
    std::size_t past_serviced = 0;
    while (scanned < spmRequests.size() &&
           ((reads_left > 0 && loads_left > 0) ||
            (writes_left > 0 && stores_left > 0))) {
        SpmRequest &req = spmRequests[scanned++];
        --(req.isLoad ? loads_left : stores_left);
        unsigned &budget = req.isLoad ? reads_left : writes_left;
        std::uint64_t bank_bit = std::uint64_t(1) << (req.bank % 64);
        if (budget == 0 || (busyBanks[req.bank / 64] & bank_bit) != 0)
            continue;
        --budget;
        if (spmCfg.banks > 1)
            busyBanks[req.bank / 64] |= bank_bit;
        ++(req.isLoad ? spmReads : spmWrites);
        --(req.isLoad ? queuedLoads : queuedStores);
        spmResponses.push_back({req.seq, ready});
        req.seq = noSeq;
        past_serviced = scanned;
    }
    std::size_t keep = past_serviced;
    for (std::size_t i = past_serviced; i-- > 0;) {
        if (spmRequests[i].seq != noSeq)
            spmRequests[--keep] = spmRequests[i];
    }
    spmRequests.dropFront(keep);

    // Zero-latency responses fire in the same tick (priority -10),
    // committing at the engine's current cycle.
    if (spmCfg.latencyCycles == 0)
        deliverResponses(cyc);

    if (!spmRequests.empty()) {
        servicePending = true;
        serviceCycle = cyc + 1;
    }
}

ReplayResult
TraceReplayer::run()
{
    ReplayResult result;
    result.error = mem::spmConfigError(spmCfg.readPorts,
                                       spmCfg.writePorts, spmCfg.banks,
                                       spmCfg.wordBytes);
    if (result.error.empty())
        result.error = cfg.validate();
    if (result.error.empty() && trace.empty())
        result.error = "empty trace";
    ReplayPrep own;
    const ReplayPrep *checked = prep;
    if (result.error.empty() && checked == nullptr) {
        own = buildReplayPrep(cdfg, trace);
        checked = &own;
    }
    if (result.error.empty())
        result.error = checked->error;
    if (result.error.empty() &&
        checked->maxBlockInsts > cfg.reservationQueueSize) {
        result.error = "a traced block exceeds the reservation queue "
                       "(the full simulation would fatal too)";
    }
    if (!result.error.empty())
        return result;

    RuntimeEngine eng(cdfg, cfg, *this);
    eng.setTraceSource(&trace);
    engine = &eng;
    busyBanks.assign((spmCfg.banks + 63) / 64, 0);
    eng.start(std::vector<ir::RuntimeValue>(
        cdfg.function().numArguments()));
    // The SPM's events around the engine tick: responses (priority
    // -10) and a pending service pass (0) before it; a pass the
    // engine's own requests scheduled for this cycle after it.
    for (std::uint64_t cyc = 0; !eng.finished(); ++cyc) {
        deliverResponses(cyc);
        if (servicePending && serviceCycle <= cyc)
            servicePass(cyc);
        eng.cycle();
        if (!eng.finished() && servicePending && serviceCycle <= cyc)
            servicePass(cyc);
    }
    engine = nullptr;

    result.ok = true;
    result.stats = eng.stats();
    result.spmReads = spmReads;
    result.spmWrites = spmWrites;
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
