#include "scratchpad.hh"

#include <algorithm>

#include "inject/fault_injector.hh"

namespace salam::mem
{

std::string
spmConfigError(unsigned read_ports, unsigned write_ports,
               unsigned banks, unsigned word_bytes)
{
    if (read_ports == 0 || write_ports == 0)
        return "scratchpad needs at least one port";
    if (banks == 0)
        return "scratchpad needs at least one bank";
    if (word_bytes == 0)
        return "scratchpad interleave word must be at least one byte";
    return {};
}

Scratchpad::Scratchpad(Simulation &sim, std::string name,
                       Tick clock_period,
                       const ScratchpadConfig &config)
    : ClockedObject(sim, std::move(name), clock_period), cfg(config),
      store(config.range.size(), 0),
      busyBanks((config.banks + 63) / 64, 0),
      serviceEvent([this] { serviceCycle(); },
                   this->name() + ".service", Event::defaultPri,
                   obs::HostPhase::MemoryModel),
      responseEvent([this] { trySendResponses(); },
                    this->name() + ".response",
                    Event::memoryResponsePri,
                    obs::HostPhase::MemoryModel)
{
    if (cfg.range.size() == 0)
        fatal("%s: scratchpad range is empty", this->name().c_str());
    if (cfg.numPorts == 0)
        fatal("%s: scratchpad needs at least one port",
              this->name().c_str());
    std::string unservable = spmConfigError(
        cfg.readPorts, cfg.writePorts, cfg.banks, cfg.wordBytes);
    if (!unservable.empty())
        fatal("%s: %s", this->name().c_str(), unservable.c_str());
    for (unsigned i = 0; i < cfg.numPorts; ++i)
        ports.push_back(std::make_unique<SpmPort>(*this, i));
}

void
Scratchpad::init()
{
    StatRegistry &reg = simulation().stats();
    const std::string n = name();
    queueOccupancy = &reg.addHistogram(
        n + ".spm.queue_occupancy",
        "pending requests at the start of each service cycle", 0.0,
        static_cast<double>(
            4 * (cfg.readPorts + cfg.writePorts)),
        8);
    reg.addFormula(n + ".spm.reads", "read accesses serviced",
                   [this] { return static_cast<double>(reads); });
    reg.addFormula(n + ".spm.writes", "write accesses serviced",
                   [this] { return static_cast<double>(writes); });
    reg.addFormula(n + ".spm.active_cycles",
                   "cycles with at least one request pending",
                   [this] {
                       return static_cast<double>(activeCycles);
                   });
    reg.addFormula(n + ".spm.bank_conflicts",
                   "service attempts skipped on a busy bank",
                   [this] {
                       return static_cast<double>(bankConflicts);
                   });
    reg.addFormula(n + ".spm.port_stalls",
                   "service attempts skipped with ports exhausted",
                   [this] {
                       return static_cast<double>(portStalls);
                   });
    sink = simulation().traceSink();
}

ResponsePort &
Scratchpad::port(unsigned i)
{
    if (i >= ports.size())
        fatal("%s: no port %u", name().c_str(), i);
    return *ports[i];
}

void
Scratchpad::backdoorWrite(std::uint64_t addr, const void *src,
                          std::size_t size)
{
    SALAM_ASSERT(cfg.range.contains(addr, static_cast<unsigned>(size)));
    std::memcpy(store.data() + (addr - cfg.range.start), src, size);
}

void
Scratchpad::backdoorRead(std::uint64_t addr, void *dst,
                         std::size_t size) const
{
    SALAM_ASSERT(cfg.range.contains(addr, static_cast<unsigned>(size)));
    std::memcpy(dst, store.data() + (addr - cfg.range.start), size);
}

unsigned
Scratchpad::bankOf(std::uint64_t addr) const
{
    std::uint64_t word = (addr - cfg.range.start) / cfg.wordBytes;
    return static_cast<unsigned>(word % cfg.banks);
}

bool
Scratchpad::handleRequest(PacketPtr pkt, unsigned source_port)
{
    SALAM_ASSERT(cfg.range.contains(pkt->addr(), pkt->size()));
    if (inject::FaultInjector *fi = simulation().faultInjector();
        fi && refusedByInjector(*fi, *this, *ports[source_port], pkt))
        return false;
    unsigned bank = cfg.banks > 1 ? bankOf(pkt->addr()) : 0;
    requestQueue.push_back(QueuedAccess{
        pkt, source_port, bank, pkt->cmd() == MemCmd::ReadReq});
    scheduleService();
    return true;
}

void
Scratchpad::scheduleService()
{
    if (serviceScheduled || requestQueue.empty())
        return;
    serviceScheduled = true;
    // At most one service pass per SPM cycle: if this cycle already
    // had its pass, wait for the next edge.
    Tick edge = clockEdge();
    if (lastServiceTick != maxTick && edge <= lastServiceTick)
        edge = lastServiceTick + clockPeriod();
    schedule(serviceEvent, edge);
}

void
Scratchpad::access(PacketPtr pkt)
{
    std::uint64_t offset = pkt->addr() - cfg.range.start;
    if (pkt->cmd() == MemCmd::ReadReq) {
        pkt->setData(store.data() + offset, pkt->size());
        ++reads;
    } else {
        std::memcpy(store.data() + offset, pkt->data(), pkt->size());
        ++writes;
    }
    pkt->makeResponse();
}

void
Scratchpad::serviceCycle()
{
    serviceScheduled = false;
    lastServiceTick = curTick();
    if (requestQueue.empty())
        return;

    ++activeCycles;
    if (queueOccupancy) {
        queueOccupancy->sample(
            static_cast<double>(requestQueue.size()));
    }
    if (sink) {
        sink->recordCounter(
            curTick(), name(), "queue",
            {{"pending", static_cast<double>(requestQueue.size())}});
    }
    unsigned reads_left = cfg.readPorts;
    unsigned writes_left = cfg.writePorts;
    std::fill(busyBanks.begin(), busyBanks.end(), 0);

    Tick ready = clockEdge(Cycles(cfg.latencyCycles));
    // In-order service: scan the queue, issuing accesses that fit
    // this cycle's port and bank budget. Accesses blocked by a busy
    // bank do not block younger accesses to other banks (banked SRAM
    // behaviour), but per-command ordering is preserved by the scan.
    // A serviced entry is cleared in place and squeezed out below.
    std::size_t scanned = 0;
    std::size_t past_serviced = 0;
    while (scanned < requestQueue.size()) {
        QueuedAccess &entry = requestQueue[scanned++];
        PacketPtr pkt = entry.pkt;
        unsigned bank = entry.bank;
        std::uint64_t bank_bit = std::uint64_t(1) << (bank % 64);
        bool is_read = entry.isRead;
        unsigned &budget = is_read ? reads_left : writes_left;
        if (budget == 0 || (busyBanks[bank / 64] & bank_bit) != 0) {
            if (budget == 0) {
                ++portStalls;
                pkt->serviceFlags |= svcQueued;
            } else {
                ++bankConflicts;
                pkt->serviceFlags |= svcBankConflict;
                SALAM_TRACE(Scratchpad,
                            "bank conflict: %s addr=0x%llx bank=%u",
                            is_read ? "read" : "write",
                            (unsigned long long)pkt->addr(), bank);
            }
            continue;
        }
        SALAM_TRACE(Scratchpad, "%s addr=0x%llx size=%u bank=%u",
                    is_read ? "read" : "write",
                    (unsigned long long)pkt->addr(), pkt->size(),
                    bank);
        --budget;
        if (cfg.banks > 1)
            busyBanks[bank / 64] |= bank_bit;
        access(pkt);
        Tick pkt_ready = ready;
        bool dropped = false;
        if (inject::FaultInjector *fi = simulation().faultInjector()) {
            // Corrupt what the requester will observe: the response
            // payload for reads, the stored bytes for writes.
            std::uint8_t *payload = pkt->isRead()
                ? pkt->data()
                : store.data() + (pkt->addr() - cfg.range.start);
            fi->corruptPayload(name(), pkt->addr(), payload,
                               pkt->size());
            pkt_ready += fi->responseDelay(name());
            dropped = fi->dropResponse(name());
        }
        if (!dropped) {
            noteProgress();
            responseQueue.push_back(
                PendingResponse{pkt, entry.sourcePort, pkt_ready});
        }
        entry.pkt = nullptr;
        past_serviced = scanned;
        if (reads_left == 0 && writes_left == 0)
            break;
    }
    // Slide the entries skipped before the last serviced one up
    // against the rest, keeping their order, and drop the gap.
    std::size_t keep = past_serviced;
    for (std::size_t i = past_serviced; i-- > 0;) {
        if (requestQueue[i].pkt != nullptr)
            requestQueue[--keep] = requestQueue[i];
    }
    requestQueue.dropFront(keep);

    // The front's readyAt can be in the past when it sat blocked
    // behind a refused send; never schedule before now.
    if (!responseQueue.empty())
        reschedule(responseEvent,
                   std::max(responseQueue.front().readyAt,
                            curTick()));
    scheduleService();
}

void
Scratchpad::dumpDiagnostics(obs::JsonBuilder &json) const
{
    json.field("pending_requests",
               static_cast<std::uint64_t>(requestQueue.size()));
    json.field("pending_responses",
               static_cast<std::uint64_t>(responseQueue.size()));
    json.field("reads", reads).field("writes", writes);
    json.beginArray("request_queue");
    for (std::size_t i = 0; i < requestQueue.size(); ++i) {
        const QueuedAccess &qa = requestQueue[i];
        json.beginObject()
            .field("addr", qa.pkt->addr())
            .field("size", std::uint64_t(qa.pkt->size()))
            .field("read", qa.pkt->isRead())
            .field("service_flags",
                   std::uint64_t(qa.pkt->serviceFlags))
            .endObject();
    }
    json.endArray();
    json.beginArray("response_queue");
    for (std::size_t i = 0; i < responseQueue.size(); ++i) {
        const PendingResponse &pr = responseQueue[i];
        json.beginObject()
            .field("addr", pr.pkt->addr())
            .field("ready_at", pr.readyAt)
            .field("port", std::uint64_t(pr.sourcePort))
            .endObject();
    }
    json.endArray();
}

std::string
Scratchpad::stuckReason() const
{
    if (!responseQueue.empty() &&
        responseQueue.front().readyAt <= curTick()) {
        return std::to_string(responseQueue.size()) +
               " response(s) ready but the peer is not accepting";
    }
    return {};
}

void
Scratchpad::trySendResponses()
{
    while (!responseQueue.empty()) {
        PendingResponse &front = responseQueue.front();
        if (front.readyAt > curTick()) {
            reschedule(responseEvent, front.readyAt);
            return;
        }
        if (!ports[front.sourcePort]->sendTimingResp(front.pkt))
            return; // peer will call recvRespRetry
        responseQueue.pop_front();
    }
}

} // namespace salam::mem
