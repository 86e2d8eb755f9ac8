#include "simple_dram.hh"

#include <algorithm>
#include <cstring>

#include "inject/fault_injector.hh"

namespace salam::mem
{

SimpleDram::SimpleDram(Simulation &sim, std::string name,
                       Tick clock_period, const DramConfig &config)
    : ClockedObject(sim, std::move(name), clock_period), cfg(config),
      responsePort(*this),
      responseEvent([this] { trySendResponses(); },
                    this->name() + ".response",
                    Event::memoryResponsePri,
                    obs::HostPhase::MemoryModel)
{
    if (cfg.range.size() == 0)
        fatal("%s: DRAM range is empty", this->name().c_str());
    if (cfg.bytesPerTick <= 0.0)
        fatal("%s: DRAM bandwidth must be positive",
              this->name().c_str());
    store.reset(static_cast<std::uint8_t *>(
        std::calloc(cfg.range.size(), 1)));
    if (!store)
        fatal("%s: cannot allocate %llu bytes of DRAM",
              this->name().c_str(),
              static_cast<unsigned long long>(cfg.range.size()));
}

void
SimpleDram::backdoorWrite(std::uint64_t addr, const void *src,
                          std::size_t size)
{
    SALAM_ASSERT(cfg.range.contains(addr, static_cast<unsigned>(size)));
    std::memcpy(store.get() + (addr - cfg.range.start), src, size);
}

void
SimpleDram::backdoorRead(std::uint64_t addr, void *dst,
                         std::size_t size) const
{
    SALAM_ASSERT(cfg.range.contains(addr, static_cast<unsigned>(size)));
    std::memcpy(dst, store.get() + (addr - cfg.range.start), size);
}

void
SimpleDram::access(PacketPtr pkt)
{
    std::uint64_t offset = pkt->addr() - cfg.range.start;
    if (pkt->cmd() == MemCmd::ReadReq) {
        pkt->setData(store.get() + offset, pkt->size());
        ++reads;
    } else {
        std::memcpy(store.get() + offset, pkt->data(), pkt->size());
        ++writes;
    }
    bytes += pkt->size();
    pkt->makeResponse();
}

bool
SimpleDram::handleRequest(PacketPtr pkt)
{
    SALAM_ASSERT(cfg.range.contains(pkt->addr(), pkt->size()));
    inject::FaultInjector *fi = simulation().faultInjector();
    if (fi && refusedByInjector(*fi, *this, responsePort, pkt))
        return false;
    access(pkt);

    // Timing: the transfer occupies the data bus for size/bandwidth
    // ticks starting when the bus frees up; the response arrives a
    // flat access latency after the transfer completes its slot.
    Tick now = curTick();
    Tick start = std::max(now, busFreeAt);
    if (start > now) {
        // Waited for the data bus. Kernel requests (those carrying
        // their CommInterface as context) queued behind contextless
        // traffic — DMA bursts, host accesses — get the more
        // specific flag.
        pkt->serviceFlags |= svcQueued;
        if (pkt->context != nullptr && lastOccupantExternal)
            pkt->serviceFlags |= svcDmaWait;
    }
    lastOccupantExternal = pkt->context == nullptr;
    auto occupancy = static_cast<Tick>(
        static_cast<double>(pkt->size()) / cfg.bytesPerTick);
    busFreeAt = start + std::max<Tick>(occupancy, 1);
    Tick ready = busFreeAt + cfg.accessLatency;

    if (fi) {
        std::uint8_t *payload = pkt->isRead()
            ? pkt->data()
            : store.get() + (pkt->addr() - cfg.range.start);
        fi->corruptPayload(name(), pkt->addr(), payload, pkt->size());
        ready += fi->responseDelay(name());
        if (fi->dropResponse(name()))
            return true; // accepted, never answered
    }
    noteProgress();
    responseQueue.push_back(Pending{pkt, ready});
    // The front's readyAt can be in the past when it sat blocked
    // behind a refused send; never schedule before now.
    if (!responseEvent.scheduled())
        schedule(responseEvent,
                 std::max(responseQueue.front().readyAt, curTick()));
    return true;
}

void
SimpleDram::dumpDiagnostics(obs::JsonBuilder &json) const
{
    json.field("pending_responses",
               static_cast<std::uint64_t>(responseQueue.size()));
    json.field("bus_free_at", busFreeAt);
    json.field("reads", reads).field("writes", writes);
    json.beginArray("response_queue");
    for (std::size_t i = 0; i < responseQueue.size(); ++i) {
        const Pending &p = responseQueue[i];
        json.beginObject()
            .field("addr", p.pkt->addr())
            .field("size", std::uint64_t(p.pkt->size()))
            .field("read", p.pkt->isRead())
            .field("ready_at", p.readyAt)
            .field("service_flags",
                   std::uint64_t(p.pkt->serviceFlags))
            .endObject();
    }
    json.endArray();
}

std::string
SimpleDram::stuckReason() const
{
    if (!responseQueue.empty() &&
        responseQueue.front().readyAt <= curTick()) {
        return std::to_string(responseQueue.size()) +
               " response(s) ready but the peer is not accepting";
    }
    return {};
}

void
SimpleDram::trySendResponses()
{
    while (!responseQueue.empty()) {
        Pending &front = responseQueue.front();
        if (front.readyAt > curTick()) {
            if (!responseEvent.scheduled())
                schedule(responseEvent, front.readyAt);
            return;
        }
        if (!responsePort.sendTimingResp(front.pkt))
            return;
        responseQueue.pop_front();
    }
}

} // namespace salam::mem
