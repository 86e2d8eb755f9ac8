#include "axi_bus.hh"

#include <algorithm>

namespace salam::mem
{

AxiLikeBus::AxiLikeBus(Simulation &sim, std::string name,
                       Tick clock_period,
                       const InterconnectConfig &config)
    : Interconnect(sim, std::move(name), clock_period,
                   InterconnectKind::AxiBus, config),
      readReq("read",
              EventFunctionWrapper([this] { pumpChannel(readReq); },
                                   this->name() + ".ar",
                                   Event::defaultPri,
                                   obs::HostPhase::MemoryModel)),
      writeReq("write",
               EventFunctionWrapper(
                   [this] { pumpChannel(writeReq); },
                   this->name() + ".aw", Event::defaultPri,
                   obs::HostPhase::MemoryModel)),
      readResp(EventFunctionWrapper(
                   [this] { pumpChannel(readResp); },
                   this->name() + ".r", Event::memoryResponsePri,
                   obs::HostPhase::MemoryModel)),
      writeResp(EventFunctionWrapper(
                    [this] { pumpChannel(writeResp); },
                    this->name() + ".b", Event::memoryResponsePri,
                    obs::HostPhase::MemoryModel))
{
}

void
AxiLikeBus::init()
{
    StatRegistry &reg = simulation().stats();
    const std::string n = name();
    readQueueOccupancy = &reg.addHistogram(
        n + ".bus.read_queue_occupancy",
        "queued read transactions at each arrival", 0.0, 16.0, 8);
    writeQueueOccupancy = &reg.addHistogram(
        n + ".bus.write_queue_occupancy",
        "queued write transactions at each arrival", 0.0, 16.0, 8);
    reg.addFormula(n + ".bus.forwarded", "transactions granted",
                   [this] {
                       return static_cast<double>(forwardedRequests());
                   });
    reg.addFormula(n + ".bus.arbitration_stalls",
                   "ready transactions held by a busy data channel",
                   [this] {
                       return static_cast<double>(arbitrationStalls);
                   });
    reg.addFormula(n + ".bus.credit_stalls",
                   "requests refused for exhausted credits",
                   [this] {
                       return static_cast<double>(creditStallCount());
                   });
    reg.addFormula(n + ".bus.read_busy_cycles",
                   "extra beats serialized on the read data channel",
                   [this] {
                       return static_cast<double>(
                           readReq.busyCycles + readResp.busyCycles);
                   });
    reg.addFormula(n + ".bus.write_busy_cycles",
                   "extra beats serialized on the write data channel",
                   [this] {
                       return static_cast<double>(
                           writeReq.busyCycles +
                           writeResp.busyCycles);
                   });
}

ResponsePort &
AxiLikeBus::addRequester(const std::string &label)
{
    readReq.pending.emplace_back();
    writeReq.pending.emplace_back();
    return Interconnect::addRequester(label);
}

unsigned
AxiLikeBus::beatsFor(unsigned bytes) const
{
    if (bytes == 0)
        return 1;
    return (bytes + cfg.busWidthBytes - 1) / cfg.busWidthBytes;
}

void
AxiLikeBus::queueRequest(PacketPtr pkt, unsigned upstream_index,
                         unsigned target)
{
    pkt->setBurst(beatsFor(pkt->size()), cfg.busWidthBytes);
    RequestChannel &ch = pkt->isRead() ? readReq : writeReq;
    Histogram *occupancy =
        pkt->isRead() ? readQueueOccupancy : writeQueueOccupancy;
    if (occupancy)
        occupancy->sample(static_cast<double>(ch.queued()));
    SALAM_TRACE(AxiBus,
                "%s addr=0x%llx up=%u -> down=%u beats=%u",
                ch.label, (unsigned long long)pkt->addr(),
                upstream_index, target, pkt->burstBeats);
    ch.pending[upstream_index].push_back(Routed{
        pkt, target, clockEdge(Cycles(cfg.forwardLatency))});
    if (!ch.event.scheduled()) {
        schedule(ch.event,
                 std::max(ch.pending[upstream_index].back().readyAt,
                          curTick()));
    }
}

void
AxiLikeBus::queueResponse(PacketPtr pkt, unsigned upstream_index)
{
    // Read data returns on R (multi-beat); write acks on B (single
    // beat regardless of the request's burst length).
    ResponseChannel &ch = pkt->isRead() ? readResp : writeResp;
    ch.pending.push_back(Routed{
        pkt, upstream_index, clockEdge(Cycles(cfg.responseLatency))});
    if (!ch.event.scheduled())
        schedule(ch.event,
                 std::max(ch.pending.front().readyAt, curTick()));
}

void
AxiLikeBus::pumpChannel(RequestChannel &ch)
{
    const unsigned n = static_cast<unsigned>(requesterCount());
    for (;;) {
        Tick now = curTick();
        // Round-robin arbitration: the winner is the first upstream
        // after the cursor whose front transaction is ready.
        int winner = -1;
        bool any_pending = false;
        Tick next_ready = maxTick;
        for (unsigned k = 0; k < n; ++k) {
            unsigned idx = (ch.rrNext + k) % n;
            if (ch.pending[idx].empty())
                continue;
            any_pending = true;
            Tick ready = ch.pending[idx].front().readyAt;
            if (ready <= now) {
                if (winner < 0)
                    winner = static_cast<int>(idx);
            } else {
                next_ready = std::min(next_ready, ready);
            }
        }
        if (winner < 0) {
            if (any_pending && !ch.event.scheduled())
                schedule(ch.event, std::max(next_ready, now));
            return;
        }
        // Data-channel occupancy: a prior multi-beat burst still
        // holds the channel; every ready transaction waits for it.
        if (ch.busyUntil > now) {
            ++arbitrationStalls;
            for (unsigned idx = 0; idx < n; ++idx) {
                if (!ch.pending[idx].empty() &&
                    ch.pending[idx].front().readyAt <= now) {
                    ch.pending[idx].front().pkt->serviceFlags |=
                        svcBusArbitration;
                }
            }
            if (!ch.event.scheduled())
                schedule(ch.event, ch.busyUntil);
            return;
        }
        // Read burst metadata before the send: downstream may
        // consume the packet (or respond reentrantly) inside it.
        unsigned extra_beats =
            ch.pending[winner].front().pkt->burstBeats - 1;
        if (!forwardFront(ch.pending[winner]))
            return; // retry will pump again
        ch.busyUntil = now + extra_beats * clockPeriod();
        ch.busyCycles += extra_beats;
        ch.rrNext = (static_cast<unsigned>(winner) + 1) % n;
    }
}

void
AxiLikeBus::pumpChannel(ResponseChannel &ch)
{
    while (!ch.pending.empty()) {
        Routed &front = ch.pending.front();
        Tick now = curTick();
        if (front.readyAt > now) {
            if (!ch.event.scheduled())
                schedule(ch.event, front.readyAt);
            return;
        }
        if (ch.busyUntil > now) {
            ++arbitrationStalls;
            front.pkt->serviceFlags |= svcBusArbitration;
            if (!ch.event.scheduled())
                schedule(ch.event, ch.busyUntil);
            return;
        }
        // R carries the read data (multi-beat); B is one beat. Read
        // the metadata before the send — the requester owns (and
        // typically deletes) the packet once the response lands.
        unsigned extra_beats =
            front.pkt->isRead() ? front.pkt->burstBeats - 1 : 0;
        if (!respondFront(ch.pending))
            return;
        ch.busyUntil = now + extra_beats * clockPeriod();
        ch.busyCycles += extra_beats;
    }
}

void
AxiLikeBus::pumpRequests()
{
    pumpChannel(readReq);
    pumpChannel(writeReq);
}

void
AxiLikeBus::pumpResponses()
{
    pumpChannel(readResp);
    pumpChannel(writeResp);
}

void
AxiLikeBus::dumpDiagnostics(obs::JsonBuilder &json) const
{
    json.field("queued_reads",
               static_cast<std::uint64_t>(readReq.queued()));
    json.field("queued_writes",
               static_cast<std::uint64_t>(writeReq.queued()));
    json.field("queued_read_responses",
               static_cast<std::uint64_t>(readResp.pending.size()));
    json.field("queued_write_responses",
               static_cast<std::uint64_t>(writeResp.pending.size()));
    json.field("forwarded", forwardedRequests());
    json.field("arbitration_stalls", arbitrationStalls);
    dumpCredits(json);
}

std::string
AxiLikeBus::stuckReason() const
{
    auto blocked_requests = [this](const RequestChannel &ch) {
        std::size_t n = 0;
        for (const auto &q : ch.pending) {
            for (std::size_t i = 0; i < q.size(); ++i) {
                if (q[i].readyAt <= curTick())
                    ++n;
            }
        }
        return n;
    };
    std::size_t reqs =
        blocked_requests(readReq) + blocked_requests(writeReq);
    if (reqs > 0 && readReq.busyUntil <= curTick() &&
        writeReq.busyUntil <= curTick()) {
        return std::to_string(reqs) +
               " request(s) blocked waiting for a downstream retry";
    }
    auto blocked_resps = [this](const ResponseChannel &ch) {
        return !ch.pending.empty() &&
               ch.pending.front().readyAt <= curTick() &&
               ch.busyUntil <= curTick();
    };
    if (blocked_resps(readResp) || blocked_resps(writeResp)) {
        return std::to_string(readResp.pending.size() +
                              writeResp.pending.size()) +
               " response(s) blocked waiting for an upstream retry";
    }
    return {};
}

} // namespace salam::mem
