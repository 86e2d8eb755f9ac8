#include "axi_bus.hh"

#include <algorithm>

#include "inject/fault_injector.hh"

namespace salam::mem
{

AxiLikeBus::AxiLikeBus(Simulation &sim, std::string name,
                       Tick clock_period,
                       const InterconnectConfig &config)
    : ClockedObject(sim, std::move(name), clock_period), cfg(config),
      readReq("read",
              EventFunctionWrapper([this] { pumpRequests(readReq); },
                                   this->name() + ".ar",
                                   Event::defaultPri,
                                   obs::HostPhase::MemoryModel)),
      writeReq("write",
               EventFunctionWrapper(
                   [this] { pumpRequests(writeReq); },
                   this->name() + ".aw", Event::defaultPri,
                   obs::HostPhase::MemoryModel)),
      readResp("read",
               EventFunctionWrapper(
                   [this] { pumpResponses(readResp); },
                   this->name() + ".r", Event::memoryResponsePri,
                   obs::HostPhase::MemoryModel)),
      writeResp("write",
                EventFunctionWrapper(
                    [this] { pumpResponses(writeResp); },
                    this->name() + ".b", Event::memoryResponsePri,
                    obs::HostPhase::MemoryModel))
{
    std::string diag = cfg.validate();
    if (!diag.empty())
        fatal("%s: %s", this->name().c_str(), diag.c_str());
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
                   [this] { return static_cast<double>(forwarded); });
    reg.addFormula(n + ".bus.arbitration_stalls",
                   "ready transactions held by a busy data channel",
                   [this] {
                       return static_cast<double>(arbitrationStalls);
                   });
    reg.addFormula(n + ".bus.credit_stalls",
                   "requests refused for exhausted credits",
                   [this] {
                       return static_cast<double>(creditStalls);
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
    upstream.push_back(std::make_unique<UpstreamPort>(
        *this, static_cast<unsigned>(upstream.size()), label));
    readReq.pending.emplace_back();
    writeReq.pending.emplace_back();
    outstanding.push_back(0);
    creditRetryPending.push_back(false);
    wasCreditStalled.push_back(false);
    return *upstream.back();
}

void
AxiLikeBus::connectDevice(ResponsePort &device_port, AddrRange range)
{
    for (const AddrRange &existing : ranges) {
        if (existing.overlaps(range)) {
            fatal("%s: device range [0x%llx, 0x%llx) overlapping "
                  "existing range [0x%llx, 0x%llx)",
                  name().c_str(),
                  static_cast<unsigned long long>(range.start),
                  static_cast<unsigned long long>(range.end),
                  static_cast<unsigned long long>(existing.start),
                  static_cast<unsigned long long>(existing.end));
        }
    }
    downstream.push_back(std::make_unique<DownstreamPort>(
        *this, static_cast<unsigned>(downstream.size())));
    ranges.push_back(range);
    bindPorts(*downstream.back(), device_port);
}

void
AxiLikeBus::connectDefault(ResponsePort &device_port)
{
    if (defaultRoute >= 0)
        fatal("%s: default route already set", name().c_str());
    downstream.push_back(std::make_unique<DownstreamPort>(
        *this, static_cast<unsigned>(downstream.size())));
    // An empty range: never matched by lookup, reached via fallback.
    ranges.push_back(AddrRange{0, 0});
    defaultRoute = static_cast<int>(downstream.size()) - 1;
    bindPorts(*downstream.back(), device_port);
}

unsigned
AxiLikeBus::routeFor(PacketPtr pkt) const
{
    for (std::size_t i = 0; i < ranges.size(); ++i) {
        if (ranges[i].contains(pkt->addr(), pkt->size()))
            return static_cast<unsigned>(i);
    }
    if (defaultRoute >= 0)
        return static_cast<unsigned>(defaultRoute);
    panic("%s: no route for address 0x%llx", name().c_str(),
          static_cast<unsigned long long>(pkt->addr()));
}

unsigned
AxiLikeBus::beatsFor(unsigned bytes) const
{
    if (bytes == 0)
        return 1;
    return (bytes + cfg.busWidthBytes - 1) / cfg.busWidthBytes;
}

bool
AxiLikeBus::handleRequest(PacketPtr pkt, unsigned upstream_index)
{
    if (inject::FaultInjector *fi = simulation().faultInjector();
        fi && fi->refuseRequest(name())) {
        pkt->serviceFlags |= svcQueued;
        eventQueue().schedule(
            clockEdge(Cycles(1)),
            [this, upstream_index] {
                upstream[upstream_index]->sendReqRetry();
            },
            name() + ".injected_retry");
        return false;
    }
    // Outstanding-transaction credits, shared across both address
    // channels: a requester at its limit is refused outright and
    // retried when a response returns.
    if (cfg.maxOutstandingPerRequester != unlimitedCredits &&
        outstanding[upstream_index] >=
            cfg.maxOutstandingPerRequester) {
        ++creditStalls;
        creditRetryPending[upstream_index] = true;
        return false;
    }
    ++outstanding[upstream_index];
    if (wasCreditStalled[upstream_index]) {
        pkt->serviceFlags |= svcCreditStall;
        wasCreditStalled[upstream_index] = false;
    }

    unsigned target = routeFor(pkt);
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
    pkt->pushRoute(upstream_index);
    ch.pending[upstream_index].push_back(Routed{
        pkt, target, clockEdge(Cycles(cfg.forwardLatency))});
    if (!ch.event.scheduled()) {
        schedule(ch.event,
                 std::max(ch.pending[upstream_index].back().readyAt,
                          curTick()));
    }
    return true;
}

bool
AxiLikeBus::handleResponse(PacketPtr pkt)
{
    unsigned up = pkt->popRoute();
    SALAM_ASSERT(up < upstream.size());
    // Read data returns on R (multi-beat); write acks on B (single
    // beat regardless of the request's burst length).
    ResponseChannel &ch = pkt->isRead() ? readResp : writeResp;
    ch.pending.push_back(
        Routed{pkt, up, clockEdge(Cycles(cfg.responseLatency))});
    if (!ch.event.scheduled())
        schedule(ch.event,
                 std::max(ch.pending.front().readyAt, curTick()));
    return true;
}

void
AxiLikeBus::pumpRequests(RequestChannel &ch)
{
    const unsigned n = static_cast<unsigned>(upstream.size());
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
        Routed &front = ch.pending[winner].front();
        // Read burst metadata before the send: downstream may
        // consume the packet (or respond reentrantly) inside it.
        unsigned extra_beats = front.pkt->burstBeats - 1;
        if (!downstream[front.portIndex]->sendTimingReq(front.pkt))
            return; // retry will pump again
        ch.busyUntil = now + extra_beats * clockPeriod();
        ch.busyCycles += extra_beats;
        ++ch.granted;
        ++forwarded;
        ch.pending[winner].pop_front();
        ch.rrNext = (static_cast<unsigned>(winner) + 1) % n;
    }
}

void
AxiLikeBus::pumpResponses(ResponseChannel &ch)
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
        unsigned up = front.portIndex;
        if (!upstream[up]->sendTimingResp(front.pkt))
            return;
        ch.busyUntil = now + extra_beats * clockPeriod();
        ch.busyCycles += extra_beats;
        ch.pending.pop_front();
        releaseCredit(up);
    }
}

void
AxiLikeBus::pumpAllRequests()
{
    pumpRequests(readReq);
    pumpRequests(writeReq);
}

void
AxiLikeBus::pumpAllResponses()
{
    pumpResponses(readResp);
    pumpResponses(writeResp);
}

void
AxiLikeBus::releaseCredit(unsigned upstream_index)
{
    SALAM_ASSERT(outstanding[upstream_index] > 0);
    --outstanding[upstream_index];
    if (creditRetryPending[upstream_index]) {
        creditRetryPending[upstream_index] = false;
        wasCreditStalled[upstream_index] = true;
        upstream[upstream_index]->sendReqRetry();
    }
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
    json.field("forwarded", forwarded);
    json.field("arbitration_stalls", arbitrationStalls);
    json.field("credit_stalls", creditStalls);
    json.beginArray("outstanding_per_requester");
    for (unsigned count : outstanding)
        json.value(static_cast<std::uint64_t>(count));
    json.endArray();
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
