#include "crossbar.hh"

#include <algorithm>

namespace salam::mem
{

Crossbar::Crossbar(Simulation &sim, std::string name,
                   Tick clock_period, const InterconnectConfig &config)
    : Interconnect(sim, std::move(name), clock_period,
                   InterconnectKind::Crossbar, config),
      requestEvent([this] { pumpRequests(); },
                   this->name() + ".req", Event::defaultPri,
                   obs::HostPhase::MemoryModel),
      responseEvent([this] { pumpResponses(); },
                    this->name() + ".resp",
                    Event::memoryResponsePri,
                    obs::HostPhase::MemoryModel)
{
}

void
Crossbar::init()
{
    StatRegistry &reg = simulation().stats();
    const std::string n = name();
    requestQueueOccupancy = &reg.addHistogram(
        n + ".xbar.request_queue_occupancy",
        "queued requests at each arrival", 0.0, 16.0, 8);
    reg.addFormula(n + ".xbar.forwarded", "requests forwarded",
                   [this] {
                       return static_cast<double>(forwardedRequests());
                   });
    reg.addFormula(n + ".xbar.throughput_stalls",
                   "cycles the per-cycle request limit was hit",
                   [this] {
                       return static_cast<double>(throughputStalls);
                   });
    reg.addFormula(n + ".xbar.credit_stalls",
                   "requests refused for exhausted credits",
                   [this] {
                       return static_cast<double>(creditStallCount());
                   });
}

void
Crossbar::queueRequest(PacketPtr pkt, unsigned upstream_index,
                       unsigned target)
{
    if (requestQueueOccupancy) {
        requestQueueOccupancy->sample(
            static_cast<double>(requestQueue.size()));
    }
    SALAM_TRACE(Crossbar, "route addr=0x%llx up=%u -> down=%u",
                (unsigned long long)pkt->addr(), upstream_index,
                target);
    requestQueue.push_back(
        Routed{pkt, target, clockEdge(Cycles(cfg.forwardLatency))});
    // The front's readyAt can be in the past when it sat blocked
    // behind a refused send; never schedule before now.
    if (!requestEvent.scheduled())
        schedule(requestEvent,
                 std::max(requestQueue.front().readyAt, curTick()));
}

void
Crossbar::queueResponse(PacketPtr pkt, unsigned upstream_index)
{
    responseQueue.push_back(Routed{
        pkt, upstream_index, clockEdge(Cycles(cfg.responseLatency))});
    if (!responseEvent.scheduled())
        schedule(responseEvent,
                 std::max(responseQueue.front().readyAt, curTick()));
}

void
Crossbar::pumpRequests()
{
    while (!requestQueue.empty()) {
        const Routed &front = requestQueue.front();
        if (front.readyAt > curTick()) {
            if (!requestEvent.scheduled())
                schedule(requestEvent, front.readyAt);
            return;
        }
        // Per-cycle throughput limit.
        if (cfg.requestsPerCycle > 0) {
            Tick cycle = curTick() / clockPeriod();
            if (cycle != lastRequestCycle) {
                lastRequestCycle = cycle;
                requestsThisCycle = 0;
            }
            if (requestsThisCycle >= cfg.requestsPerCycle) {
                ++throughputStalls;
                if (!requestEvent.scheduled())
                    schedule(requestEvent, clockEdge(Cycles(1)));
                return;
            }
        }
        if (!forwardFront(requestQueue))
            return; // retry will pump again
        ++requestsThisCycle;
    }
}

void
Crossbar::dumpDiagnostics(obs::JsonBuilder &json) const
{
    json.field("queued_requests",
               static_cast<std::uint64_t>(requestQueue.size()));
    json.field("queued_responses",
               static_cast<std::uint64_t>(responseQueue.size()));
    json.field("forwarded", forwardedRequests());
    dumpCredits(json);
    auto emit = [&json](const char *key, const RingQueue<Routed> &q) {
        json.beginArray(key);
        for (std::size_t i = 0; i < q.size(); ++i) {
            const Routed &rp = q[i];
            json.beginObject()
                .field("addr", rp.pkt->addr())
                .field("size", std::uint64_t(rp.pkt->size()))
                .field("read", rp.pkt->isRead())
                .field("port", std::uint64_t(rp.portIndex))
                .field("ready_at", rp.readyAt)
                .field("service_flags",
                       std::uint64_t(rp.pkt->serviceFlags))
                .endObject();
        }
        json.endArray();
    };
    emit("request_queue", requestQueue);
    emit("response_queue", responseQueue);
}

std::string
Crossbar::stuckReason() const
{
    if (!requestQueue.empty() &&
        requestQueue.front().readyAt <= curTick()) {
        return std::to_string(requestQueue.size()) +
               " request(s) blocked waiting for a downstream retry";
    }
    if (!responseQueue.empty() &&
        responseQueue.front().readyAt <= curTick()) {
        return std::to_string(responseQueue.size()) +
               " response(s) blocked waiting for an upstream retry";
    }
    return {};
}

void
Crossbar::pumpResponses()
{
    while (!responseQueue.empty()) {
        const Routed &front = responseQueue.front();
        if (front.readyAt > curTick()) {
            if (!responseEvent.scheduled())
                schedule(responseEvent, front.readyAt);
            return;
        }
        if (!respondFront(responseQueue))
            return;
    }
}

} // namespace salam::mem
