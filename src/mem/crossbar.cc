#include "crossbar.hh"

#include <algorithm>

#include "inject/fault_injector.hh"

namespace salam::mem
{

Crossbar::Crossbar(Simulation &sim, std::string name,
                   Tick clock_period, const CrossbarConfig &config)
    : ClockedObject(sim, std::move(name), clock_period), cfg(config),
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
                   [this] { return static_cast<double>(forwarded); });
    reg.addFormula(n + ".xbar.throughput_stalls",
                   "cycles the per-cycle request limit was hit",
                   [this] {
                       return static_cast<double>(throughputStalls);
                   });
    reg.addFormula(n + ".xbar.credit_stalls",
                   "requests refused for exhausted credits",
                   [this] {
                       return static_cast<double>(creditStalls);
                   });
}

ResponsePort &
Crossbar::addRequester(const std::string &label)
{
    upstream.push_back(std::make_unique<UpstreamPort>(
        *this, static_cast<unsigned>(upstream.size()), label));
    outstanding.push_back(0);
    creditRetryPending.push_back(false);
    wasCreditStalled.push_back(false);
    return *upstream.back();
}

void
Crossbar::connectDevice(ResponsePort &device_port, AddrRange range)
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
Crossbar::connectDefault(ResponsePort &device_port)
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
Crossbar::routeFor(PacketPtr pkt) const
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

bool
Crossbar::handleRequest(PacketPtr pkt, unsigned upstream_index)
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
    // Per-requester outstanding-transaction credits: at the limit,
    // refuse and owe a retry for when a response frees a credit.
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
    if (requestQueueOccupancy) {
        requestQueueOccupancy->sample(
            static_cast<double>(requestQueue.size()));
    }
    SALAM_TRACE(Crossbar, "route addr=0x%llx up=%u -> down=%u",
                (unsigned long long)pkt->addr(), upstream_index,
                target);
    pkt->pushRoute(upstream_index);
    requestQueue.push_back(RoutedPacket{
        pkt, target, clockEdge(Cycles(cfg.forwardLatency))});
    // The front's readyAt can be in the past when it sat blocked
    // behind a refused send; never schedule before now.
    if (!requestEvent.scheduled())
        schedule(requestEvent,
                 std::max(requestQueue.front().readyAt, curTick()));
    return true;
}

bool
Crossbar::handleResponse(PacketPtr pkt)
{
    unsigned up = pkt->popRoute();
    SALAM_ASSERT(up < upstream.size());
    responseQueue.push_back(RoutedPacket{
        pkt, up, clockEdge(Cycles(cfg.responseLatency))});
    if (!responseEvent.scheduled())
        schedule(responseEvent,
                 std::max(responseQueue.front().readyAt, curTick()));
    return true;
}

void
Crossbar::pumpRequests()
{
    while (!requestQueue.empty()) {
        RoutedPacket &front = requestQueue.front();
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
        if (!downstream[front.portIndex]->sendTimingReq(front.pkt))
            return; // retry will pump again
        ++requestsThisCycle;
        ++forwarded;
        requestQueue.pop_front();
    }
}

void
Crossbar::dumpDiagnostics(obs::JsonBuilder &json) const
{
    json.field("queued_requests",
               static_cast<std::uint64_t>(requestQueue.size()));
    json.field("queued_responses",
               static_cast<std::uint64_t>(responseQueue.size()));
    json.field("forwarded", forwarded);
    json.field("credit_stalls", creditStalls);
    json.beginArray("outstanding_per_requester");
    for (unsigned count : outstanding)
        json.value(static_cast<std::uint64_t>(count));
    json.endArray();
    auto emit = [&json](const char *key,
                        const RingQueue<RoutedPacket> &q) {
        json.beginArray(key);
        for (std::size_t i = 0; i < q.size(); ++i) {
            const RoutedPacket &rp = q[i];
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
        RoutedPacket &front = responseQueue.front();
        if (front.readyAt > curTick()) {
            if (!responseEvent.scheduled())
                schedule(responseEvent, front.readyAt);
            return;
        }
        if (!upstream[front.portIndex]->sendTimingResp(front.pkt))
            return;
        unsigned up = front.portIndex;
        responseQueue.pop_front();
        releaseCredit(up);
    }
}

void
Crossbar::releaseCredit(unsigned upstream_index)
{
    SALAM_ASSERT(outstanding[upstream_index] > 0);
    --outstanding[upstream_index];
    if (creditRetryPending[upstream_index]) {
        creditRetryPending[upstream_index] = false;
        wasCreditStalled[upstream_index] = true;
        upstream[upstream_index]->sendReqRetry();
    }
}

} // namespace salam::mem
