#include "interconnect.hh"

#include "axi_bus.hh"
#include "crossbar.hh"
#include "inject/fault_injector.hh"
#include "sim/simulation.hh"

namespace salam::mem
{

const char *
interconnectKindName(InterconnectKind kind)
{
    switch (kind) {
      case InterconnectKind::Crossbar:
        return "xbar";
      case InterconnectKind::AxiBus:
        return "axi";
    }
    return "?";
}

std::string
InterconnectConfig::validate() const
{
    if (maxOutstandingPerRequester == 0) {
        return "outstanding-transaction credit limit of 0 can never "
               "accept a request (use unlimitedCredits for no limit)";
    }
    if (kind == InterconnectKind::AxiBus && busWidthBytes == 0)
        return "bus beat width of 0 bytes";
    if (forwardLatency == 0 && responseLatency == 0) {
        return "zero forward and response latency would deliver "
               "responses in the requesting cycle";
    }
    return {};
}

namespace
{

InterconnectConfig
ofKind(InterconnectConfig config, InterconnectKind kind)
{
    config.kind = kind;
    return config;
}

} // namespace

Interconnect::Interconnect(Simulation &sim, std::string name,
                           Tick clock_period, InterconnectKind kind,
                           const InterconnectConfig &config)
    : ClockedObject(sim, std::move(name), clock_period),
      cfg(ofKind(config, kind))
{
    std::string diag = cfg.validate();
    if (!diag.empty())
        fatal("%s: %s", this->name().c_str(), diag.c_str());
}

ResponsePort &
Interconnect::addRequester(const std::string &label)
{
    upstream.push_back(std::make_unique<UpstreamPort>(
        *this, static_cast<unsigned>(upstream.size()), label));
    outstanding.push_back(0);
    creditRetryPending.push_back(false);
    wasCreditStalled.push_back(false);
    return *upstream.back();
}

void
Interconnect::connectDevice(ResponsePort &device_port, AddrRange range)
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
Interconnect::connectDefault(ResponsePort &device_port)
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
Interconnect::routeFor(PacketPtr pkt) const
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
Interconnect::handleRequest(PacketPtr pkt, unsigned upstream_index)
{
    if (inject::FaultInjector *fi = simulation().faultInjector();
        fi && refusedByInjector(*fi, *this, *upstream[upstream_index],
                                pkt))
        return false;
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
    pkt->pushRoute(upstream_index);
    queueRequest(pkt, upstream_index, target);
    return true;
}

bool
Interconnect::handleResponse(PacketPtr pkt)
{
    unsigned up = pkt->popRoute();
    SALAM_ASSERT(up < upstream.size());
    queueResponse(pkt, up);
    return true;
}

bool
Interconnect::forwardFront(RingQueue<Routed> &queue)
{
    const Routed &front = queue.front();
    if (!downstream[front.portIndex]->sendTimingReq(front.pkt))
        return false;
    ++forwarded;
    queue.pop_front();
    return true;
}

bool
Interconnect::respondFront(RingQueue<Routed> &queue)
{
    const Routed &front = queue.front();
    unsigned up = front.portIndex;
    if (!upstream[up]->sendTimingResp(front.pkt))
        return false;
    queue.pop_front();
    releaseCredit(up);
    return true;
}

void
Interconnect::releaseCredit(unsigned upstream_index)
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
Interconnect::dumpCredits(obs::JsonBuilder &json) const
{
    json.field("credit_stalls", creditStalls);
    json.beginArray("outstanding_per_requester");
    for (unsigned count : outstanding)
        json.value(static_cast<std::uint64_t>(count));
    json.endArray();
}

Interconnect &
makeInterconnect(Simulation &sim, const std::string &name,
                 Tick clock_period, const InterconnectConfig &cfg)
{
    if (cfg.kind == InterconnectKind::AxiBus)
        return sim.create<AxiLikeBus>(name, clock_period, cfg);
    return sim.create<Crossbar>(name, clock_period, cfg);
}

} // namespace salam::mem
