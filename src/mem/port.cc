#include "port.hh"

#include "inject/fault_injector.hh"
#include "sim/sim_object.hh"

namespace salam::mem
{

bool
RequestPort::sendTimingReq(PacketPtr pkt)
{
    if (peer == nullptr)
        panic("request port '%s' is unbound", _name.c_str());
    SALAM_ASSERT(pkt->isRequest());
    return peer->recvTimingReq(pkt);
}

void
RequestPort::sendRespRetry()
{
    SALAM_ASSERT(peer != nullptr);
    peer->recvRespRetry();
}

bool
ResponsePort::sendTimingResp(PacketPtr pkt)
{
    if (peer == nullptr)
        panic("response port '%s' is unbound", _name.c_str());
    SALAM_ASSERT(pkt->isResponse());
    return peer->recvTimingResp(pkt);
}

void
ResponsePort::sendReqRetry()
{
    SALAM_ASSERT(peer != nullptr);
    peer->recvReqRetry();
}

void
bindPorts(RequestPort &req, ResponsePort &resp)
{
    if (req.peer != nullptr)
        panic("request port '%s' already bound", req.name().c_str());
    if (resp.peer != nullptr)
        panic("response port '%s' already bound",
              resp.name().c_str());
    req.peer = &resp;
    resp.peer = &req;
}

bool
refusedByInjector(inject::FaultInjector &fi, ClockedObject &owner,
                  ResponsePort &port, PacketPtr pkt)
{
    if (!fi.refuseRequest(owner.name()))
        return false;
    pkt->serviceFlags |= svcQueued;
    owner.eventQueue().schedule(
        owner.clockEdge(Cycles(1)), [&port] { port.sendReqRetry(); },
        owner.name() + ".injected_retry");
    return true;
}

} // namespace salam::mem
