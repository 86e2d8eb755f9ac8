/**
 * @file
 * RequestPort / ResponsePort: the gem5-style timing port protocol.
 *
 * A RequestPort (gem5 "master port") sends timing requests and
 * receives timing responses; a ResponsePort (gem5 "slave port") is
 * the device side. sendTimingReq may be refused (returns false), in
 * which case the responder promises a later recvReqRetry. Responses
 * may likewise be refused with a recvRespRetry promise.
 *
 * Port owners subclass and implement the recv* hooks; binding links
 * a request port to exactly one response port.
 */

#ifndef SALAM_MEM_PORT_HH
#define SALAM_MEM_PORT_HH

#include <string>

#include "packet.hh"

namespace salam
{
class ClockedObject;
}

namespace salam::inject
{
class FaultInjector;
}

namespace salam::mem
{

class ResponsePort;

/** The initiating side of a memory connection. */
class RequestPort
{
  public:
    explicit RequestPort(std::string name) : _name(std::move(name)) {}

    virtual ~RequestPort() = default;

    const std::string &name() const { return _name; }

    bool isBound() const { return peer != nullptr; }

    /** Send a request; false means busy, retry will be signalled. */
    bool sendTimingReq(PacketPtr pkt);

    /** Ask the peer to resend a blocked response. */
    void sendRespRetry();

    /** Deliver a response from the peer. False defers it. */
    virtual bool recvTimingResp(PacketPtr pkt) = 0;

    /** The peer is ready for a previously refused request. */
    virtual void recvReqRetry() = 0;

  private:
    friend void bindPorts(RequestPort &req, ResponsePort &resp);
    friend class ResponsePort;

    std::string _name;
    ResponsePort *peer = nullptr;
};

/** The servicing side of a memory connection. */
class ResponsePort
{
  public:
    explicit ResponsePort(std::string name) : _name(std::move(name)) {}

    virtual ~ResponsePort() = default;

    const std::string &name() const { return _name; }

    bool isBound() const { return peer != nullptr; }

    /** Send a response; false means the requester deferred it. */
    bool sendTimingResp(PacketPtr pkt);

    /** Tell the requester a refused request may be retried. */
    void sendReqRetry();

    /** Handle an incoming request. False refuses (promise retry). */
    virtual bool recvTimingReq(PacketPtr pkt) = 0;

    /** The peer is ready for a previously refused response. */
    virtual void recvRespRetry() = 0;

  private:
    friend void bindPorts(RequestPort &req, ResponsePort &resp);
    friend class RequestPort;

    std::string _name;
    RequestPort *peer = nullptr;
};

/** Bind a request port to a response port (1:1, once). */
void bindPorts(RequestPort &req, ResponsePort &resp);

/**
 * RetryStorm injection at a timing responder: when @p fi refuses
 * @p pkt at @p owner, flag the packet queued, owe the requester
 * behind @p port a retry on @p owner's next clock edge and return
 * true; the caller then refuses the request. Callers test for an
 * attached injector first, so runs without one pay no call.
 */
bool refusedByInjector(inject::FaultInjector &fi, ClockedObject &owner,
                       ResponsePort &port, PacketPtr pkt);

} // namespace salam::mem

#endif // SALAM_MEM_PORT_HH
