/**
 * @file
 * AxiLikeBus: a burst/backpressure-capable shared bus beside the
 * crossbar.
 *
 * Modeled on the AMBA AXI channel split: read and write transactions
 * travel on separate channels (AR/R and AW/W/B respectively), each
 * arbitrated round-robin across requesters, with a finite data-bus
 * width and per-requester outstanding-transaction credits.
 *
 * Timing semantics, chosen so the bus degrades *to* the crossbar:
 *
 *  - A transaction's first beat rides the address/forward phase and
 *    is delivered forwardLatency cycles after acceptance — exactly
 *    the crossbar's forwarding latency.
 *  - Each ADDITIONAL beat (size > busWidthBytes) occupies the data
 *    channel for one more cycle, blocking later grants on that
 *    channel; responses carrying data (R channel) occupy the return
 *    path the same way. Single-beat transactions are
 *    handshake-limited, not data-limited, mirroring the crossbar's
 *    idealized switch.
 *  - A requester at its credit limit has sends refused outright;
 *    a retry is signalled when a response frees a credit.
 *
 * Hence a bus whose width covers every packet, with unlimited
 * credits, is cycle-identical to the crossbar (the fig10 A/B gate),
 * while a narrow-width/low-credit configuration serializes bursts
 * and starves requesters — the contention the crossbar cannot
 * express. Stalls are annotated on packets (svcBusArbitration,
 * svcCreditStall) so the profiler attributes the new timing.
 */

#ifndef SALAM_MEM_AXI_BUS_HH
#define SALAM_MEM_AXI_BUS_HH

#include <memory>
#include <vector>

#include "interconnect.hh"
#include "port.hh"
#include "ring_queue.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

namespace salam::mem
{

/** The AXI-like split-channel bus. */
class AxiLikeBus : public ClockedObject, public Interconnect
{
  public:
    AxiLikeBus(Simulation &sim, std::string name, Tick clock_period,
               const InterconnectConfig &config = {});

    /** Registers arbitration/credit statistics. */
    void init() override;

    ResponsePort &addRequester(const std::string &label) override;

    void connectDevice(ResponsePort &device_port,
                       AddrRange range) override;

    void connectDefault(ResponsePort &device_port) override;

    const std::vector<AddrRange> &routedRanges() const override
    { return ranges; }

    /** Transactions granted onto either request channel. */
    std::uint64_t forwardedRequests() const { return forwarded; }

    /** Ready transactions that waited for a busy data channel. */
    std::uint64_t arbitrationStallCount() const
    { return arbitrationStalls; }

    /** Requests refused for an exhausted per-requester credit. */
    std::uint64_t creditStallCount() const { return creditStalls; }

    void dumpDiagnostics(obs::JsonBuilder &json) const override;

    std::string stuckReason() const override;

  private:
    class UpstreamPort : public ResponsePort
    {
      public:
        UpstreamPort(AxiLikeBus &owner, unsigned index,
                     const std::string &label)
            : ResponsePort(owner.name() + ".up." + label),
              owner(owner), index(index)
        {}

        bool
        recvTimingReq(PacketPtr pkt) override
        {
            return owner.handleRequest(pkt, index);
        }

        void recvRespRetry() override { owner.pumpAllResponses(); }

      private:
        AxiLikeBus &owner;
        unsigned index;
    };

    class DownstreamPort : public RequestPort
    {
      public:
        DownstreamPort(AxiLikeBus &owner, unsigned index)
            : RequestPort(owner.name() + ".down" +
                          std::to_string(index)),
              owner(owner)
        {}

        bool
        recvTimingResp(PacketPtr pkt) override
        {
            return owner.handleResponse(pkt);
        }

        void recvReqRetry() override { owner.pumpAllRequests(); }

      private:
        AxiLikeBus &owner;
    };

    struct Routed
    {
        PacketPtr pkt;
        unsigned portIndex; ///< downstream for reqs, upstream for resps
        Tick readyAt;
    };

    /** One request channel (AR or AW/W): per-requester queues. */
    struct RequestChannel
    {
        const char *label;
        std::vector<RingQueue<Routed>> pending;
        unsigned rrNext = 0;
        Tick busyUntil = 0;
        std::uint64_t granted = 0;
        std::uint64_t busyCycles = 0;
        EventFunctionWrapper event;

        RequestChannel(const char *label, EventFunctionWrapper event)
            : label(label), event(std::move(event))
        {}

        std::size_t
        queued() const
        {
            std::size_t n = 0;
            for (const auto &q : pending)
                n += q.size();
            return n;
        }
    };

    /** One response channel (R or B): FIFO in device order. */
    struct ResponseChannel
    {
        const char *label;
        RingQueue<Routed> pending;
        Tick busyUntil = 0;
        std::uint64_t busyCycles = 0;
        EventFunctionWrapper event;

        ResponseChannel(const char *label,
                        EventFunctionWrapper event)
            : label(label), event(std::move(event))
        {}
    };

    bool handleRequest(PacketPtr pkt, unsigned upstream_index);

    bool handleResponse(PacketPtr pkt);

    void pumpRequests(RequestChannel &ch);

    void pumpResponses(ResponseChannel &ch);

    void pumpAllRequests();

    void pumpAllResponses();

    /** Free one credit for @p upstream_index and wake it if blocked. */
    void releaseCredit(unsigned upstream_index);

    unsigned routeFor(PacketPtr pkt) const;

    /** Data-channel beats a packet of @p bytes occupies. */
    unsigned beatsFor(unsigned bytes) const;

    InterconnectConfig cfg;
    std::vector<std::unique_ptr<UpstreamPort>> upstream;
    std::vector<std::unique_ptr<DownstreamPort>> downstream;
    std::vector<AddrRange> ranges;
    int defaultRoute = -1;

    RequestChannel readReq;
    RequestChannel writeReq;
    ResponseChannel readResp;
    ResponseChannel writeResp;

    std::vector<unsigned> outstanding;
    std::vector<bool> creditRetryPending;
    std::vector<bool> wasCreditStalled;

    std::uint64_t forwarded = 0;
    std::uint64_t arbitrationStalls = 0;
    std::uint64_t creditStalls = 0;

    /** Sampled per incoming request once init() registered them. */
    Histogram *readQueueOccupancy = nullptr;
    Histogram *writeQueueOccupancy = nullptr;
};

} // namespace salam::mem

#endif // SALAM_MEM_AXI_BUS_HH
