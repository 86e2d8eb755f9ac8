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
 * credits, is cycle-identical to the crossbar as long as no two
 * requesters send in the same tick (the fig10 A/B gate, one
 * requester). Same-tick requests from several requesters leave in
 * round-robin order from the cursor, where the crossbar keeps their
 * arrival order (AxiLikeBus.SameTickRequestsLeaveInRoundRobinOrder).
 * A narrow-width/low-credit configuration serializes bursts and
 * starves requesters — the contention the crossbar cannot express.
 * Stalls are annotated on packets (svcBusArbitration,
 * svcCreditStall) so the profiler attributes the new timing.
 */

#ifndef SALAM_MEM_AXI_BUS_HH
#define SALAM_MEM_AXI_BUS_HH

#include <vector>

#include "interconnect.hh"
#include "ring_queue.hh"
#include "sim/simulation.hh"

namespace salam::mem
{

/** The AXI-like split-channel bus. */
class AxiLikeBus : public Interconnect
{
  public:
    AxiLikeBus(Simulation &sim, std::string name, Tick clock_period,
               const InterconnectConfig &config = {});

    /** Registers arbitration/credit statistics. */
    void init() override;

    ResponsePort &addRequester(const std::string &label) override;

    /** Ready transactions that waited for a busy data channel. */
    std::uint64_t arbitrationStallCount() const
    { return arbitrationStalls; }

    void dumpDiagnostics(obs::JsonBuilder &json) const override;

    std::string stuckReason() const override;

  protected:
    void queueRequest(PacketPtr pkt, unsigned upstream_index,
                      unsigned target) override;

    void queueResponse(PacketPtr pkt,
                       unsigned upstream_index) override;

    /** Pump both request channels. */
    void pumpRequests() override;

    /** Pump both response channels. */
    void pumpResponses() override;

  private:
    /** One request channel (AR or AW/W): per-requester queues. */
    struct RequestChannel
    {
        const char *label;
        std::vector<RingQueue<Routed>> pending;
        unsigned rrNext = 0;
        Tick busyUntil = 0;
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
        RingQueue<Routed> pending;
        Tick busyUntil = 0;
        std::uint64_t busyCycles = 0;
        EventFunctionWrapper event;

        explicit ResponseChannel(EventFunctionWrapper event)
            : event(std::move(event))
        {}
    };

    void pumpChannel(RequestChannel &ch);

    void pumpChannel(ResponseChannel &ch);

    /** Data-channel beats a packet of @p bytes occupies. */
    unsigned beatsFor(unsigned bytes) const;

    RequestChannel readReq;
    RequestChannel writeReq;
    ResponseChannel readResp;
    ResponseChannel writeResp;

    std::uint64_t arbitrationStalls = 0;

    /** Sampled per incoming request once init() registered them. */
    Histogram *readQueueOccupancy = nullptr;
    Histogram *writeQueueOccupancy = nullptr;
};

} // namespace salam::mem

#endif // SALAM_MEM_AXI_BUS_HH
