/**
 * @file
 * Crossbar: address-routed interconnect between requesters and
 * devices.
 *
 * Used for both the cluster-local crossbar (accelerators, shared SPM,
 * DMA, peer MMRs) and the global crossbar (clusters, DRAM). Requests
 * are routed by address range with a configurable forwarding latency
 * and an optional per-cycle throughput limit; responses are routed
 * back to the originating requester via the packet's route stack.
 *
 * Requests from every requester share one queue and leave in arrival
 * order, as do responses: unlike AxiLikeBus's round-robin, requests
 * that arrive in the same tick are served in the order they came.
 */

#ifndef SALAM_MEM_CROSSBAR_HH
#define SALAM_MEM_CROSSBAR_HH

#include "interconnect.hh"
#include "ring_queue.hh"
#include "sim/simulation.hh"

namespace salam::mem
{

/** The crossbar switch. */
class Crossbar : public Interconnect
{
  public:
    Crossbar(Simulation &sim, std::string name, Tick clock_period,
             const InterconnectConfig &config = {});

    /** Registers forwarding statistics with the simulation. */
    void init() override;

    void dumpDiagnostics(obs::JsonBuilder &json) const override;

    std::string stuckReason() const override;

  protected:
    void queueRequest(PacketPtr pkt, unsigned upstream_index,
                      unsigned target) override;

    void queueResponse(PacketPtr pkt,
                       unsigned upstream_index) override;

    void pumpRequests() override;

    void pumpResponses() override;

  private:
    RingQueue<Routed> requestQueue;
    RingQueue<Routed> responseQueue;
    EventFunctionWrapper requestEvent;
    EventFunctionWrapper responseEvent;
    Tick lastRequestCycle = maxTick;
    unsigned requestsThisCycle = 0;
    std::uint64_t throughputStalls = 0;

    /** Sampled per incoming request once init() registered it. */
    Histogram *requestQueueOccupancy = nullptr;
};

} // namespace salam::mem

#endif // SALAM_MEM_CROSSBAR_HH
