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
 */

#ifndef SALAM_MEM_CROSSBAR_HH
#define SALAM_MEM_CROSSBAR_HH

#include <memory>
#include <vector>

#include "interconnect.hh"
#include "port.hh"
#include "ring_queue.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

namespace salam::mem
{

/** Crossbar configuration. */
struct CrossbarConfig
{
    /** Request forwarding latency in crossbar cycles. */
    unsigned forwardLatency = 1;
    /** Response forwarding latency in crossbar cycles. */
    unsigned responseLatency = 1;
    /** Max requests forwarded per cycle; 0 means unlimited. */
    unsigned requestsPerCycle = 0;
    /**
     * Outstanding-transaction credits per requester: an upstream
     * port at the limit has further sends refused (retry signalled
     * when a response frees a credit). unlimitedCredits disables
     * the limit, preserving the historical unbounded behavior.
     */
    unsigned maxOutstandingPerRequester = unlimitedCredits;
};

/** The crossbar switch. */
class Crossbar : public ClockedObject, public Interconnect
{
  public:
    Crossbar(Simulation &sim, std::string name, Tick clock_period,
             const CrossbarConfig &config = {});

    /** Registers forwarding statistics with the simulation. */
    void init() override;

    /**
     * Create an upstream endpoint for one requester; bind the
     * requester's RequestPort to the returned port.
     */
    ResponsePort &addRequester(const std::string &label) override;

    /**
     * Attach a downstream device servicing @p range. The crossbar
     * creates and binds an internal request port to @p device_port.
     */
    void connectDevice(ResponsePort &device_port,
                       AddrRange range) override;

    /**
     * Attach the default downstream: packets whose address matches
     * no device range are forwarded here (e.g. a cluster-local
     * crossbar forwarding everything else to the global crossbar).
     */
    void connectDefault(ResponsePort &device_port) override;

    /** Ranges currently routed (for diagnostics/tests). */
    const std::vector<AddrRange> &routedRanges() const override
    { return ranges; }

    std::uint64_t forwardedRequests() const { return forwarded; }

    /** Requests refused for an exhausted per-requester credit. */
    std::uint64_t creditStallCount() const { return creditStalls; }

    void dumpDiagnostics(obs::JsonBuilder &json) const override;

    std::string stuckReason() const override;

  private:
    class UpstreamPort : public ResponsePort
    {
      public:
        UpstreamPort(Crossbar &owner, unsigned index,
                     const std::string &label)
            : ResponsePort(owner.name() + ".up." + label),
              owner(owner), index(index)
        {}

        bool
        recvTimingReq(PacketPtr pkt) override
        {
            return owner.handleRequest(pkt, index);
        }

        void recvRespRetry() override { owner.pumpResponses(); }

      private:
        Crossbar &owner;
        unsigned index;
    };

    class DownstreamPort : public RequestPort
    {
      public:
        DownstreamPort(Crossbar &owner, unsigned index)
            : RequestPort(owner.name() + ".down" +
                          std::to_string(index)),
              owner(owner)
        {}

        bool
        recvTimingResp(PacketPtr pkt) override
        {
            return owner.handleResponse(pkt);
        }

        void recvReqRetry() override { owner.pumpRequests(); }

      private:
        Crossbar &owner;
    };

    struct RoutedPacket
    {
        PacketPtr pkt;
        unsigned portIndex; ///< downstream for reqs, upstream for resps
        Tick readyAt;
    };

    bool handleRequest(PacketPtr pkt, unsigned upstream_index);

    bool handleResponse(PacketPtr pkt);

    /** Free one credit for @p upstream_index and wake it if blocked. */
    void releaseCredit(unsigned upstream_index);

    void pumpRequests();

    void pumpResponses();

    unsigned routeFor(PacketPtr pkt) const;

    CrossbarConfig cfg;
    std::vector<std::unique_ptr<UpstreamPort>> upstream;
    std::vector<std::unique_ptr<DownstreamPort>> downstream;
    std::vector<AddrRange> ranges;
    int defaultRoute = -1;
    RingQueue<RoutedPacket> requestQueue;
    RingQueue<RoutedPacket> responseQueue;
    EventFunctionWrapper requestEvent;
    EventFunctionWrapper responseEvent;
    Tick lastRequestCycle = maxTick;
    unsigned requestsThisCycle = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t throughputStalls = 0;
    std::uint64_t creditStalls = 0;

    /** In-flight requests per upstream (credit accounting). */
    std::vector<unsigned> outstanding;

    /** Upstreams refused for credits, owed a retry. */
    std::vector<bool> creditRetryPending;

    /** Upstreams whose next accepted request carries svcCreditStall. */
    std::vector<bool> wasCreditStalled;

    /** Sampled per incoming request once init() registered it. */
    Histogram *requestQueueOccupancy = nullptr;
};

} // namespace salam::mem

#endif // SALAM_MEM_CROSSBAR_HH
