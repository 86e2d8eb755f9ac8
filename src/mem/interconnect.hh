/**
 * @file
 * Interconnect: the pluggable fabric between requesters and devices.
 *
 * Every interconnect exposes the same composition surface — create
 * an upstream endpoint per requester, attach downstream devices by
 * address range, optionally nominate a default route — so system
 * construction (sys::SalamSystem, the cluster bridges, the bench
 * testbenches) is written once against this interface and the
 * concrete fabric is a configuration choice:
 *
 *  - Crossbar: idealized address-routed switch with a fixed
 *    forwarding latency and an optional per-cycle throughput cap;
 *  - AxiLikeBus: separate read/write channels, round-robin
 *    arbitration, a finite data-bus width that turns wide packets
 *    into multi-beat bursts, and per-requester outstanding credits.
 *
 * Like gem5's BaseXBar, Interconnect is also the one fabric base:
 * it owns the ports, address routing with the default route, the
 * per-requester credits and the injected-refusal retry. A fabric
 * only decides when an admitted request or a response moves on,
 * through the protected hooks below.
 *
 * InterconnectConfig is validated at elaboration time, mirroring
 * DeviceConfig::validate(): a misconfigured fabric fails before any
 * CDFG is built or a single event runs.
 */

#ifndef SALAM_MEM_INTERCONNECT_HH
#define SALAM_MEM_INTERCONNECT_HH

#include <memory>
#include <string>
#include <vector>

#include "packet.hh"
#include "port.hh"
#include "ring_queue.hh"
#include "sim/sim_object.hh"

namespace salam::mem
{

/** Which fabric implementation to elaborate. */
enum class InterconnectKind
{
    Crossbar,
    AxiBus,
};

/** Stable lower-case identifier, e.g. "axi". */
const char *interconnectKindName(InterconnectKind kind);

/**
 * Sentinel for "no outstanding-transaction limit". A limit of 0 is
 * rejected by validation — zero credits could never accept a request
 * and would deadlock every requester at the first send.
 */
constexpr unsigned unlimitedCredits = ~0u;

/**
 * Parameters of one interconnect instance. The kind selects the
 * implementation; unused knobs are ignored (requestsPerCycle is
 * crossbar-only, busWidthBytes is bus-only).
 */
struct InterconnectConfig
{
    /**
     * The fabric makeInterconnect builds. A fabric constructed
     * directly sets it to its own kind.
     */
    InterconnectKind kind = InterconnectKind::Crossbar;

    /** Request forwarding latency in fabric cycles. */
    unsigned forwardLatency = 1;

    /** Response forwarding latency in fabric cycles. */
    unsigned responseLatency = 1;

    /** Crossbar: max requests forwarded per cycle; 0 = unlimited. */
    unsigned requestsPerCycle = 0;

    /**
     * AxiBus: data-channel beat width in bytes. A packet larger than
     * one beat occupies its channel for ceil(size / width) beats.
     */
    unsigned busWidthBytes = 64;

    /**
     * Outstanding-transaction credits per requester: an upstream
     * port with this many requests in flight has further sends
     * refused until a response returns (retry signalled). Applies to
     * both kinds; unlimitedCredits disables the limit, 0 is invalid.
     */
    unsigned maxOutstandingPerRequester = unlimitedCredits;

    /**
     * Elaboration-time validation, DeviceConfig::validate()-style:
     * returns a diagnostic for the first rejected parameter, or ""
     * when the configuration is usable.
     */
    std::string validate() const;
};

/**
 * The fabric base system construction is written against. Requests
 * are routed by address range and responses return to the
 * originating requester via the packet's route stack; overlapping
 * device ranges are fatal at connect time.
 */
class Interconnect : public ClockedObject
{
  public:
    /**
     * Create an upstream endpoint for one requester; bind the
     * requester's RequestPort to the returned port.
     */
    virtual ResponsePort &addRequester(const std::string &label);

    /**
     * Attach a downstream device servicing @p range. The fabric
     * creates and binds an internal request port to @p device_port.
     */
    void connectDevice(ResponsePort &device_port, AddrRange range);

    /**
     * Attach the default downstream: packets whose address matches
     * no device range are forwarded here (e.g. a cluster-local
     * crossbar forwarding everything else to the global crossbar).
     */
    void connectDefault(ResponsePort &device_port);

    /** Ranges currently routed (for diagnostics/tests). */
    const std::vector<AddrRange> &routedRanges() const
    { return ranges; }

    /** Requests a downstream device accepted. */
    std::uint64_t forwardedRequests() const { return forwarded; }

    /** Requests refused for an exhausted per-requester credit. */
    std::uint64_t creditStallCount() const { return creditStalls; }

  protected:
    /**
     * @p kind is the deriving fabric's own: it replaces
     * @p config.kind, so validation and cfg.kind always describe the
     * fabric that exists. fatal()s when the config does not validate.
     */
    Interconnect(Simulation &sim, std::string name, Tick clock_period,
                 InterconnectKind kind, const InterconnectConfig &config);

    /** A packet waiting in a fabric queue. */
    struct Routed
    {
        PacketPtr pkt;
        unsigned portIndex; ///< downstream for reqs, upstream for resps
        Tick readyAt;
    };

    /**
     * Queue a request that passed the credit check, already routed
     * to downstream @p target and carrying its return route.
     */
    virtual void queueRequest(PacketPtr pkt, unsigned upstream_index,
                              unsigned target) = 0;

    /** Queue a response bound for requester @p upstream_index. */
    virtual void queueResponse(PacketPtr pkt,
                               unsigned upstream_index) = 0;

    /** Resend queued requests: a device is ready again. */
    virtual void pumpRequests() = 0;

    /** Resend queued responses: a requester is ready again. */
    virtual void pumpResponses() = 0;

    /**
     * Send the request at the front of @p queue downstream. When the
     * device accepts it, pop it and count it forwarded; false when
     * refused (the device owes a retry).
     */
    bool forwardFront(RingQueue<Routed> &queue);

    /**
     * Return the response at the front of @p queue to its requester.
     * When accepted, pop it and free the requester's credit, which
     * may wake a credit-stalled requester; false when refused.
     */
    bool respondFront(RingQueue<Routed> &queue);

    /**
     * Append "credit_stalls" and "outstanding_per_requester" to a
     * hang dump.
     */
    void dumpCredits(obs::JsonBuilder &json) const;

    std::size_t requesterCount() const { return upstream.size(); }

    const InterconnectConfig cfg;

  private:
    class UpstreamPort : public ResponsePort
    {
      public:
        UpstreamPort(Interconnect &owner, unsigned index,
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
        Interconnect &owner;
        unsigned index;
    };

    class DownstreamPort : public RequestPort
    {
      public:
        DownstreamPort(Interconnect &owner, unsigned index)
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
        Interconnect &owner;
    };

    bool handleRequest(PacketPtr pkt, unsigned upstream_index);

    bool handleResponse(PacketPtr pkt);

    /** Free one credit for @p upstream_index and wake it if blocked. */
    void releaseCredit(unsigned upstream_index);

    unsigned routeFor(PacketPtr pkt) const;

    std::vector<std::unique_ptr<UpstreamPort>> upstream;
    std::vector<std::unique_ptr<DownstreamPort>> downstream;
    std::vector<AddrRange> ranges;
    int defaultRoute = -1;
    std::uint64_t forwarded = 0;
    std::uint64_t creditStalls = 0;

    /** In-flight requests per upstream (credit accounting). */
    std::vector<unsigned> outstanding;

    /** Upstreams refused for credits, owed a retry. */
    std::vector<bool> creditRetryPending;

    /** Upstreams whose next accepted request carries svcCreditStall. */
    std::vector<bool> wasCreditStalled;
};

/**
 * Elaborate the fabric described by @p cfg as a simulation object
 * named @p name. fatal()s on an invalid configuration — the fabric
 * validates it on construction, before any requester or device is
 * attached.
 */
Interconnect &makeInterconnect(Simulation &sim,
                               const std::string &name,
                               Tick clock_period,
                               const InterconnectConfig &cfg);

} // namespace salam::mem

#endif // SALAM_MEM_INTERCONNECT_HH
