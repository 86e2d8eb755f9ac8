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
 * InterconnectConfig is validated at elaboration time, mirroring
 * DeviceConfig::validate(): a misconfigured fabric fails before any
 * CDFG is built or a single event runs.
 */

#ifndef SALAM_MEM_INTERCONNECT_HH
#define SALAM_MEM_INTERCONNECT_HH

#include <string>
#include <vector>

#include "packet.hh"
#include "port.hh"
#include "sim/types.hh"

namespace salam
{
class Simulation;
}

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
 * The fabric interface system construction is written against.
 * Implementations (Crossbar, AxiLikeBus) route requests by address
 * range and return responses to the originating requester via the
 * packet's route stack; overlapping device ranges are fatal at
 * connect time.
 */
class Interconnect
{
  public:
    virtual ~Interconnect() = default;

    /**
     * Create an upstream endpoint for one requester; bind the
     * requester's RequestPort to the returned port.
     */
    virtual ResponsePort &addRequester(const std::string &label) = 0;

    /**
     * Attach a downstream device servicing @p range. The fabric
     * creates and binds an internal request port to @p device_port.
     */
    virtual void connectDevice(ResponsePort &device_port,
                               AddrRange range) = 0;

    /**
     * Attach the default downstream: packets whose address matches
     * no device range are forwarded here.
     */
    virtual void connectDefault(ResponsePort &device_port) = 0;

    /** Ranges currently routed (for diagnostics/tests). */
    virtual const std::vector<AddrRange> &routedRanges() const = 0;
};

/**
 * Elaborate the fabric described by @p cfg as a simulation object
 * named @p name. fatal()s on an invalid configuration — validation
 * happens here, before any requester or device is attached.
 */
Interconnect &makeInterconnect(Simulation &sim,
                               const std::string &name,
                               Tick clock_period,
                               const InterconnectConfig &cfg);

} // namespace salam::mem

#endif // SALAM_MEM_INTERCONNECT_HH
