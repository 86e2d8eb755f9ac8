/**
 * @file
 * CommInterface: the accelerator's window onto the system.
 *
 * Implements the paper's "Communications Interface" (Fig. 5): a
 * memory-mapped register file for control/status/argument passing, a
 * set of data request ports routed by address range (private SPM,
 * global crossbar/cache, stream buffers), and an interrupt line.
 *
 * The interface is deliberately decoupled from the ComputeUnit: any
 * memory hierarchy can be swapped in by rebinding ports and editing
 * the range map, with no change to the datapath model — the property
 * the multi-accelerator scenarios in Sec. IV-E rely on.
 */

#ifndef SALAM_CORE_COMM_INTERFACE_HH
#define SALAM_CORE_COMM_INTERFACE_HH

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "mem/port.hh"
#include "runtime_engine.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

namespace salam::core
{

/** CommInterface configuration. */
struct CommInterfaceConfig
{
    /** MMR window (control register + argument registers). */
    mem::AddrRange mmrRange;

    /** One data port per entry, each serving its address ranges. */
    struct PortSpec
    {
        std::string label;
        std::vector<mem::AddrRange> ranges;
    };

    std::vector<PortSpec> dataPorts;

    /** MMR access latency in interface-clock cycles. */
    unsigned mmrLatencyCycles = 1;
};

/** Control-register bit definitions. */
namespace ctrl_bits
{
constexpr std::uint64_t start = 1u << 0;
constexpr std::uint64_t done = 1u << 1;
constexpr std::uint64_t irqEnable = 1u << 2;
constexpr std::uint64_t running = 1u << 3;
} // namespace ctrl_bits

/**
 * The MMR endpoint of a memory-mapped device (CommInterface, Dma).
 * Host accesses are decoded by one rule: in the window, 8 bytes wide
 * and 8-byte aligned. A decoded access goes to the device's register
 * file. An undecodable one is a driver bug, not a simulator bug: it
 * gets an error response (and is counted) instead of an assert.
 * Every response returns after a fixed latency in the owner's clock.
 */
class MmrPort : public mem::ResponsePort
{
  public:
    using ReadReg = std::function<std::uint64_t(unsigned index)>;
    using WriteReg =
        std::function<void(unsigned index, std::uint64_t value)>;

    MmrPort(ClockedObject &owner, const mem::AddrRange &window,
            unsigned latency_cycles, ReadReg read, WriteReg write);

    /** Its response event holds its address. */
    MmrPort(const MmrPort &) = delete;
    MmrPort &operator=(const MmrPort &) = delete;

    bool recvTimingReq(mem::PacketPtr pkt) override;

    void recvRespRetry() override { sendResponses(); }

    std::uint64_t reads() const { return readCount; }

    std::uint64_t writes() const { return writeCount; }

    /** Accesses answered with an error response. */
    std::uint64_t decodeErrors() const { return decodeErrorCount; }

    std::size_t pendingResponses() const { return responses.size(); }

  private:
    struct Pending
    {
        mem::PacketPtr pkt;
        Tick readyAt;
    };

    void sendResponses();

    ClockedObject &owner;
    const mem::AddrRange window;
    const unsigned latencyCycles;
    ReadReg readReg;
    WriteReg writeReg;
    std::deque<Pending> responses;
    EventFunctionWrapper event;
    std::uint64_t readCount = 0;
    std::uint64_t writeCount = 0;
    std::uint64_t decodeErrorCount = 0;
};

/** The communications interface device. */
class CommInterface : public ClockedObject
{
  public:
    CommInterface(Simulation &sim, std::string name,
                  Tick clock_period,
                  const CommInterfaceConfig &config);

    /** Registers MMR/data-traffic statistics with the simulation. */
    void init() override;

    /** The MMR (pio) endpoint; bind a host-facing port to it. */
    mem::ResponsePort &mmrPort() { return pioPort; }

    /** Data request port @p i (bind to SPM/crossbar/stream). */
    mem::RequestPort &dataPort(unsigned i);

    const CommInterfaceConfig &config() const { return cfg; }

    // -- Engine-facing API ------------------------------------------

    /**
     * Issue the engine's memory operation @p req. Routes by address
     * to the matching data port. Returns false when no port serves
     * the address range (a configuration error surfaces as fatal) —
     * otherwise the request is accepted.
     */
    bool issueMemory(const MemRequest &req);

    /**
     * Handler invoked when a data response arrives, with the
     * request's seq, the memory system's mem::Packet service
     * annotations, and the payload.
     */
    using ResponseHandler = std::function<void(
        std::uint64_t seq, unsigned service_flags,
        const std::uint8_t *data, unsigned size)>;

    void setResponseHandler(ResponseHandler handler)
    { onResponse = std::move(handler); }

    // -- Host/control-facing API ------------------------------------

    /** Invoked when the host sets the start bit. */
    void setStartHandler(std::function<void()> handler)
    { onStart = std::move(handler); }

    /** Interrupt wire toward the interrupt controller. */
    void setIrqCallback(std::function<void()> callback)
    { irq = std::move(callback); }

    /** The ComputeUnit reports completion here. */
    void signalDone();

    /** Direct (untimed) register access for drivers and tests. */
    std::uint64_t readReg(unsigned index) const;

    void writeReg(unsigned index, std::uint64_t value);

    unsigned numRegs() const
    { return static_cast<unsigned>(regs.size()); }

    bool running() const
    { return (regs[0] & ctrl_bits::running) != 0; }

    bool done() const { return (regs[0] & ctrl_bits::done) != 0; }

    std::uint64_t mmrReads() const { return pioPort.reads(); }

    std::uint64_t mmrWrites() const { return pioPort.writes(); }

    /** MMIO accesses answered with an error response. */
    std::uint64_t mmrDecodeErrorCount() const
    { return pioPort.decodeErrors(); }

    void dumpDiagnostics(obs::JsonBuilder &json) const override;

    std::string stuckReason() const override;

  private:
    class DataPort : public mem::RequestPort
    {
      public:
        DataPort(CommInterface &owner, const std::string &label)
            : mem::RequestPort(owner.name() + "." + label),
              owner(owner)
        {}

        bool
        recvTimingResp(mem::PacketPtr pkt) override
        {
            return owner.handleDataResponse(pkt);
        }

        void recvReqRetry() override { owner.retryBlockedRequests(); }

      private:
        CommInterface &owner;
    };

    bool handleDataResponse(mem::PacketPtr pkt);

    void retryBlockedRequests();

    void controlWrite(std::uint64_t value);

    /** Data port index serving @p addr, or -1. */
    int portFor(std::uint64_t addr, unsigned size) const;

    CommInterfaceConfig cfg;
    MmrPort pioPort;
    std::vector<std::unique_ptr<DataPort>> dataPorts;
    std::vector<std::uint64_t> regs;
    std::deque<std::pair<mem::PacketPtr, unsigned>> blockedRequests;

    std::function<void()> onStart;
    std::function<void()> irq;
    ResponseHandler onResponse;

    std::uint64_t dataRequestsIssued = 0;
    std::uint64_t dataRequestsBlocked = 0;
};

} // namespace salam::core

#endif // SALAM_CORE_COMM_INTERFACE_HH
