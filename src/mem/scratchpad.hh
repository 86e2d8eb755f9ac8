/**
 * @file
 * Scratchpad: a multi-ported, banked, private or shared SPM.
 *
 * Models gem5-SALAM's scratchpad memories: fixed-latency SRAM with a
 * configurable number of read and write ports per cycle and bank
 * partitioning. Requests beyond the per-cycle port budget (or hitting
 * a busy bank) queue and serialize — the mechanism behind the paper's
 * read/write-port design sweeps (Fig. 14/15).
 */

#ifndef SALAM_MEM_SCRATCHPAD_HH
#define SALAM_MEM_SCRATCHPAD_HH

#include <memory>
#include <string>
#include <vector>

#include "port.hh"
#include "ring_queue.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

namespace salam::mem
{

/** Scratchpad configuration. */
struct ScratchpadConfig
{
    AddrRange range;
    /** SRAM access latency in SPM-clock cycles. */
    unsigned latencyCycles = 1;
    /** Read accesses serviced per cycle. */
    unsigned readPorts = 2;
    /** Write accesses serviced per cycle. */
    unsigned writePorts = 2;
    /** Bank partitions (cyclic interleave on words). */
    unsigned banks = 1;
    /** Interleave granularity in bytes. */
    unsigned wordBytes = 4;
    /** Number of connection endpoints exposed. */
    unsigned numPorts = 1;
};

/**
 * Why a scratchpad with these parameters could never serve a request,
 * or "" when it can: no read or write port, no bank, or a 0-byte
 * interleave word (which would divide by zero). The Scratchpad
 * constructor and the trace replay's SPM model both refuse these.
 */
std::string spmConfigError(unsigned read_ports, unsigned write_ports,
                           unsigned banks, unsigned word_bytes);

/** The scratchpad device. */
class Scratchpad : public ClockedObject
{
  public:
    Scratchpad(Simulation &sim, std::string name, Tick clock_period,
               const ScratchpadConfig &config);

    /** Registers port/bank statistics with the simulation. */
    void init() override;

    const ScratchpadConfig &config() const { return cfg; }

    /** Connection endpoint @p i (bind a RequestPort to it). */
    ResponsePort &port(unsigned i);

    /** Debug/setup access that bypasses timing. */
    void backdoorWrite(std::uint64_t addr, const void *src,
                       std::size_t size);

    void backdoorRead(std::uint64_t addr, void *dst,
                      std::size_t size) const;

    // Usage statistics (inputs to the CactiLite power model).
    std::uint64_t readCount() const { return reads; }

    std::uint64_t writeCount() const { return writes; }

    std::uint64_t busyCycles() const { return activeCycles; }

    /** Service attempts skipped because the target bank was busy. */
    std::uint64_t bankConflictCount() const { return bankConflicts; }

    void dumpDiagnostics(obs::JsonBuilder &json) const override;

    std::string stuckReason() const override;

  private:
    class SpmPort : public ResponsePort
    {
      public:
        SpmPort(Scratchpad &owner, unsigned index)
            : ResponsePort(owner.name() + ".port" +
                           std::to_string(index)),
              owner(owner), index(index)
        {}

        bool
        recvTimingReq(PacketPtr pkt) override
        {
            return owner.handleRequest(pkt, index);
        }

        void recvRespRetry() override { owner.trySendResponses(); }

      private:
        Scratchpad &owner;
        unsigned index;
    };

    /**
     * A request awaiting service. The bank and direction are decoded
     * once on arrival, since a blocked request is rescanned every
     * cycle until it is served.
     */
    struct QueuedAccess
    {
        PacketPtr pkt;
        unsigned sourcePort;
        unsigned bank;
        bool isRead;
    };

    struct PendingResponse
    {
        PacketPtr pkt;
        unsigned sourcePort;
        Tick readyAt;
    };

    bool handleRequest(PacketPtr pkt, unsigned source_port);

    /** Service up to the port budget each SPM clock cycle. */
    void serviceCycle();

    void access(PacketPtr pkt);

    unsigned bankOf(std::uint64_t addr) const;

    void scheduleService();

    void trySendResponses();

    ScratchpadConfig cfg;
    std::vector<std::uint8_t> store;
    std::vector<std::unique_ptr<SpmPort>> ports;
    RingQueue<QueuedAccess> requestQueue;
    RingQueue<PendingResponse> responseQueue;
    /** Banks accessed in the current service pass, one bit each. */
    std::vector<std::uint64_t> busyBanks;
    EventFunctionWrapper serviceEvent;
    EventFunctionWrapper responseEvent;
    bool serviceScheduled = false;
    /** Tick of the most recent service pass (one pass per cycle). */
    Tick lastServiceTick = maxTick;

    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t activeCycles = 0;
    std::uint64_t bankConflicts = 0;
    std::uint64_t portStalls = 0;

    /** Sampled per service cycle once init() has registered it. */
    Histogram *queueOccupancy = nullptr;
    obs::TraceSink *sink = nullptr;
};

} // namespace salam::mem

#endif // SALAM_MEM_SCRATCHPAD_HH
