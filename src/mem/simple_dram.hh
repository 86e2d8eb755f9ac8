/**
 * @file
 * SimpleDram: a bandwidth- and latency-limited main memory.
 *
 * Models the system DRAM behind the global crossbar: a fixed access
 * latency (row activation + controller) plus a service rate of
 * bytesPerCycle, so large DMA bursts see realistic streaming
 * throughput while random accesses pay the flat latency.
 */

#ifndef SALAM_MEM_SIMPLE_DRAM_HH
#define SALAM_MEM_SIMPLE_DRAM_HH

#include <cstdlib>
#include <memory>

#include "port.hh"
#include "ring_queue.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

namespace salam::mem
{

/** DRAM configuration. */
struct DramConfig
{
    AddrRange range;
    /** Flat access latency in ticks (controller + device). */
    Tick accessLatency = 40'000; // 40 ns
    /** Sustained bandwidth in bytes per tick. */
    double bytesPerTick = 0.0128; // 12.8 GB/s
};

/** The DRAM device: one response port, FCFS service. */
class SimpleDram : public ClockedObject
{
  public:
    SimpleDram(Simulation &sim, std::string name, Tick clock_period,
               const DramConfig &config);

    ResponsePort &port() { return responsePort; }

    const DramConfig &config() const { return cfg; }

    void backdoorWrite(std::uint64_t addr, const void *src,
                       std::size_t size);

    void backdoorRead(std::uint64_t addr, void *dst,
                      std::size_t size) const;

    std::uint64_t readCount() const { return reads; }

    std::uint64_t writeCount() const { return writes; }

    std::uint64_t bytesTransferred() const { return bytes; }

    void dumpDiagnostics(obs::JsonBuilder &json) const override;

    std::string stuckReason() const override;

  private:
    class DramPort : public ResponsePort
    {
      public:
        explicit DramPort(SimpleDram &owner)
            : ResponsePort(owner.name() + ".port"), owner(owner)
        {}

        bool
        recvTimingReq(PacketPtr pkt) override
        {
            return owner.handleRequest(pkt);
        }

        void recvRespRetry() override { owner.trySendResponses(); }

      private:
        SimpleDram &owner;
    };

    struct Pending
    {
        PacketPtr pkt;
        Tick readyAt;
    };

    bool handleRequest(PacketPtr pkt);

    void access(PacketPtr pkt);

    void trySendResponses();

    /** Releases calloc()ed storage. */
    struct FreeDeleter
    {
        void operator()(std::uint8_t *p) const { std::free(p); }
    };

    DramConfig cfg;
    /**
     * Backing bytes from calloc(): pages the run never touches stay
     * unmapped zero pages instead of being zero-filled up front.
     */
    std::unique_ptr<std::uint8_t, FreeDeleter> store;
    DramPort responsePort;
    RingQueue<Pending> responseQueue;
    EventFunctionWrapper responseEvent;
    /** Earliest tick the data bus is free (bandwidth model). */
    Tick busFreeAt = 0;
    /** Whether the last bus occupant carried no requester context
     *  (DMA/host traffic) — classifies the next waiter's delay. */
    bool lastOccupantExternal = false;

    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t bytes = 0;
};

} // namespace salam::mem

#endif // SALAM_MEM_SIMPLE_DRAM_HH
