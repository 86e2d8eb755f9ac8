/**
 * @file
 * Cache: a set-associative, write-back, write-allocate timing cache.
 *
 * Used as accelerator-private L1s and as the shared last-level cache
 * between accelerator clusters and DRAM. Misses allocate MSHRs and
 * fetch full blocks from the memory side; dirty victims are written
 * back. LRU replacement.
 */

#ifndef SALAM_MEM_CACHE_HH
#define SALAM_MEM_CACHE_HH

#include <cstdint>
#include <list>
#include <map>
#include <vector>

#include "port.hh"
#include "ring_queue.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

namespace salam::mem
{

/** Cache geometry and timing. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 4096;
    unsigned blockBytes = 32;
    unsigned associativity = 4;
    unsigned hitLatencyCycles = 1;
    unsigned maxMshrs = 8;
};

/** The cache device. */
class Cache : public ClockedObject
{
  public:
    Cache(Simulation &sim, std::string name, Tick clock_period,
          const CacheConfig &config);

    /** Registers hit/miss/MSHR statistics with the simulation. */
    void init() override;

    /** Port facing the requester (accelerator/cluster). */
    ResponsePort &cpuSide() { return cpuPort; }

    /** Port facing memory; bind to a crossbar or DRAM. */
    RequestPort &memSide() { return memPort; }

    const CacheConfig &config() const { return cfg; }

    std::uint64_t hitCount() const { return hits; }

    std::uint64_t missCount() const { return misses; }

    std::uint64_t writebackCount() const { return writebacks; }

    double
    missRate() const
    {
        std::uint64_t total = hits + misses;
        return total == 0 ? 0.0
                          : static_cast<double>(misses) /
                                static_cast<double>(total);
    }

    void dumpDiagnostics(obs::JsonBuilder &json) const override;

    std::string stuckReason() const override;

  private:
    class CpuSidePort : public ResponsePort
    {
      public:
        explicit CpuSidePort(Cache &owner)
            : ResponsePort(owner.name() + ".cpu_side"), owner(owner)
        {}

        bool
        recvTimingReq(PacketPtr pkt) override
        {
            return owner.handleRequest(pkt);
        }

        void recvRespRetry() override { owner.trySendResponses(); }

      private:
        Cache &owner;
    };

    class MemSidePort : public RequestPort
    {
      public:
        explicit MemSidePort(Cache &owner)
            : RequestPort(owner.name() + ".mem_side"), owner(owner)
        {}

        bool
        recvTimingResp(PacketPtr pkt) override
        {
            return owner.handleFill(pkt);
        }

        void recvReqRetry() override { owner.pumpMemSide(); }

      private:
        Cache &owner;
    };

    struct Block
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        std::vector<std::uint8_t> data;
    };

    struct Mshr
    {
        std::uint64_t blockAddr = 0;
        std::vector<PacketPtr> targets;
        bool fillIssued = false;
    };

    struct PendingResponse
    {
        PacketPtr pkt;
        Tick readyAt;
    };

    bool handleRequest(PacketPtr pkt);

    bool handleFill(PacketPtr pkt);

    void pumpMemSide();

    void trySendResponses();

    void respondAfter(PacketPtr pkt, unsigned cycles);

    std::uint64_t blockAddrOf(std::uint64_t addr) const
    { return addr / cfg.blockBytes * cfg.blockBytes; }

    unsigned setOf(std::uint64_t block_addr) const;

    std::uint64_t tagOf(std::uint64_t block_addr) const;

    Block *findBlock(std::uint64_t block_addr);

    /** Pick an LRU victim way in @p set. */
    Block &victimIn(unsigned set);

    /** Satisfy @p pkt from @p block (data copy + dirty marking). */
    void accessBlock(Block &block, PacketPtr pkt);

    CacheConfig cfg;
    unsigned numSets;
    std::vector<std::vector<Block>> sets;
    CpuSidePort cpuPort;
    MemSidePort memPort;
    std::map<std::uint64_t, Mshr> mshrs;
    RingQueue<PacketPtr> memSideQueue;
    RingQueue<PendingResponse> responseQueue;
    EventFunctionWrapper responseEvent;
    std::uint64_t useCounter = 0;

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t mshrFullRejects = 0;

    /** Sampled per request once init() has registered it. */
    Histogram *mshrOccupancy = nullptr;
};

} // namespace salam::mem

#endif // SALAM_MEM_CACHE_HH
