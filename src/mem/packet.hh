/**
 * @file
 * Packet: the unit of communication on memory ports.
 *
 * Modeled on gem5's Packet: a command, an address/size, a data
 * buffer, and a route stack that interconnect layers push on the way
 * down and pop on the way back up to route responses.
 *
 * Every simulated access allocates one, so a packet costs no heap
 * traffic once warm: word-sized payloads live inline, the route
 * stack is a fixed array, and Packet::operator new/delete recycle
 * packets through a per-thread freelist (packet.cc).
 */

#ifndef SALAM_MEM_PACKET_HH
#define SALAM_MEM_PACKET_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>

#include "sim/logging.hh"

namespace salam::mem
{

/** Packet commands. */
enum class MemCmd
{
    ReadReq,
    WriteReq,
    ReadResp,
    WriteResp,
};

inline bool
isRequest(MemCmd cmd)
{
    return cmd == MemCmd::ReadReq || cmd == MemCmd::WriteReq;
}

inline bool
isRead(MemCmd cmd)
{
    return cmd == MemCmd::ReadReq || cmd == MemCmd::ReadResp;
}

/**
 * Service annotations, set by memory components while a request is
 * serviced and carried back on the response. The original requester
 * (CommInterface) copies them to the issuing DynInst, where the
 * profiler turns them into execution-cause attributions. Flags
 * accumulate — a request can both miss in a cache and queue behind
 * the DRAM bus; the profiler applies a most-specific-wins precedence.
 */
enum ServiceFlags : unsigned
{
    /** Missed in a cache along the way (incl. MSHR coalescing). */
    svcCacheMiss = 1u << 0,

    /** Deferred at least one cycle by an SPM bank conflict. */
    svcBankConflict = 1u << 1,

    /** Waited in a queue (ports exhausted, bus busy, blocked send). */
    svcQueued = 1u << 2,

    /** Serialized behind external (e.g. DMA) traffic. */
    svcDmaWait = 1u << 3,

    /** Waited for a bus data channel occupied by another burst. */
    svcBusArbitration = 1u << 4,

    /** Refused at least once for exhausted outstanding credits. */
    svcCreditStall = 1u << 5,
};

/** A memory request/response in flight. */
class Packet
{
  public:
    /**
     * Payload bytes stored inside the packet. Accelerator loads and
     * stores and MMIO accesses are at most a word; larger payloads
     * (DMA chunks, cache blocks) go to the heap.
     */
    static constexpr unsigned inlineBytes = 8;

    /** Interconnect hops a request can cross (see pushRoute). */
    static constexpr unsigned maxRouteDepth = 8;

    Packet(MemCmd cmd, std::uint64_t addr, unsigned size)
        : _cmd(cmd), _addr(addr), _size(size)
    {
        if (mem::isRead(cmd) || cmd == MemCmd::WriteReq) {
            _dataBytes = size;
            if (size > inlineBytes)
                heapData = std::make_unique<std::uint8_t[]>(size);
        }
    }

    /** Packets come from, and return to, a per-thread freelist. */
    static void *operator new(std::size_t bytes);

    static void operator delete(void *ptr) noexcept;

    MemCmd cmd() const { return _cmd; }

    std::uint64_t addr() const { return _addr; }

    unsigned size() const { return _size; }

    bool isRead() const { return mem::isRead(_cmd); }

    bool isWrite() const { return !mem::isRead(_cmd); }

    bool isRequest() const { return mem::isRequest(_cmd); }

    bool isResponse() const { return !mem::isRequest(_cmd); }

    /** Turn this request into the corresponding response in place. */
    void
    makeResponse()
    {
        SALAM_ASSERT(isRequest());
        _cmd = (_cmd == MemCmd::ReadReq) ? MemCmd::ReadResp
                                         : MemCmd::WriteResp;
    }

    /**
     * Turn this request into an error response: the access could not
     * be decoded (out-of-range or misaligned MMIO). Read payloads are
     * zeroed so a requester that ignores the flag sees deterministic
     * data rather than stale buffer contents.
     */
    void
    makeErrorResponse()
    {
        makeResponse();
        error = true;
        std::memset(data(), 0, _dataBytes);
    }

    std::uint8_t *
    data()
    {
        return heapData ? heapData.get() : inlineData;
    }

    const std::uint8_t *
    data() const
    {
        return heapData ? heapData.get() : inlineData;
    }

    void
    setData(const void *src, unsigned bytes)
    {
        SALAM_ASSERT(bytes <= _dataBytes);
        std::memcpy(data(), src, bytes);
    }

    void
    copyData(void *dst, unsigned bytes) const
    {
        SALAM_ASSERT(bytes <= _dataBytes);
        std::memcpy(dst, data(), bytes);
    }

    /**
     * Record the upstream port a fabric must return the response
     * through (interconnect request path).
     */
    void
    pushRoute(unsigned upstream)
    {
        if (routeDepth == maxRouteDepth)
            panic("packet for 0x%llx crossed more than %u fabrics",
                  static_cast<unsigned long long>(_addr),
                  maxRouteDepth);
        SALAM_ASSERT(upstream <= UINT16_MAX);
        routeStack[routeDepth++] = static_cast<std::uint16_t>(upstream);
    }

    /** Pop the innermost fabric's upstream port (response path). */
    unsigned
    popRoute()
    {
        SALAM_ASSERT(routeDepth > 0);
        return routeStack[--routeDepth];
    }

    bool hasRoute() const { return routeDepth > 0; }

    /**
     * Record the burst shape a finite-width data channel gave this
     * packet: ceil(size / beat width) beats of @p beat_bytes each.
     */
    void
    setBurst(unsigned beats, unsigned beat_bytes)
    {
        burstBeats = beats > 0 ? beats : 1;
        beatBytes = beat_bytes;
    }

    /** Opaque requester context (owned by the original requester). */
    void *context = nullptr;

    /**
     * Requester-assigned tag the response carries back (the
     * accelerator's CommInterface stores the engine instance's seq).
     */
    std::uint64_t tag = 0;

    /**
     * Data-channel beats this packet occupies on a burst-capable
     * interconnect (1 on fabrics that move packets whole).
     */
    unsigned burstBeats = 1;

    /** Beat width that produced burstBeats; 0 = never burstified. */
    unsigned beatBytes = 0;

    /**
     * First/last packet of a logical burst train (e.g. the chunks of
     * one DMA transfer). Single-packet transactions are both.
     */
    bool firstBeat = true;
    bool lastBeat = true;

    /** Monotonic id for debugging/tracing. */
    std::uint64_t id = 0;

    /** ServiceFlags accumulated while this request was serviced. */
    unsigned serviceFlags = 0;

    /** Set on responses that failed to decode (bad address/size). */
    bool error = false;

  private:
    MemCmd _cmd;
    std::uint64_t _addr;
    unsigned _size;
    /** Payload bytes (0 for a response created without data). */
    unsigned _dataBytes = 0;
    unsigned routeDepth = 0;
    std::uint16_t routeStack[maxRouteDepth] = {};
    std::uint8_t inlineData[inlineBytes] = {};
    std::unique_ptr<std::uint8_t[]> heapData;
};

using PacketPtr = Packet *;

/** Inclusive-exclusive address range [start, end). */
struct AddrRange
{
    std::uint64_t start = 0;
    std::uint64_t end = 0;

    bool contains(std::uint64_t addr) const
    { return addr >= start && addr < end; }

    bool
    contains(std::uint64_t addr, unsigned size) const
    {
        return addr >= start && addr + size <= end;
    }

    std::uint64_t size() const { return end - start; }

    bool
    overlaps(const AddrRange &o) const
    {
        return start < o.end && o.start < end;
    }
};

} // namespace salam::mem

#endif // SALAM_MEM_PACKET_HH
