/**
 * @file
 * Dma: MMR-programmed burst data mover.
 *
 * One engine covers both of gem5-SALAM's DMA flavours:
 *  - block DMA: both source and destination addresses increment
 *    (memory-to-memory bulk transfer);
 *  - stream DMA: one side is a fixed FIFO address (stream buffer),
 *    turning the engine into a memory-to-stream or stream-to-memory
 *    pump.
 *
 * Programming model (64-bit registers): reg0 = CTRL (same bits as
 * the accelerator control register), reg1 = SRC, reg2 = DST,
 * reg3 = LEN in bytes. Completion sets DONE and optionally raises an
 * interrupt.
 */

#ifndef SALAM_CORE_DMA_HH
#define SALAM_CORE_DMA_HH

#include <deque>
#include <functional>

#include "comm_interface.hh"
#include "mem/port.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

namespace salam::core
{

/** DMA configuration. */
struct DmaConfig
{
    mem::AddrRange mmrRange;
    /** Bytes moved per burst packet. */
    unsigned burstBytes = 64;
    /** Outstanding bursts allowed in flight. */
    unsigned maxOutstanding = 4;
    /** Source address advances per burst (false = stream source). */
    bool incrementSrc = true;
    /** Destination advances per burst (false = stream sink). */
    bool incrementDst = true;
};

/** The DMA device. */
class Dma : public ClockedObject
{
  public:
    Dma(Simulation &sim, std::string name, Tick clock_period,
        const DmaConfig &config);

    /** Registers transfer statistics with the simulation. */
    void init() override;

    /** MMR endpoint for host programming. */
    mem::ResponsePort &mmrPort() { return pioPort; }

    /** Data port; bind toward the interconnect. */
    mem::RequestPort &dataPort() { return dmaPort; }

    const DmaConfig &config() const { return cfg; }

    void setIrqCallback(std::function<void()> callback)
    { irq = std::move(callback); }

    /** Program and start directly (driver backdoor). */
    void startTransfer(std::uint64_t src, std::uint64_t dst,
                       std::uint64_t bytes);

    bool busy() const { return active; }

    bool done() const { return (regs[0] & ctrl_bits::done) != 0; }

    /** Untimed register access for drivers/tests. */
    std::uint64_t readReg(unsigned index) const;

    void writeReg(unsigned index, std::uint64_t value);

    std::uint64_t bytesMoved() const { return totalBytes; }

    /** Ticks from start to completion of the last transfer. */
    Tick lastTransferTicks() const { return lastDuration; }

    /** MMIO accesses answered with an error response. */
    std::uint64_t mmrDecodeErrorCount() const
    { return pioPort.decodeErrors(); }

    void dumpDiagnostics(obs::JsonBuilder &json) const override;

    std::string stuckReason() const override;

  private:
    class DmaPort : public mem::RequestPort
    {
      public:
        explicit DmaPort(Dma &owner)
            : mem::RequestPort(owner.name() + ".data"), owner(owner)
        {}

        bool
        recvTimingResp(mem::PacketPtr pkt) override
        {
            return owner.handleDataResponse(pkt);
        }

        void recvReqRetry() override { owner.pump(); }

      private:
        Dma &owner;
    };

    bool handleDataResponse(mem::PacketPtr pkt);

    /** Issue read bursts while outstanding slots remain. */
    void pump();

    void finishTransfer();

    DmaConfig cfg;
    MmrPort pioPort;
    DmaPort dmaPort;
    std::array<std::uint64_t, 4> regs{};
    /** Write bursts refused downstream, resent from pump(). */
    std::deque<mem::PacketPtr> blockedWrites;
    EventFunctionWrapper pumpEvent;
    std::function<void()> irq;

    bool active = false;
    std::uint64_t srcCursor = 0;
    std::uint64_t dstCursor = 0;
    std::uint64_t bytesRemainingToRead = 0;
    std::uint64_t bytesRemainingToWrite = 0;
    unsigned outstanding = 0;
    Tick startedAt = 0;
    Tick lastDuration = 0;
    std::uint64_t totalBytes = 0;
    std::uint64_t transfersCompleted = 0;
    obs::TraceSink *sink = nullptr;
};

} // namespace salam::core

#endif // SALAM_CORE_DMA_HH
