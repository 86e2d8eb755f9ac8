#include "dma.hh"

#include <algorithm>

#include "inject/fault_injector.hh"

namespace salam::core
{

using namespace salam::mem;

Dma::Dma(Simulation &sim, std::string name, Tick clock_period,
         const DmaConfig &config)
    : ClockedObject(sim, std::move(name), clock_period), cfg(config),
      pioPort(*this, config.mmrRange, 1,
              [this](unsigned i) { return readReg(i); },
              [this](unsigned i, std::uint64_t v) { writeReg(i, v); }),
      dmaPort(*this),
      pumpEvent([this] { pump(); }, this->name() + ".pump",
                Event::defaultPri, obs::HostPhase::MemoryModel)
{
    if (cfg.burstBytes == 0 || cfg.maxOutstanding == 0)
        fatal("%s: bad DMA configuration", this->name().c_str());
}

void
Dma::init()
{
    StatRegistry &reg = simulation().stats();
    const std::string n = name();
    reg.addFormula(n + ".dma.bytes_moved", "payload bytes moved",
                   [this] {
                       return static_cast<double>(totalBytes);
                   });
    reg.addFormula(n + ".dma.transfers", "transfers completed",
                   [this] {
                       return static_cast<double>(transfersCompleted);
                   });
    reg.addFormula(n + ".dma.last_transfer_ticks",
                   "duration of the most recent transfer", [this] {
                       return static_cast<double>(lastDuration);
                   });
    sink = simulation().traceSink();
}

std::uint64_t
Dma::readReg(unsigned index) const
{
    SALAM_ASSERT(index < regs.size());
    return regs[index];
}

void
Dma::writeReg(unsigned index, std::uint64_t value)
{
    SALAM_ASSERT(index < regs.size());
    if (index == 0) {
        bool start = (value & ctrl_bits::start) != 0 && !active;
        regs[0] = (value & ctrl_bits::irqEnable) |
            (regs[0] & (ctrl_bits::running | ctrl_bits::done));
        if ((value & ctrl_bits::done) == 0)
            regs[0] &= ~ctrl_bits::done;
        if (start)
            startTransfer(regs[1], regs[2], regs[3]);
    } else {
        regs[index] = value;
    }
}

void
Dma::startTransfer(std::uint64_t src, std::uint64_t dst,
                   std::uint64_t bytes)
{
    if (active)
        fatal("%s: transfer started while busy", name().c_str());
    if (bytes == 0) {
        finishTransfer();
        return;
    }
    active = true;
    SALAM_TRACE(DMA,
                "start transfer src=0x%llx dst=0x%llx len=%llu",
                (unsigned long long)src, (unsigned long long)dst,
                (unsigned long long)bytes);
    regs[1] = src;
    regs[2] = dst;
    regs[3] = bytes;
    regs[0] |= ctrl_bits::running;
    regs[0] &= ~ctrl_bits::done;
    srcCursor = src;
    dstCursor = dst;
    bytesRemainingToRead = bytes;
    bytesRemainingToWrite = bytes;
    outstanding = 0;
    startedAt = curTick();
    if (!pumpEvent.scheduled())
        schedule(pumpEvent, clockEdge());
}

void
Dma::pump()
{
    // Refused write bursts have priority: they carry data already
    // read out of the source.
    while (!blockedWrites.empty()) {
        if (!dmaPort.sendTimingReq(blockedWrites.front()))
            return; // retried via recvReqRetry
        blockedWrites.pop_front();
    }
    if (inject::FaultInjector *fi = simulation().faultInjector();
        fi && active && bytesRemainingToRead > 0) {
        if (Tick stall = fi->dmaStall(name())) {
            if (!pumpEvent.scheduled())
                schedule(pumpEvent, curTick() + stall);
            return;
        }
    }
    while (active && bytesRemainingToRead > 0 &&
           outstanding < cfg.maxOutstanding) {
        unsigned chunk = static_cast<unsigned>(std::min<std::uint64_t>(
            cfg.burstBytes, bytesRemainingToRead));
        auto *pkt = new Packet(MemCmd::ReadReq, srcCursor, chunk);
        // Stash the destination for this chunk in the context.
        pkt->context = reinterpret_cast<void *>(dstCursor);
        // Mark the chunk's place in the logical burst train so a
        // burst-aware interconnect can attribute arbitration time.
        pkt->firstBeat = bytesRemainingToRead == regs[3];
        pkt->lastBeat = chunk == bytesRemainingToRead;
        if (!dmaPort.sendTimingReq(pkt)) {
            delete pkt;
            return; // retried via recvReqRetry
        }
        ++outstanding;
        bytesRemainingToRead -= chunk;
        if (cfg.incrementSrc)
            srcCursor += chunk;
        if (cfg.incrementDst)
            dstCursor += chunk;
    }
}

bool
Dma::handleDataResponse(PacketPtr pkt)
{
    if (pkt->cmd() == MemCmd::ReadResp) {
        // Turn the read data around into a write burst.
        auto dst = reinterpret_cast<std::uint64_t>(pkt->context);
        auto *wr = new Packet(MemCmd::WriteReq, dst, pkt->size());
        wr->setData(pkt->data(), pkt->size());
        wr->firstBeat = pkt->firstBeat;
        wr->lastBeat = pkt->lastBeat;
        if (!blockedWrites.empty() || !dmaPort.sendTimingReq(wr)) {
            // Refused (or behind an earlier refusal): keep ordering
            // and resend from pump() on the next retry.
            wr->serviceFlags |= svcQueued;
            blockedWrites.push_back(wr);
        }
        delete pkt;
        return true;
    }

    SALAM_ASSERT(pkt->cmd() == MemCmd::WriteResp);
    SALAM_ASSERT(outstanding > 0);
    --outstanding;
    bytesRemainingToWrite -= pkt->size();
    totalBytes += pkt->size();
    noteProgress();
    delete pkt;
    if (bytesRemainingToWrite == 0) {
        finishTransfer();
    } else if (bytesRemainingToRead > 0 &&
               !pumpEvent.scheduled()) {
        schedule(pumpEvent, clockEdge(Cycles(1)));
    }
    return true;
}

void
Dma::finishTransfer()
{
    active = false;
    lastDuration = curTick() - startedAt;
    ++transfersCompleted;
    SALAM_TRACE(DMA, "transfer done: %llu bytes in %llu ticks",
                (unsigned long long)regs[3],
                (unsigned long long)lastDuration);
    if (sink) {
        sink->recordSlice(
            startedAt, lastDuration, name(), "dma", "transfer",
            {{"bytes", static_cast<double>(regs[3])}});
    }
    // Surface the transfer to the profilers as external busy time —
    // DMA traffic is not part of any instruction graph but often
    // explains where wall-clock went.
    simulation().noteExternalWait(name(), lastDuration);
    regs[0] &= ~ctrl_bits::running;
    regs[0] |= ctrl_bits::done;
    if ((regs[0] & ctrl_bits::irqEnable) && irq) {
        if (inject::FaultInjector *fi = simulation().faultInjector();
            fi && fi->dropIrq(name())) {
            return; // completion interrupt lost in flight
        }
        irq();
    }
}

void
Dma::dumpDiagnostics(obs::JsonBuilder &json) const
{
    json.field("active", active);
    json.field("outstanding_bursts", std::uint64_t(outstanding));
    json.field("bytes_remaining_to_read", bytesRemainingToRead);
    json.field("bytes_remaining_to_write", bytesRemainingToWrite);
    json.field("blocked_writes",
               static_cast<std::uint64_t>(blockedWrites.size()));
    json.field("src_cursor", srcCursor).field("dst_cursor", dstCursor);
    json.beginArray("regs");
    for (std::uint64_t reg : regs)
        json.value(reg);
    json.endArray();
}

std::string
Dma::stuckReason() const
{
    if (!blockedWrites.empty()) {
        return std::to_string(blockedWrites.size()) +
               " write burst(s) awaiting a downstream retry";
    }
    if (active && outstanding > 0) {
        return std::to_string(outstanding) +
               " read burst(s) in flight with no response";
    }
    if (active) {
        return "transfer active but idle (" +
               std::to_string(bytesRemainingToWrite) +
               " bytes unwritten)";
    }
    return {};
}

} // namespace salam::core
