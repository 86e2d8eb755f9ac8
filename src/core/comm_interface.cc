#include "comm_interface.hh"

#include "inject/fault_injector.hh"

namespace salam::core
{

using namespace salam::mem;

CommInterface::CommInterface(Simulation &sim, std::string name,
                             Tick clock_period,
                             const CommInterfaceConfig &config)
    : ClockedObject(sim, std::move(name), clock_period), cfg(config),
      pioPort(*this, config.mmrRange, config.mmrLatencyCycles,
              [this](unsigned i) { return readReg(i); },
              [this](unsigned i, std::uint64_t v) { writeReg(i, v); }),
      regs(config.mmrRange.size() / 8, 0)
{
    if (cfg.mmrRange.size() == 0 || cfg.mmrRange.size() % 8 != 0)
        fatal("%s: MMR range must be a multiple of 8 bytes",
              this->name().c_str());
    for (const auto &spec : cfg.dataPorts) {
        dataPorts.push_back(
            std::make_unique<DataPort>(*this, spec.label));
    }
}

void
CommInterface::init()
{
    StatRegistry &reg = simulation().stats();
    const std::string n = name();
    reg.addFormula(n + ".comm.mmr_reads", "MMR reads", [this] {
        return static_cast<double>(mmrReads());
    });
    reg.addFormula(n + ".comm.mmr_writes", "MMR writes", [this] {
        return static_cast<double>(mmrWrites());
    });
    reg.addFormula(n + ".comm.data_requests",
                   "data requests issued for the engine", [this] {
                       return static_cast<double>(dataRequestsIssued);
                   });
    reg.addFormula(
        n + ".comm.data_requests_blocked",
        "data requests initially refused downstream", [this] {
            return static_cast<double>(dataRequestsBlocked);
        });
}

RequestPort &
CommInterface::dataPort(unsigned i)
{
    if (i >= dataPorts.size())
        fatal("%s: no data port %u", name().c_str(), i);
    return *dataPorts[i];
}

int
CommInterface::portFor(std::uint64_t addr, unsigned size) const
{
    for (std::size_t p = 0; p < cfg.dataPorts.size(); ++p) {
        for (const AddrRange &range : cfg.dataPorts[p].ranges) {
            if (range.contains(addr, size))
                return static_cast<int>(p);
        }
    }
    return -1;
}

bool
CommInterface::issueMemory(const MemRequest &req)
{
    int port = portFor(req.addr, req.size);
    if (port < 0)
        fatal("%s: no data port serves address 0x%llx",
              name().c_str(), static_cast<unsigned long long>(req.addr));

    PacketPtr pkt;
    if (req.isLoad) {
        pkt = new Packet(MemCmd::ReadReq, req.addr, req.size);
    } else {
        pkt = new Packet(MemCmd::WriteReq, req.addr, req.size);
        pkt->setData(&req.storeData, req.size);
    }
    pkt->context = this;
    pkt->tag = req.seq;
    ++dataRequestsIssued;
    SALAM_TRACE(Comm, "%s port %d addr=0x%llx size=%u",
                req.isLoad ? "load" : "store", port,
                (unsigned long long)req.addr, req.size);
    if (!dataPorts[static_cast<unsigned>(port)]->sendTimingReq(pkt)) {
        ++dataRequestsBlocked;
        pkt->serviceFlags |= svcQueued;
        blockedRequests.emplace_back(pkt,
                                     static_cast<unsigned>(port));
    }
    return true;
}

void
CommInterface::retryBlockedRequests()
{
    while (!blockedRequests.empty()) {
        auto [pkt, port] = blockedRequests.front();
        if (!dataPorts[port]->sendTimingReq(pkt))
            return;
        blockedRequests.pop_front();
    }
}

bool
CommInterface::handleDataResponse(PacketPtr pkt)
{
    SALAM_ASSERT(pkt->context == this);
    if (onResponse)
        onResponse(pkt->tag, pkt->serviceFlags, pkt->data(),
                   pkt->size());
    delete pkt;
    return true;
}

std::uint64_t
CommInterface::readReg(unsigned index) const
{
    SALAM_ASSERT(index < regs.size());
    return regs[index];
}

void
CommInterface::writeReg(unsigned index, std::uint64_t value)
{
    SALAM_ASSERT(index < regs.size());
    if (index == 0) {
        controlWrite(value);
    } else {
        regs[index] = value;
    }
}

void
CommInterface::controlWrite(std::uint64_t value)
{
    bool started = (value & ctrl_bits::start) != 0 && !running();
    // The start bit is self-clearing; done is cleared by writing a
    // zero (host acknowledge).
    std::uint64_t keep = regs[0] &
        (ctrl_bits::running | ctrl_bits::done);
    regs[0] = (value & ~(ctrl_bits::start | ctrl_bits::running |
                         ctrl_bits::done)) |
        keep;
    if ((value & ctrl_bits::done) == 0)
        regs[0] &= ~ctrl_bits::done;
    if (started) {
        regs[0] |= ctrl_bits::running;
        regs[0] &= ~ctrl_bits::done;
        SALAM_TRACE(Comm, "start bit set; launching kernel");
        if (onStart)
            onStart();
    }
}

void
CommInterface::signalDone()
{
    SALAM_TRACE(Comm, "kernel signalled done");
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
CommInterface::dumpDiagnostics(obs::JsonBuilder &json) const
{
    json.field("running", running()).field("done", done());
    json.field("blocked_data_requests",
               static_cast<std::uint64_t>(blockedRequests.size()));
    json.field("pending_mmr_responses",
               static_cast<std::uint64_t>(pioPort.pendingResponses()));
    json.field("mmr_decode_errors", mmrDecodeErrorCount());
    json.beginArray("regs");
    for (std::uint64_t reg : regs)
        json.value(reg);
    json.endArray();
    json.beginArray("blocked_requests");
    for (const auto &[pkt, port] : blockedRequests) {
        json.beginObject()
            .field("addr", pkt->addr())
            .field("size", std::uint64_t(pkt->size()))
            .field("read", pkt->isRead())
            .field("port", std::uint64_t(port))
            .field("service_flags", std::uint64_t(pkt->serviceFlags))
            .endObject();
    }
    json.endArray();
}

std::string
CommInterface::stuckReason() const
{
    if (!blockedRequests.empty()) {
        return std::to_string(blockedRequests.size()) +
               " data request(s) awaiting a downstream retry";
    }
    return {};
}

MmrPort::MmrPort(ClockedObject &owner, const AddrRange &window,
                 unsigned latency_cycles, ReadReg read, WriteReg write)
    : ResponsePort(owner.name() + ".pio"), owner(owner), window(window),
      latencyCycles(latency_cycles), readReg(std::move(read)),
      writeReg(std::move(write)),
      event([this] { sendResponses(); }, owner.name() + ".mmr",
            Event::memoryResponsePri, obs::HostPhase::MemoryModel)
{
}

bool
MmrPort::recvTimingReq(PacketPtr pkt)
{
    if (!window.contains(pkt->addr(), pkt->size()) ||
        pkt->size() != 8 || (pkt->addr() - window.start) % 8 != 0) {
        warn("%s: undecodable MMR %s addr=0x%llx size=%u "
             "(window [0x%llx, 0x%llx), 8-byte aligned)",
             owner.name().c_str(), pkt->isRead() ? "read" : "write",
             static_cast<unsigned long long>(pkt->addr()),
             pkt->size(),
             static_cast<unsigned long long>(window.start),
             static_cast<unsigned long long>(window.end));
        ++decodeErrorCount;
        pkt->makeErrorResponse();
    } else {
        auto index =
            static_cast<unsigned>((pkt->addr() - window.start) / 8);
        if (pkt->cmd() == MemCmd::ReadReq) {
            std::uint64_t value = readReg(index);
            pkt->setData(&value, 8);
            ++readCount;
        } else {
            std::uint64_t value = 0;
            pkt->copyData(&value, 8);
            writeReg(index, value);
            ++writeCount;
        }
        pkt->makeResponse();
    }
    responses.push_back(
        Pending{pkt, owner.clockEdge(Cycles(latencyCycles))});
    if (!event.scheduled())
        owner.eventQueue().schedule(&event, responses.front().readyAt);
    return true;
}

void
MmrPort::sendResponses()
{
    while (!responses.empty()) {
        Pending &front = responses.front();
        if (front.readyAt > owner.curTick()) {
            if (!event.scheduled())
                owner.eventQueue().schedule(&event, front.readyAt);
            return;
        }
        if (!sendTimingResp(front.pkt))
            return;
        responses.pop_front();
    }
}

} // namespace salam::core
