/**
 * @file
 * DriverCpu: the scripted host processor.
 *
 * Models the ARM host running bare-metal driver code: a sequential
 * program of MMIO register writes/reads, polls, interrupt waits, and
 * host-side delays, issued over a timing port into the system
 * interconnect. Each operation carries a configurable instruction
 * overhead, standing in for the driver's own execution time.
 *
 * The accelerated portion of an application's host code is expressed
 * as one of these programs — set MMRs, kick DMAs, wait for IRQs —
 * exactly the workflow the paper describes for full-system runs.
 */

#ifndef SALAM_SYS_DRIVER_CPU_HH
#define SALAM_SYS_DRIVER_CPU_HH

#include <deque>
#include <functional>
#include <map>
#include <string>

#include "gic.hh"
#include "mem/port.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

namespace salam::sys
{

/** One step of a host driver program. */
struct HostOp
{
    enum class Kind
    {
        WriteReg,   ///< *addr = value
        ReadReg,    ///< read addr (result discarded; timing only)
        Poll,       ///< spin until (*addr & mask) == expect
        WaitIrq,    ///< sleep until interrupt id fires (then ack)
        Delay,      ///< host busy for N cycles
        Mark,       ///< record current tick under a label
        Call,       ///< invoke a host-side callback (untimed)
    };

    Kind kind = Kind::Delay;
    std::uint64_t addr = 0;
    std::uint64_t value = 0;
    std::uint64_t mask = 0;
    unsigned irqId = 0;
    std::uint64_t cycles = 0;
    std::string label;
    std::function<void()> callback;

    static HostOp
    writeReg(std::uint64_t addr, std::uint64_t value)
    {
        HostOp op;
        op.kind = Kind::WriteReg;
        op.addr = addr;
        op.value = value;
        return op;
    }

    static HostOp
    readReg(std::uint64_t addr)
    {
        HostOp op;
        op.kind = Kind::ReadReg;
        op.addr = addr;
        return op;
    }

    static HostOp
    poll(std::uint64_t addr, std::uint64_t mask,
         std::uint64_t expect)
    {
        HostOp op;
        op.kind = Kind::Poll;
        op.addr = addr;
        op.mask = mask;
        op.value = expect;
        return op;
    }

    static HostOp
    waitIrq(unsigned id)
    {
        HostOp op;
        op.kind = Kind::WaitIrq;
        op.irqId = id;
        return op;
    }

    static HostOp
    delay(std::uint64_t cycles)
    {
        HostOp op;
        op.kind = Kind::Delay;
        op.cycles = cycles;
        return op;
    }

    static HostOp
    mark(std::string label)
    {
        HostOp op;
        op.kind = Kind::Mark;
        op.label = std::move(label);
        return op;
    }

    static HostOp
    call(std::function<void()> fn)
    {
        HostOp op;
        op.kind = Kind::Call;
        op.callback = std::move(fn);
        return op;
    }
};

/** The host CPU. */
class DriverCpu : public ClockedObject
{
  public:
    /**
     * @param clock_period Host clock (e.g. 1.2 GHz ARM).
     * @param gic Interrupt controller to wait on (may be null when
     *        the program never waits for interrupts).
     */
    DriverCpu(Simulation &sim, std::string name, Tick clock_period,
              Gic *gic = nullptr);

    /** Port toward the system interconnect. */
    mem::RequestPort &port() { return cpuPort; }

    /** Append a program step. */
    void push(HostOp op) { program.push_back(std::move(op)); }

    /** Append a sequence of steps. */
    void
    push(std::initializer_list<HostOp> ops)
    {
        for (const auto &op : ops)
            program.push_back(op);
    }

    bool finished() const
    { return program.empty() && !busy; }

    /** Tick recorded by a Mark op; 0 when absent. */
    Tick markAt(const std::string &label) const;

    std::uint64_t mmioOps() const { return mmioCount; }

    /** Program steps fully retired (the host "program counter"). */
    std::uint64_t opsCompleted() const { return opsRetired; }

    void dumpDiagnostics(obs::JsonBuilder &json) const override;

    std::string stuckReason() const override;

  private:
    class CpuPort : public mem::RequestPort
    {
      public:
        explicit CpuPort(DriverCpu &owner)
            : mem::RequestPort(owner.name() + ".port"), owner(owner)
        {}

        bool
        recvTimingResp(mem::PacketPtr pkt) override
        {
            return owner.handleResponse(pkt);
        }

        void recvReqRetry() override { owner.handleReqRetry(); }

      private:
        DriverCpu &owner;
    };

    void init() override;

    /** Start the next program op (called from the event loop). */
    void step();

    bool handleResponse(mem::PacketPtr pkt);

    void handleIrq(unsigned id);

    /** The interconnect granted a retry for a refused request. */
    void handleReqRetry();

    /** Issue an MMIO request, stashing it if the port refuses. */
    void sendMmio(mem::PacketPtr pkt);

    /**
     * Count one retired program step as forward progress. Poll
     * retries deliberately do not retire — a host spinning on an MMR
     * that never changes must still trip the watchdog.
     */
    void
    retireOp()
    {
        ++opsRetired;
        noteProgress();
    }

    void scheduleStep(Cycles delay);

    CpuPort cpuPort;
    Gic *gic;
    std::deque<HostOp> program;
    EventFunctionWrapper stepEvent;
    bool busy = false; ///< an op is in flight (MMIO or wait)
    bool waitingIrq = false;
    unsigned waitedIrqId = 0;
    /** Per-MMIO-operation driver overhead in host cycles. */
    static constexpr std::uint64_t opOverhead = 20;
    /** Poll retry interval in host cycles. */
    static constexpr std::uint64_t pollInterval = 50;
    std::map<std::string, Tick> marks;
    std::uint64_t mmioCount = 0;
    std::uint64_t opsRetired = 0;
    /** Request the interconnect refused; resent on recvReqRetry. */
    mem::PacketPtr blockedPkt = nullptr;
};

} // namespace salam::sys

#endif // SALAM_SYS_DRIVER_CPU_HH
