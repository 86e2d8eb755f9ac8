/**
 * @file
 * ComputeUnit: the accelerator datapath SimObject.
 *
 * Owns the statically elaborated CDFG and the dynamic runtime
 * engine, drives the engine on its clock, and bridges it to a
 * CommInterface. The split matches the paper's API: a ComputeUnit
 * models computation; a CommInterface models system communication;
 * either can be replaced independently.
 */

#ifndef SALAM_CORE_COMPUTE_UNIT_HH
#define SALAM_CORE_COMPUTE_UNIT_HH

#include "comm_interface.hh"
#include "runtime_engine.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

namespace salam::core
{

/** The accelerator compute unit. */
class ComputeUnit : public ClockedObject, private EngineClient
{
  public:
    /**
     * @param fn Verified kernel IR; must outlive the unit.
     * @param comm The communications interface this datapath uses.
     */
    ComputeUnit(Simulation &sim, std::string name,
                const ir::Function &fn, const DeviceConfig &config,
                CommInterface &comm);

    /**
     * Registers this unit's statistics (occupancy histograms, stall
     * and issue-class vectors, utilization formulas) and wires the
     * engine's observer — including the simulation trace sink when
     * tracing was enabled before init.
     */
    void init() override;

    /** Begin execution directly (bypassing MMR programming). */
    void start(const std::vector<ir::RuntimeValue> &args);

    /**
     * Begin execution from the argument registers: MMR reg 1..N are
     * bound in order to the kernel's N arguments. Wired to the
     * CommInterface start bit by the constructor.
     */
    void startFromMmrs();

    bool finished() const { return engine.finished(); }

    bool running() const { return engine.running(); }

    /** Kernel execution length in accelerator cycles. */
    std::uint64_t cycleCount() const
    { return engine.stats().totalCycles; }

    const EngineStats &stats() const { return engine.stats(); }

    const StaticCdfg &cdfg() const { return staticCdfg; }

    /**
     * Capture this unit's dynamic trace into @p trace (the
     * trace-reuse fast path's input), stamped with the kernel IR's
     * irHashOf(). Call before start().
     */
    void enableTraceCapture(DynTrace *trace);

    const DeviceConfig &deviceConfig() const { return cfg; }

    void dumpDiagnostics(obs::JsonBuilder &json) const override;

    std::string stuckReason() const override;

  private:
    void tick();

    void requestTick();

    // EngineClient: the engine's upcalls into its owner.
    bool engineIssueMemory(const MemRequest &req) override
    { return comm.issueMemory(req); }

    void engineRequestTick() override { requestTick(); }

    void engineDone() override { comm.signalDone(); }

    DeviceConfig cfg;
    StaticCdfg staticCdfg;
    CommInterface &comm;
    RuntimeEngine engine;
    EventFunctionWrapper tickEvent;
    Tick lastCycleTick = maxTick;
    /** Commit count at the last tick (progress detection). */
    std::uint64_t lastCommitted = 0;
};

} // namespace salam::core

#endif // SALAM_CORE_COMPUTE_UNIT_HH
