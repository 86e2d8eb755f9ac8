#include "compute_unit.hh"

#include <sstream>

#include "ir/printer.hh"
#include "ir/verifier.hh"
#include "obs/debug_flags.hh"
#include "obs/run_report.hh"

namespace salam::core
{

namespace
{

/**
 * Elaboration-order guards: the IR must verify and the config must
 * validate BEFORE StaticCdfg elaborates from them — a malformed
 * function or zero queue size would otherwise crash (or silently
 * mis-build) inside elaboration, far from the actual mistake.
 */
const ir::Function &
verifiedOrDie(const ir::Function &fn)
{
    ir::Verifier::verifyOrDie(fn);
    return fn;
}

const DeviceConfig &
validatedOrDie(const DeviceConfig &config, const ir::Function &fn)
{
    std::string error = config.validate();
    if (!error.empty())
        fatal("device config for kernel '%s': %s", fn.name().c_str(),
              error.c_str());
    return config;
}

} // namespace

ComputeUnit::ComputeUnit(Simulation &sim, std::string name,
                         const ir::Function &fn,
                         const DeviceConfig &config,
                         CommInterface &comm)
    : ClockedObject(sim, std::move(name), config.clockPeriod),
      cfg(validatedOrDie(config, fn)),
      staticCdfg(verifiedOrDie(fn), cfg), comm(comm),
      engine(staticCdfg, cfg, *this),
      tickEvent([this] { tick(); }, this->name() + ".tick",
                Event::cpuTickPri, obs::HostPhase::EngineSchedule)
{
    comm.setResponseHandler([this](std::uint64_t seq, unsigned flags,
                                   const std::uint8_t *data,
                                   unsigned size) {
        engine.memoryResponse(seq, flags, data, size);
    });
    comm.setStartHandler([this] { startFromMmrs(); });
}

void
ComputeUnit::init()
{
    StatRegistry &reg = simulation().stats();
    const std::string n = name();

    auto &mem_occ = reg.addHistogram(
        n + ".engine.mem_queue_occupancy",
        "loads+stores in flight, sampled every engine cycle", 0.0,
        static_cast<double>(cfg.readQueueSize + cfg.writeQueueSize),
        8);
    auto &rsv_occ = reg.addHistogram(
        n + ".engine.reservation_occupancy",
        "reservation-queue depth, sampled every engine cycle", 0.0,
        static_cast<double>(cfg.reservationQueueSize), 8);
    auto &stalls = reg.addVector(
        n + ".engine.stall_causes",
        "stall cycles broken down by in-flight class",
        RuntimeEngine::stallLaneNames());
    auto &issues = reg.addVector(
        n + ".engine.issue_classes",
        "dynamic instructions issued, by class",
        RuntimeEngine::issueLaneNames());

    reg.addFormula(
        n + ".engine.total_cycles", "kernel execution cycles",
        [this] {
            const EngineStats &s = engine.stats();
            return static_cast<double>(
                s.totalCycles ? s.totalCycles
                              : engine.currentCycle());
        });
    reg.addFormula(
        n + ".engine.stall_cycles",
        "cycles where nothing new could issue",
        [this] {
            return static_cast<double>(engine.stats().stallCycles);
        });
    reg.addFormula(
        n + ".engine.dynamic_insts",
        "dynamic instructions entered into the window",
        [this] {
            return static_cast<double>(
                engine.stats().dynamicInstructions);
        });
    reg.addFormula(
        n + ".engine.fu_utilization",
        "mean occupied fraction of the limited functional units",
        [this] {
            const EngineStats &s = engine.stats();
            std::uint64_t cycles = s.totalCycles
                ? s.totalCycles : engine.currentCycle();
            std::uint64_t units = 0;
            std::uint64_t busy = 0;
            for (std::size_t t = 0; t < hw::numFuTypes; ++t) {
                if (cfg.fuLimits[t] == 0)
                    continue;
                units += cfg.fuLimits[t];
                busy += s.fuBusyCycleSum[t];
            }
            if (cycles == 0 || units == 0)
                return 0.0;
            return static_cast<double>(busy) /
                   (static_cast<double>(cycles) *
                    static_cast<double>(units));
        });

    EngineObserver obs;
    obs.name = n;
    obs.now = [this] { return curTick(); };
    obs.cyclePeriod = clockPeriod();
    obs.sink = simulation().traceSink();
    obs.memQueueOccupancy = &mem_occ;
    obs.reservationOccupancy = &rsv_occ;
    obs.stallCauses = &stalls;
    obs.issueClasses = &issues;
    if (simulation().profilingEnabled() ||
        salam::obs::flag::Profile.enabled()) {
        salam::obs::Profiler &prof =
            simulation().createProfiler(n);
        // Static-id → label table so hotspot reports can name
        // instructions without keeping IR pointers alive.
        const ir::Function &fn = staticCdfg.function();
        std::vector<salam::obs::ProfStaticInfo> table(
            staticCdfg.numInstructions());
        for (std::size_t b = 0; b < fn.numBlocks(); ++b) {
            const ir::BasicBlock *block = fn.block(b);
            for (std::size_t i = 0; i < block->size(); ++i) {
                const ir::Instruction *inst =
                    block->instruction(i);
                salam::obs::ProfStaticInfo &entry =
                    table[staticCdfg.info(inst).id];
                entry.inst = "%" + inst->name();
                entry.block = block->name();
                entry.func = fn.name();
                entry.opcode = ir::opcodeName(inst->opcode());
            }
        }
        prof.setStaticTable(std::move(table));
        obs.profiler = &prof;
    }
    engine.setObserver(std::move(obs));
}

std::uint64_t
irHashOf(const ir::Function &fn)
{
    std::ostringstream text;
    ir::Printer::print(text, fn);
    return obs::fnv1aHash(text.str());
}

void
ComputeUnit::enableTraceCapture(DynTrace *trace)
{
    if (trace != nullptr)
        trace->irHash = irHashOf(staticCdfg.function());
    engine.setTraceCapture(trace);
}

void
ComputeUnit::start(const std::vector<ir::RuntimeValue> &args)
{
    engine.start(args);
}

void
ComputeUnit::startFromMmrs()
{
    const ir::Function &fn = staticCdfg.function();
    std::vector<ir::RuntimeValue> args;
    for (std::size_t i = 0; i < fn.numArguments(); ++i) {
        ir::RuntimeValue value;
        value.bits = comm.readReg(static_cast<unsigned>(i) + 1);
        args.push_back(value);
    }
    start(args);
}

void
ComputeUnit::requestTick()
{
    Tick next = clockEdge();
    if (lastCycleTick != maxTick && next <= lastCycleTick)
        next = lastCycleTick + clockPeriod();
    if (!tickEvent.scheduled()) {
        schedule(tickEvent, next);
    } else if (tickEvent.when() > next) {
        reschedule(tickEvent, next);
    }
}

void
ComputeUnit::tick()
{
    lastCycleTick = curTick();
    engine.cycle();
    // Only instruction retirement counts as forward progress: a unit
    // that keeps ticking without committing anything is livelocked
    // and must still trip the watchdog.
    std::uint64_t committed = engine.stats().committedInstructions;
    if (committed != lastCommitted) {
        lastCommitted = committed;
        noteProgress();
    }
}

void
ComputeUnit::dumpDiagnostics(obs::JsonBuilder &json) const
{
    engine.dumpState(json);
}

std::string
ComputeUnit::stuckReason() const
{
    if (!engine.running())
        return {};
    const unsigned loads = engine.readsInFlight();
    const unsigned stores = engine.writesInFlight();
    if (loads + stores > 0) {
        return "kernel running with " + std::to_string(loads) +
               " load(s) and " + std::to_string(stores) +
               " store(s) in flight that never received responses";
    }
    return "kernel running but no instruction can issue or commit";
}

} // namespace salam::core
