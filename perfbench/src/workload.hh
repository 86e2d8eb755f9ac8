/**
 * @file
 * The benchmark's workload interface and the per-point record the
 * measurement loop aggregates.
 *
 * A workload is a seeded, unbounded sequence of design points. Point
 * i's configuration depends only on (seed, i), so two runs with one
 * seed simulate the same points in the same order and every simulated
 * count repeats exactly.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/host_telemetry.hh"
#include "spans.hh"

namespace salam::obs
{
class ResultStore;
} // namespace salam::obs

namespace perfbench
{

/**
 * Simulated counts of one point. Deterministic for a given
 * configuration: a change that only speeds the simulator up must
 * leave every one of them unchanged.
 */
struct PointCounts
{
    std::uint64_t staticInsts = 0;
    std::uint64_t dynInsts = 0;
    std::uint64_t simCycles = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t stallMemCycles = 0;
    std::uint64_t spmAccesses = 0;
    std::uint64_t events = 0;
    std::uint64_t dramBytes = 0;
    std::uint64_t dmaBytes = 0;
    std::uint64_t fabricRetries = 0;
    std::uint64_t hostOps = 0;
    std::uint64_t arenaHits = 0;
    std::uint64_t arenaMisses = 0;

    void
    add(const PointCounts &o)
    {
        staticInsts += o.staticInsts;
        dynInsts += o.dynInsts;
        simCycles += o.simCycles;
        stallCycles += o.stallCycles;
        stallMemCycles += o.stallMemCycles;
        spmAccesses += o.spmAccesses;
        events += o.events;
        dramBytes += o.dramBytes;
        dmaBytes += o.dmaBytes;
        fabricRetries += o.fabricRetries;
        hostOps += o.hostOps;
        arenaHits += o.arenaHits;
        arenaMisses += o.arenaMisses;
    }
};

/** What one point produced. */
struct PointRecord
{
    /** False on a golden mismatch, unfinished kernel, or replay error. */
    bool ok = true;
    std::string error;
    /** Position in the seeded point sequence. */
    std::size_t index = 0;
    /** Host seconds of the simulate/replay call only. */
    double simulateSec = 0.0;
    /** Simulated ticks covered by that call. */
    std::uint64_t simTicks = 0;
    /** True when the point was re-scheduled from a captured trace. */
    bool replayed = false;
    PointCounts counts;

    void
    fail(const std::string &why)
    {
        if (ok)
            error = why;
        ok = false;
    }
};

/** Per-run context handed to a workload's calls. */
struct RunContext
{
    Tracer &tracer;
    /**
     * Non-null in traced runs: attached to the point's SimContext so
     * the simulator attributes the inside of each run to phases.
     */
    salam::obs::HostTelemetry *telemetry = nullptr;
    /** Corrupt the next golden-checked output (self-test of the check). */
    bool corruptNextOutput = false;
    /** Perturb the next fast-vs-full comparison (self-test). */
    bool perturbNextReplay = false;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Once-per-run preparation before the first point (timed as
     * setup_s). May be called several times; each call rebuilds
     * everything it owns.
     */
    virtual void setup(RunContext &ctx) = 0;

    /** Simulate point @p index of the seeded sequence. */
    virtual PointRecord runPoint(std::size_t index, RunContext &ctx) = 0;

    /** Printable configuration of point @p index. */
    virtual std::string describe(std::size_t index) const = 0;

    /** Points per SweepRunner batch. */
    virtual std::size_t batchSize() const = 0;

    /**
     * Timed runs per point in an untraced run, in passes spread over
     * the run; the fastest counts. As many as fit 100 points into
     * --seconds.
     */
    virtual unsigned passes() const = 0;

    /** Result store the sweep writes to, or null. */
    virtual salam::obs::ResultStore *store() { return nullptr; }

    /** Bytes in the result store so far (0 without a store). */
    virtual std::uint64_t storeBytes() const { return 0; }

    /**
     * After measuring: cross-check a seeded subset of points
     * [0, @p done) (fast against full simulation). Returns the failed
     * points; @p checked receives how many points were compared.
     */
    virtual std::vector<PointRecord>
    verify(std::size_t done, RunContext &ctx, std::size_t &checked)
    {
        (void)done;
        (void)ctx;
        checked = 0;
        return {};
    }

    /** Dynamic-trace bytes held by the setup (0 when none). */
    virtual std::uint64_t traceBytes() const { return 0; }
};

/**
 * Construct a workload by name; null when unknown. @p work_dir holds
 * any files the workload writes (the sweep's result store).
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       const std::string &work_dir);

/**
 * Host seconds of a fixed reference point (bfs-queue at the default
 * configuration), the faster of two runs. The same code on the same
 * input every time, so its time tracks the state of the host, not the
 * point being measured.
 */
double canarySeconds(RunContext &ctx);

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
