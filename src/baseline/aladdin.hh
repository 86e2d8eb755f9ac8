/**
 * @file
 * AladdinSimulator: the trace-based pre-RTL baseline.
 *
 * Reimplements the Aladdin approach the paper compares against:
 *
 *  1. a dynamic LLVM-IR trace is generated by instrumented
 *     functional execution and written to disk;
 *  2. the trace is loaded and a dynamic data-dependence graph
 *     (DDDG) is built from register names and memory addresses;
 *  3. nodes are scheduled as early as dependences and the memory
 *     system allow; the datapath is then *reverse-engineered* from
 *     the schedule — the number of functional units of each type is
 *     the peak per-cycle concurrency observed.
 *
 * Step 3 is exactly the property Tables I and II expose: datasets
 * that skip a guarded operation leave it out of the datapath, and
 * memory-system parameters (cache size, SPM ports) change data
 * availability and therefore the synthesized FU counts.
 */

#ifndef SALAM_BASELINE_ALADDIN_HH
#define SALAM_BASELINE_ALADDIN_HH

#include <array>
#include <string>

#include "hw/hardware_profile.hh"
#include "trace.hh"

namespace salam::baseline
{

/** Memory system attached to the baseline accelerator. */
struct AladdinMemoryConfig
{
    enum class Kind
    {
        Scratchpad,
        Cache,
    };

    Kind kind = Kind::Scratchpad;

    // Scratchpad parameters.
    unsigned spmReadPorts = 2;
    unsigned spmWritePorts = 2;
    unsigned spmLatency = 1;

    // Cache parameters.
    std::uint64_t cacheSizeBytes = 4096;
    unsigned cacheBlockBytes = 32;
    unsigned cacheAssociativity = 4;
    unsigned cacheHitLatency = 2;
    unsigned cacheMissLatency = 40;
    unsigned cachePorts = 2;
};

/** Baseline configuration. */
struct AladdinConfig
{
    AladdinMemoryConfig memory;
    hw::HardwareProfile profile = hw::HardwareProfile::defaultProfile();
};

/** Simulation result. */
struct AladdinResult
{
    std::uint64_t cycles = 0;
    /** Reverse-engineered datapath: FU count per type. */
    std::array<unsigned, hw::numFuTypes> fuCounts{};
    std::uint64_t dynamicNodes = 0;
    std::uint64_t traceBytes = 0;
    /** Wall-clock seconds for trace generation (preprocessing). */
    double traceGenSeconds = 0.0;
    /** Wall-clock seconds for load + DDDG + schedule. */
    double simulateSeconds = 0.0;
    /** Cache statistics (Kind::Cache only). */
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
};

/** The baseline simulator facade. */
class AladdinSimulator
{
  public:
    explicit AladdinSimulator(const AladdinConfig &config = {})
        : cfg(config)
    {}

    /**
     * Run the full Aladdin flow for @p fn.
     * @param trace_path Where the intermediate trace file lives.
     */
    AladdinResult run(const ir::Function &fn,
                      const std::vector<ir::RuntimeValue> &args,
                      ir::MemoryAccessor &memory,
                      const std::string &trace_path) const;

    /**
     * Run the full Aladdin flow with a trace file of its own in the
     * system temp directory, removed once the trace is parsed, so
     * concurrent runs never share one.
     */
    AladdinResult run(const ir::Function &fn,
                      const std::vector<ir::RuntimeValue> &args,
                      ir::MemoryAccessor &memory) const;

    /** Schedule an already-parsed trace (steps 2-3 only). */
    AladdinResult
    schedule(const std::vector<TraceEntry> &trace) const;

  private:
    AladdinConfig cfg;
};

} // namespace salam::baseline

#endif // SALAM_BASELINE_ALADDIN_HH
