/**
 * @file
 * End-to-end dynamic-CDFG profiler test: a GEMM run with profiling
 * enabled must yield a critical path whose cause attribution is
 * exact (segments sum to the sink commit cycle), whose hotspot
 * report serializes to valid JSON and folded stacks, and whose
 * memory-cause cycles agree with the engine's stall-lane counters
 * on a memory-bound configuration.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "drive/testbench.hh"
#include "ir/ir_builder.hh"
#include "kernels/machsuite.hh"
#include "obs/critical_path.hh"
#include "obs/json_reader.hh"

using namespace salam;
using namespace salam::core;
using namespace salam::mem;
using salam::obs::JsonValue;
using salam::obs::parseJson;

namespace
{

/**
 * Runs a GEMM through a scratchpad-backed accelerator with
 * profiling on. The scratchpad is deliberately starved (one read
 * port, multi-cycle latency) so the run is memory-bound and the
 * critical path must be dominated by memory causes.
 */
struct ProfiledGemm : drive::Testbench
{
    ir::Module mod{"m"};
    ir::IRBuilder builder{mod};
    obs::CriticalPathReport report;

    explicit ProfiledGemm(unsigned read_ports = 1,
                          unsigned latency = 22)
    {
        sim.enableProfiling();

        auto kernel = kernels::makeGemm(4, 1);
        ScratchpadConfig scfg = kernelSpm(*kernel, {});
        scfg.latencyCycles = latency;
        scfg.readPorts = read_ports;
        scfg.writePorts = 1;
        build(*kernel->build(builder), DeviceConfig{}, scfg);
        EXPECT_EQ(runKernel(*kernel), "");
        sim.finalizeAll();

        report = obs::analyzeCriticalPath(
            *sim.profilers().front().second);
    }
};

TEST(Profiler, GemmCriticalPathAccountsForEveryCycle)
{
    ProfiledGemm t;
    ASSERT_TRUE(t.cu->finished());
    ASSERT_FALSE(t.sim.profilers().empty());
    EXPECT_GT(t.sim.profilers().front().second->size(), 0u);

    const obs::CriticalPathReport &r = t.report;
    EXPECT_FALSE(r.truncated);
    EXPECT_GT(r.pathCycles, 0u);
    EXPECT_GT(r.pathNodes, 0u);

    // The path cannot be longer than the run itself.
    EXPECT_LE(r.pathCycles, t.cu->cycleCount());

    // Exact attribution: every cycle on the path has one cause.
    EXPECT_EQ(r.causeTotal(), r.pathCycles);
    EXPECT_EQ(r.pathCycles, r.sinkCommitCycle);

    // Hotspot instance/cycle counts are consistent.
    std::uint64_t inst_cycles = 0;
    for (const obs::Hotspot &h : r.byInstruction) {
        EXPECT_FALSE(h.label.empty());
        inst_cycles += h.cycles();
    }
    EXPECT_EQ(inst_cycles, r.pathCycles);
}

TEST(Profiler, MemoryBoundGemmMatchesStallLanes)
{
    ProfiledGemm t;
    ASSERT_TRUE(t.cu->finished());

    // Acceptance: with the scratchpad starved (one read port,
    // 22-cycle latency) the profiler's memory-cause critical-path
    // cycles and the engine's memory-involved stall-lane counters
    // tell the same story, within 10%. The simulator is fully
    // deterministic, so this comparison is exactly reproducible.
    const EngineStats &stats = t.cu->stats();
    double lanes =
        static_cast<double>(stats.stallsInvolvingMemory());
    double path_mem = static_cast<double>(t.report.memoryCycles());
    ASSERT_GT(lanes, 0.0);
    ASSERT_GT(path_mem, 0.0);
    EXPECT_LE(std::abs(path_mem - lanes) / lanes, 0.10)
        << "profiler memory cycles " << path_mem
        << " vs stall lanes " << lanes;

    // Memory is a first-class contributor on this configuration,
    // not rounding noise.
    EXPECT_GT(path_mem, 0.1 * static_cast<double>(
                                  t.report.pathCycles));
}

TEST(Profiler, HotspotJsonAndFoldedOutputsAreWellFormed)
{
    ProfiledGemm t;

    std::ostringstream os;
    t.report.writeJson(os);
    JsonValue doc = parseJson(os.str()); // throws if malformed
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("schema").string, "salam-critical-path-1");
    EXPECT_GT(doc.at("path_cycles").number, 0.0);
    EXPECT_GT(doc.at("recorded_nodes").number, 0.0);
    ASSERT_TRUE(doc.at("causes").isObject());
    ASSERT_TRUE(doc.at("by_instruction").isArray());
    ASSERT_FALSE(doc.at("by_instruction").array.empty());

    const JsonValue &top = doc.at("by_instruction").array.front();
    EXPECT_FALSE(top.at("label").string.empty());
    EXPECT_FALSE(top.at("opcode").string.empty());
    EXPECT_GT(top.at("cycles").number, 0.0);
    EXPECT_GT(top.at("instances").number, 0.0);
    ASSERT_TRUE(top.at("causes").isObject());

    // Ranked by cycles, descending.
    double prev = top.at("cycles").number;
    for (const JsonValue &h : doc.at("by_instruction").array) {
        EXPECT_LE(h.at("cycles").number, prev);
        prev = h.at("cycles").number;
    }

    ASSERT_TRUE(doc.at("by_block").isArray());
    EXPECT_FALSE(doc.at("by_block").array.empty());

    // Folded stacks: "func;block;inst <count>" lines, one per
    // (instruction, cause) pair on the path.
    std::ostringstream folded;
    t.report.writeFolded(folded);
    std::istringstream lines(folded.str());
    std::string line;
    unsigned n_lines = 0;
    while (std::getline(lines, line)) {
        ++n_lines;
        EXPECT_NE(line.find(';'), std::string::npos) << line;
        auto space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_GT(std::stoull(line.substr(space + 1)), 0u) << line;
    }
    EXPECT_GT(n_lines, 0u);
}

TEST(Profiler, ProfilingOffRecordsNothing)
{
    Simulation sim;
    EXPECT_FALSE(sim.profilingEnabled());
    EXPECT_TRUE(sim.profilers().empty());
}

} // namespace
