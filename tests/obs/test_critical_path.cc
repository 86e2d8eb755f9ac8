/**
 * @file
 * Directed critical-path tests over hand-built dynamic CDFGs where
 * the longest path and its cause attribution are known exactly.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/critical_path.hh"
#include "obs/json_reader.hh"
#include "obs/profiler.hh"

using namespace salam::obs;
using salam::obs::JsonValue;
using salam::obs::parseJson;

namespace
{

ProfNode
makeNode(std::uint64_t seq, unsigned static_id, std::uint64_t ready,
         std::uint64_t issue, std::uint64_t commit,
         std::uint64_t parent, ProfCause link, ProfCause wait,
         ProfCause exec)
{
    ProfNode n;
    n.seq = seq;
    n.staticId = static_id;
    n.readyCycle = ready;
    n.issueCycle = issue;
    n.commitCycle = commit;
    n.parentSeq = parent;
    n.linkCause = link;
    n.waitCause = wait;
    n.execCause = exec;
    return n;
}

std::vector<ProfStaticInfo>
twoInstTable()
{
    ProfStaticInfo a;
    a.inst = "%a";
    a.block = "entry";
    a.func = "f";
    a.opcode = "add";
    ProfStaticInfo b;
    b.inst = "%b";
    b.block = "body";
    b.func = "f";
    b.opcode = "load";
    return {a, b};
}

/**
 * Three nodes; C commits early and is off the path. The critical
 * chain is A -> B:
 *
 *   A: ready 0, issue 0, commit 2   (exec 2 cycles, Compute)
 *   B: ready 2 (= A.commit, DataDep link of 0 cycles),
 *      issue 4 (wait 2 cycles, FuContention),
 *      commit 9 (exec 5 cycles, MemResponse)
 *
 * Path length 9 == B.commit; causes: compute 2, fu_contention 2,
 * mem_response 5.
 */
Profiler
diamondProfiler()
{
    Profiler prof;
    prof.setStaticTable(twoInstTable());
    prof.record(makeNode(0, 0, 0, 0, 2, noProfSeq,
                         ProfCause::Start, ProfCause::DataDep,
                         ProfCause::Compute));
    prof.record(makeNode(1, 1, 2, 4, 9, 0, ProfCause::DataDep,
                         ProfCause::FuContention,
                         ProfCause::MemResponse));
    prof.record(makeNode(2, 0, 1, 1, 3, noProfSeq,
                         ProfCause::Start, ProfCause::DataDep,
                         ProfCause::Compute));
    return prof;
}

TEST(CriticalPath, HandComputedPathIsExact)
{
    Profiler prof = diamondProfiler();
    CriticalPathReport r = analyzeCriticalPath(prof);

    EXPECT_EQ(r.pathCycles, 9u);
    EXPECT_EQ(r.sinkCommitCycle, 9u);
    EXPECT_EQ(r.pathNodes, 2u);
    EXPECT_EQ(r.recordedNodes, 3u);
    EXPECT_FALSE(r.truncated);

    EXPECT_EQ(r.causeCycles[unsigned(ProfCause::Compute)], 2u);
    EXPECT_EQ(r.causeCycles[unsigned(ProfCause::FuContention)], 2u);
    EXPECT_EQ(r.causeCycles[unsigned(ProfCause::MemResponse)], 5u);
    EXPECT_EQ(r.causeTotal(), r.pathCycles);
    EXPECT_EQ(r.memoryCycles(), 5u);

    // Hotspots labeled through the static table and ranked.
    ASSERT_EQ(r.byInstruction.size(), 2u);
    EXPECT_EQ(r.byInstruction[0].label, "f:body:%b (load)");
    EXPECT_EQ(r.byInstruction[0].cycles(), 7u);
    EXPECT_EQ(r.byInstruction[0].instances, 1u);
    EXPECT_EQ(r.byInstruction[1].label, "f:entry:%a (add)");
    EXPECT_EQ(r.byInstruction[1].cycles(), 2u);

    ASSERT_EQ(r.byBlock.size(), 2u);
    EXPECT_EQ(r.byBlock[0].label, "f:body");
}

TEST(CriticalPath, SinkTieGoesToYoungerSeq)
{
    Profiler prof;
    // Both commit at 5; seq 1 must be chosen as the sink.
    prof.record(makeNode(0, 0, 0, 0, 5, noProfSeq, ProfCause::Start,
                         ProfCause::DataDep, ProfCause::Compute));
    prof.record(makeNode(1, 1, 1, 2, 5, noProfSeq,
                         ProfCause::Control, ProfCause::MemPort,
                         ProfCause::MemResponse));
    CriticalPathReport r = analyzeCriticalPath(prof);
    EXPECT_EQ(r.pathCycles, 5u);
    // Seq 1's segments: link 1 (Control), wait 1 (MemPort),
    // exec 3 (MemResponse).
    EXPECT_EQ(r.causeCycles[unsigned(ProfCause::Control)], 1u);
    EXPECT_EQ(r.causeCycles[unsigned(ProfCause::MemPort)], 1u);
    EXPECT_EQ(r.causeCycles[unsigned(ProfCause::MemResponse)], 3u);
    EXPECT_EQ(r.causeCycles[unsigned(ProfCause::Compute)], 0u);
}

TEST(CriticalPath, MissingParentTruncatesButStillSums)
{
    Profiler prof;
    // Parent seq 7 was never recorded (dropped by the cap).
    prof.record(makeNode(8, 0, 3, 4, 10, 7, ProfCause::DataDep,
                         ProfCause::FuContention,
                         ProfCause::Compute));
    CriticalPathReport r = analyzeCriticalPath(prof);
    EXPECT_TRUE(r.truncated);
    // exec 6 + wait 1 + the unexplained 3 lead-in cycles charged
    // to the link cause.
    EXPECT_EQ(r.pathCycles, 10u);
    EXPECT_EQ(r.causeTotal(), 10u);
    EXPECT_EQ(r.causeCycles[unsigned(ProfCause::Compute)], 6u);
    EXPECT_EQ(r.causeCycles[unsigned(ProfCause::FuContention)], 1u);
    EXPECT_EQ(r.causeCycles[unsigned(ProfCause::DataDep)], 3u);
}

TEST(CriticalPath, EmptyProfilerYieldsEmptyReport)
{
    Profiler prof;
    CriticalPathReport r = analyzeCriticalPath(prof);
    EXPECT_EQ(r.pathCycles, 0u);
    EXPECT_EQ(r.pathNodes, 0u);
    EXPECT_EQ(r.recordedNodes, 0u);
    EXPECT_FALSE(r.truncated);
    EXPECT_TRUE(r.byInstruction.empty());

    // Serialization of an empty report is still valid JSON.
    std::ostringstream os;
    r.writeJson(os);
    JsonValue doc = parseJson(os.str());
    EXPECT_EQ(doc.at("path_cycles").number, 0.0);
}

TEST(CriticalPath, BoundedRecorderDropsAndCounts)
{
    Profiler prof(2);
    for (std::uint64_t s = 0; s < 5; ++s) {
        prof.record(makeNode(s, 0, s, s, s + 1, noProfSeq,
                             ProfCause::Start, ProfCause::DataDep,
                             ProfCause::Compute));
    }
    EXPECT_EQ(prof.size(), 2u);
    EXPECT_EQ(prof.dropped(), 3u);
    CriticalPathReport r = analyzeCriticalPath(prof);
    EXPECT_EQ(r.recordedNodes, 2u);
    EXPECT_EQ(r.droppedNodes, 3u);
}

TEST(CriticalPath, UnlabeledStaticIdGetsFallbackLabel)
{
    Profiler prof; // no static table attached
    prof.record(makeNode(0, 42, 0, 1, 3, noProfSeq,
                         ProfCause::Start, ProfCause::MemPort,
                         ProfCause::MemResponse));
    CriticalPathReport r = analyzeCriticalPath(prof);
    ASSERT_EQ(r.byInstruction.size(), 1u);
    EXPECT_NE(r.byInstruction[0].label.find("inst#42"),
              std::string::npos);
}

TEST(CriticalPath, ExternalWaitsSurfaceInReport)
{
    Profiler prof = diamondProfiler();
    prof.noteExternalWait("dma0", 1200);
    prof.noteExternalWait("dma0", 300);
    CriticalPathReport r = analyzeCriticalPath(prof);
    ASSERT_EQ(r.externalWaits.count("dma0"), 1u);
    EXPECT_EQ(r.externalWaits.at("dma0"), 1500u);

    std::ostringstream os;
    r.writeJson(os);
    JsonValue doc = parseJson(os.str());
    EXPECT_EQ(doc.at("external_waits").at("dma0").number, 1500.0);
}

} // namespace
