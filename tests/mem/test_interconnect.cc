/**
 * @file
 * Unit tests for the Interconnect interface, InterconnectConfig
 * elaboration-time validation, and the AXI-like bus: burst timing,
 * round-robin arbitration, credit backpressure, and the wide-bus
 * crossbar-equivalence property the check.sh A/B gate relies on.
 */

#include <gtest/gtest.h>

#include "mem/axi_bus.hh"
#include "mem/crossbar.hh"
#include "mem/interconnect.hh"
#include "mem/scratchpad.hh"
#include "test_harness.hh"

using namespace salam;
using namespace salam::mem;
using salam::test::RetryRequester;
using salam::test::TestRequester;

namespace
{

ScratchpadConfig
spmConfig(std::uint64_t base, std::uint64_t size)
{
    ScratchpadConfig cfg;
    cfg.range = AddrRange{base, base + size};
    return cfg;
}

} // namespace

// --- InterconnectConfig validation -------------------------------

TEST(InterconnectConfig, DefaultIsValid)
{
    InterconnectConfig cfg;
    EXPECT_TRUE(cfg.validate().empty());
    cfg.kind = InterconnectKind::AxiBus;
    EXPECT_TRUE(cfg.validate().empty());
}

TEST(InterconnectConfig, ZeroCreditLimitRejected)
{
    InterconnectConfig cfg;
    cfg.maxOutstandingPerRequester = 0;
    EXPECT_NE(cfg.validate().find("credit"), std::string::npos);
}

TEST(InterconnectConfig, ZeroBeatWidthRejectedForBus)
{
    InterconnectConfig cfg;
    cfg.kind = InterconnectKind::AxiBus;
    cfg.busWidthBytes = 0;
    EXPECT_NE(cfg.validate().find("beat width"), std::string::npos);
    // The crossbar has no data channel, so width 0 is meaningless
    // but harmless there.
    cfg.kind = InterconnectKind::Crossbar;
    EXPECT_TRUE(cfg.validate().empty());
}

TEST(InterconnectConfig, MakeInterconnectFatalsOnBadConfig)
{
    // Misconfiguration must die at elaboration (fabric construction
    // precedes any accelerator/CDFG build in SalamSystem).
    EXPECT_EXIT(
        {
            Simulation sim;
            InterconnectConfig cfg;
            cfg.maxOutstandingPerRequester = 0;
            makeInterconnect(sim, "fab", 10, cfg);
        },
        ::testing::ExitedWithCode(1), "credit");
    EXPECT_EXIT(
        {
            Simulation sim;
            InterconnectConfig cfg;
            cfg.kind = InterconnectKind::AxiBus;
            cfg.busWidthBytes = 0;
            makeInterconnect(sim, "fab", 10, cfg);
        },
        ::testing::ExitedWithCode(1), "beat width");
}

TEST(InterconnectConfig, AxiBusCtorFatalsOnBadConfig)
{
    EXPECT_EXIT(
        {
            Simulation sim;
            InterconnectConfig cfg;
            cfg.kind = InterconnectKind::AxiBus;
            cfg.busWidthBytes = 0;
            sim.create<AxiLikeBus>("bus", 10, cfg);
        },
        ::testing::ExitedWithCode(1), "beat width");
}

TEST(InterconnectConfig, KindNames)
{
    EXPECT_STREQ(interconnectKindName(InterconnectKind::Crossbar),
                 "xbar");
    EXPECT_STREQ(interconnectKindName(InterconnectKind::AxiBus),
                 "axi");
}

// --- Interconnect interface / factory ----------------------------

TEST(Interconnect, FactoryBuildsBothKinds)
{
    Simulation sim;
    InterconnectConfig cfg;
    Interconnect &xbar = makeInterconnect(sim, "x", 10, cfg);
    cfg.kind = InterconnectKind::AxiBus;
    Interconnect &bus = makeInterconnect(sim, "b", 10, cfg);
    EXPECT_NE(dynamic_cast<Crossbar *>(&xbar), nullptr);
    EXPECT_NE(dynamic_cast<AxiLikeBus *>(&bus), nullptr);
}

TEST(Interconnect, RoutesThroughInterfaceForBothKinds)
{
    for (auto kind :
         {InterconnectKind::Crossbar, InterconnectKind::AxiBus}) {
        Simulation sim;
        InterconnectConfig cfg;
        cfg.kind = kind;
        Interconnect &fab = makeInterconnect(sim, "fab", 10, cfg);

        auto cfg_a = spmConfig(0x1000, 0x1000);
        auto cfg_b = spmConfig(0x2000, 0x1000);
        auto &spm_a = sim.create<Scratchpad>("spm_a", 10, cfg_a);
        auto &spm_b = sim.create<Scratchpad>("spm_b", 10, cfg_b);
        fab.connectDevice(spm_a.port(0), cfg_a.range);
        fab.connectDevice(spm_b.port(0), cfg_b.range);
        ASSERT_EQ(fab.routedRanges().size(), 2u);

        TestRequester req(sim);
        bindPorts(req, fab.addRequester("tester"));
        std::uint64_t magic_a = 0xAAAA, magic_b = 0xBBBB;
        spm_a.backdoorWrite(0x1100, &magic_a, 8);
        spm_b.backdoorWrite(0x2100, &magic_b, 8);
        auto *ra = req.read(0, 0x1100, 8);
        auto *rb = req.read(0, 0x2100, 8);
        sim.run();

        std::uint64_t got = 0;
        ra->copyData(&got, 8);
        EXPECT_EQ(got, magic_a);
        rb->copyData(&got, 8);
        EXPECT_EQ(got, magic_b);
    }
}

// --- AxiLikeBus --------------------------------------------------

TEST(AxiLikeBus, OverlappingRangesAreFatal)
{
    Simulation sim;
    InterconnectConfig cfg;
    cfg.kind = InterconnectKind::AxiBus;
    auto &bus = sim.create<AxiLikeBus>("bus", 10, cfg);
    auto cfg1 = spmConfig(0, 0x100);
    auto cfg2 = spmConfig(0x80, 0x100);
    auto &spm1 = sim.create<Scratchpad>("spm1", 10, cfg1);
    auto &spm2 = sim.create<Scratchpad>("spm2", 10, cfg2);
    bus.connectDevice(spm1.port(0), cfg1.range);
    EXPECT_EXIT(bus.connectDevice(spm2.port(0), cfg2.range),
                ::testing::ExitedWithCode(1), "overlapping");
}

TEST(AxiLikeBus, UnroutableAddressPanics)
{
    Simulation sim;
    InterconnectConfig cfg;
    cfg.kind = InterconnectKind::AxiBus;
    auto &bus = sim.create<AxiLikeBus>("bus", 10, cfg);
    auto scfg = spmConfig(0, 0x100);
    auto &spm = sim.create<Scratchpad>("spm", 10, scfg);
    bus.connectDevice(spm.port(0), scfg.range);
    TestRequester req(sim);
    bindPorts(req, bus.addRequester("r"));
    EXPECT_DEATH(
        {
            req.read(0, 0x9999, 4);
            sim.run();
        },
        "no route");
}

/**
 * A bus validates as a bus whatever kind its config names: built
 * directly with the default (crossbar) kind and a 0-byte beat, it
 * must refuse the config at construction, not divide by the width at
 * its first request.
 */
TEST(AxiLikeBus, ZeroBeatWidthIsFatalWhateverTheConfigKind)
{
    InterconnectConfig cfg;
    cfg.busWidthBytes = 0;
    EXPECT_DEATH(
        {
            Simulation sim;
            sim.create<AxiLikeBus>("bus", 10, cfg);
        },
        "beat width");
}

/**
 * Single-beat timing on both fabrics, same scenario: a wide bus
 * with unlimited credits must be cycle-identical to the crossbar —
 * the degenerate-equivalence property check.sh A/Bs on fig10.
 */
TEST(AxiLikeBus, WideBusMatchesCrossbarTiming)
{
    auto run_fabric = [](InterconnectKind kind) {
        Simulation sim;
        InterconnectConfig cfg;
        cfg.kind = kind;
        cfg.busWidthBytes = 64;
        Interconnect &fab = makeInterconnect(sim, "fab", 10, cfg);
        auto scfg = spmConfig(0, 0x1000);
        scfg.readPorts = 2;
        auto &spm = sim.create<Scratchpad>("spm", 10, scfg);
        fab.connectDevice(spm.port(0), scfg.range);
        TestRequester req(sim);
        bindPorts(req, fab.addRequester("r"));
        std::vector<PacketPtr> pkts;
        for (int i = 0; i < 4; ++i) {
            pkts.push_back(
                req.read(0, 8u * static_cast<unsigned>(i), 8));
        }
        sim.run();
        std::vector<Tick> arrivals;
        for (auto *p : pkts)
            arrivals.push_back(req.arrivalOf(p));
        return arrivals;
    };
    EXPECT_EQ(run_fabric(InterconnectKind::Crossbar),
              run_fabric(InterconnectKind::AxiBus));
}

/**
 * Where the equivalence ends: three requesters send in the same
 * tick (r2, r0, r1), and r2 and r0 once more a cycle later, to a
 * one-read-port scratchpad. The crossbar serves them in arrival
 * order; the wide bus serves each tick's requests round-robin from
 * its cursor, which starts at requester 0.
 */
TEST(AxiLikeBus, SameTickRequestsLeaveInRoundRobinOrder)
{
    auto run_fabric = [](InterconnectKind kind) {
        Simulation sim;
        InterconnectConfig cfg;
        cfg.kind = kind;
        cfg.busWidthBytes = 64;
        Interconnect &fab = makeInterconnect(sim, "fab", 10, cfg);
        auto scfg = spmConfig(0, 0x1000);
        scfg.readPorts = 1;
        auto &spm = sim.create<Scratchpad>("spm", 10, scfg);
        fab.connectDevice(spm.port(0), scfg.range);
        TestRequester r0(sim, "r0"), r1(sim, "r1"), r2(sim, "r2");
        bindPorts(r0, fab.addRequester("r0"));
        bindPorts(r1, fab.addRequester("r1"));
        bindPorts(r2, fab.addRequester("r2"));
        std::vector<std::pair<TestRequester *, PacketPtr>> sends;
        sends.emplace_back(&r2, r2.read(0, 0x00, 8));
        sends.emplace_back(&r0, r0.read(0, 0x08, 8));
        sends.emplace_back(&r1, r1.read(0, 0x10, 8));
        sends.emplace_back(&r2, r2.read(10, 0x18, 8));
        sends.emplace_back(&r0, r0.read(10, 0x20, 8));
        sim.run();
        std::vector<Tick> arrivals;
        for (auto &[req, pkt] : sends)
            arrivals.push_back(req->arrivalOf(pkt));
        return arrivals;
    };
    EXPECT_EQ(run_fabric(InterconnectKind::Crossbar),
              (std::vector<Tick>{30, 40, 50, 60, 70}));
    EXPECT_EQ(run_fabric(InterconnectKind::AxiBus),
              (std::vector<Tick>{50, 30, 40, 70, 60}));
}

/**
 * Multi-beat occupancy: back-to-back 16-byte reads on a 4-byte bus
 * are 4 beats each; the second transaction's address phase can
 * start immediately but its data phase waits for the first's 3
 * extra beat cycles on each channel, spreading the arrivals.
 */
TEST(AxiLikeBus, NarrowBusSerializesBursts)
{
    auto gap_for_width = [](unsigned width) {
        Simulation sim;
        InterconnectConfig cfg;
        cfg.kind = InterconnectKind::AxiBus;
        cfg.busWidthBytes = width;
        auto &bus = sim.create<AxiLikeBus>("bus", 10, cfg);
        auto scfg = spmConfig(0, 0x1000);
        scfg.readPorts = 4;
        auto &spm = sim.create<Scratchpad>("spm", 10, scfg);
        bus.connectDevice(spm.port(0), scfg.range);
        TestRequester req(sim);
        bindPorts(req, bus.addRequester("r"));
        auto *r0 = req.read(0, 0x00, 16);
        auto *r1 = req.read(0, 0x10, 16);
        sim.run();
        EXPECT_GT(req.arrivalOf(r0), 0u);
        EXPECT_GT(req.arrivalOf(r1), 0u);
        return req.arrivalOf(r1) - req.arrivalOf(r0);
    };
    Tick wide_gap = gap_for_width(64);   // 1 beat per transaction
    Tick narrow_gap = gap_for_width(4);  // 4 beats per transaction
    // 3 extra beat cycles of channel occupancy per 16B transaction
    // at width 4 (clock period 10 ticks).
    EXPECT_EQ(narrow_gap, wide_gap + 30u);
}

TEST(AxiLikeBus, BurstMetadataStampedOnPackets)
{
    Simulation sim;
    InterconnectConfig cfg;
    cfg.kind = InterconnectKind::AxiBus;
    cfg.busWidthBytes = 4;
    auto &bus = sim.create<AxiLikeBus>("bus", 10, cfg);
    auto scfg = spmConfig(0, 0x1000);
    auto &spm = sim.create<Scratchpad>("spm", 10, scfg);
    bus.connectDevice(spm.port(0), scfg.range);
    TestRequester req(sim);
    bindPorts(req, bus.addRequester("r"));
    auto *r = req.read(0, 0, 16);
    sim.run();
    EXPECT_EQ(r->burstBeats, 4u);
    EXPECT_EQ(r->beatBytes, 4u);
}

/**
 * Credit backpressure: with a 1-transaction credit pool the second
 * simultaneous request is refused, retried after the first response
 * releases its credit, and annotated with the credit-stall service
 * flag for stall attribution.
 */
TEST(AxiLikeBus, CreditLimitBackpressuresRequester)
{
    Simulation sim;
    InterconnectConfig cfg;
    cfg.kind = InterconnectKind::AxiBus;
    cfg.maxOutstandingPerRequester = 1;
    auto &bus = sim.create<AxiLikeBus>("bus", 10, cfg);
    auto scfg = spmConfig(0, 0x1000);
    scfg.readPorts = 4;
    auto &spm = sim.create<Scratchpad>("spm", 10, scfg);
    bus.connectDevice(spm.port(0), scfg.range);
    RetryRequester req(sim);
    bindPorts(req, bus.addRequester("r"));

    auto *r0 = req.read(0, 0x00, 4);
    auto *r1 = req.read(0, 0x10, 4);
    sim.run();

    EXPECT_GE(req.retries, 1);
    EXPECT_GE(bus.creditStallCount(), 1u);
    ASSERT_EQ(req.responses.size(), 2u);
    EXPECT_GT(req.arrivalOf(r1), req.arrivalOf(r0));
    EXPECT_TRUE(r1->serviceFlags & svcCreditStall);
}

TEST(AxiLikeBus, UnlimitedCreditsNeverStall)
{
    Simulation sim;
    InterconnectConfig cfg;
    cfg.kind = InterconnectKind::AxiBus;
    auto &bus = sim.create<AxiLikeBus>("bus", 10, cfg);
    auto scfg = spmConfig(0, 0x1000);
    scfg.readPorts = 8;
    auto &spm = sim.create<Scratchpad>("spm", 10, scfg);
    bus.connectDevice(spm.port(0), scfg.range);
    RetryRequester req(sim);
    bindPorts(req, bus.addRequester("r"));
    for (int i = 0; i < 8; ++i)
        req.read(0, 4u * static_cast<unsigned>(i), 4);
    sim.run();
    EXPECT_EQ(req.retries, 0);
    EXPECT_EQ(bus.creditStallCount(), 0u);
    EXPECT_EQ(req.responses.size(), 8u);
}

/**
 * Round-robin arbitration: two requesters streaming multi-beat
 * reads through a narrow bus must interleave grants — neither
 * starves, and both finish within one transaction of each other.
 */
TEST(AxiLikeBus, RoundRobinArbitrationIsFair)
{
    Simulation sim;
    InterconnectConfig cfg;
    cfg.kind = InterconnectKind::AxiBus;
    cfg.busWidthBytes = 4;
    auto &bus = sim.create<AxiLikeBus>("bus", 10, cfg);
    auto scfg = spmConfig(0, 0x1000);
    scfg.readPorts = 8;
    auto &spm = sim.create<Scratchpad>("spm", 10, scfg);
    bus.connectDevice(spm.port(0), scfg.range);

    TestRequester r0(sim, "r0");
    TestRequester r1(sim, "r1");
    bindPorts(r0, bus.addRequester("r0"));
    bindPorts(r1, bus.addRequester("r1"));

    std::vector<PacketPtr> p0, p1;
    for (int i = 0; i < 4; ++i) {
        p0.push_back(r0.read(0, 16u * static_cast<unsigned>(i), 16));
        p1.push_back(
            r1.read(0, 0x200 + 16u * static_cast<unsigned>(i), 16));
    }
    sim.run();

    ASSERT_EQ(r0.responses.size(), 4u);
    ASSERT_EQ(r1.responses.size(), 4u);
    // Responses route back to their own requester.
    for (auto *p : p0)
        EXPECT_GT(r0.arrivalOf(p), 0u);
    for (auto *p : p1)
        EXPECT_GT(r1.arrivalOf(p), 0u);
    Tick last0 = 0, last1 = 0;
    for (auto *p : p0)
        last0 = std::max(last0, r0.arrivalOf(p));
    for (auto *p : p1)
        last1 = std::max(last1, r1.arrivalOf(p));
    // Fair interleave: completion times within one 4-beat
    // transaction (40 ticks) of each other, not 4 transactions.
    Tick spread = last0 > last1 ? last0 - last1 : last1 - last0;
    EXPECT_LE(spread, 40u);
    EXPECT_GE(bus.arbitrationStallCount(), 1u);
}

/** Contended multi-beat traffic is flagged for stall attribution. */
TEST(AxiLikeBus, ArbitrationStallsAnnotatePackets)
{
    Simulation sim;
    InterconnectConfig cfg;
    cfg.kind = InterconnectKind::AxiBus;
    cfg.busWidthBytes = 4;
    auto &bus = sim.create<AxiLikeBus>("bus", 10, cfg);
    auto scfg = spmConfig(0, 0x1000);
    scfg.readPorts = 8;
    auto &spm = sim.create<Scratchpad>("spm", 10, scfg);
    bus.connectDevice(spm.port(0), scfg.range);
    TestRequester req(sim);
    bindPorts(req, bus.addRequester("r"));
    auto *r0 = req.read(0, 0x00, 16);
    auto *r1 = req.read(0, 0x10, 16);
    sim.run();
    (void)r0;
    // The second transaction waited on the first's beats.
    EXPECT_TRUE(r1->serviceFlags & svcBusArbitration);
}

/** Writes take the AW/W channel and acks return on B. */
TEST(AxiLikeBus, WritesAndReadsUseSeparateChannels)
{
    Simulation sim;
    InterconnectConfig cfg;
    cfg.kind = InterconnectKind::AxiBus;
    cfg.busWidthBytes = 4;
    auto &bus = sim.create<AxiLikeBus>("bus", 10, cfg);
    auto scfg = spmConfig(0, 0x1000);
    scfg.readPorts = 4;
    scfg.writePorts = 4;
    auto &spm = sim.create<Scratchpad>("spm", 10, scfg);
    bus.connectDevice(spm.port(0), scfg.range);
    TestRequester req(sim);
    bindPorts(req, bus.addRequester("r"));

    // A 16-byte write (4 beats on AW/W) and a concurrent 4-byte
    // read: separate address channels, so the read is NOT delayed
    // behind the write burst.
    auto *w = req.write(0, 0x00, 0x1122334455667788ull, 8);
    auto *r = req.read(0, 0x100, 4);
    sim.run();
    EXPECT_EQ(w->cmd(), MemCmd::WriteResp);
    EXPECT_GT(req.arrivalOf(r), 0u);
    // Read arrival equals the uncontended single-beat round trip:
    // 1 cycle in + 1 cycle SPM + 1 cycle back = 3 cycles @ 10.
    EXPECT_EQ(req.arrivalOf(r), 30u);
}
