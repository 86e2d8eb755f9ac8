/** @file Unit tests for the scratchpad model. */

#include <gtest/gtest.h>

#include "mem/scratchpad.hh"
#include "test_harness.hh"

using namespace salam;
using namespace salam::mem;
using salam::test::TestRequester;

namespace
{

ScratchpadConfig
spmConfig(std::uint64_t base, std::uint64_t size)
{
    ScratchpadConfig cfg;
    cfg.range = AddrRange{base, base + size};
    cfg.latencyCycles = 1;
    cfg.readPorts = 2;
    cfg.writePorts = 2;
    cfg.banks = 1;
    cfg.numPorts = 1;
    return cfg;
}

} // namespace

TEST(Scratchpad, WriteThenReadReturnsData)
{
    Simulation sim;
    auto &spm = sim.create<Scratchpad>("spm", 10,
                                       spmConfig(0x1000, 4096));
    TestRequester req(sim);
    bindPorts(req, spm.port(0));

    auto *w = req.write(0, 0x1000, 0xDEADBEEF, 4);
    auto *r = req.read(50, 0x1000, 4);
    sim.run();

    ASSERT_EQ(req.responses.size(), 2u);
    EXPECT_EQ(w->cmd(), MemCmd::WriteResp);
    EXPECT_EQ(r->cmd(), MemCmd::ReadResp);
    std::uint32_t value = 0;
    r->copyData(&value, 4);
    EXPECT_EQ(value, 0xDEADBEEFu);
    EXPECT_EQ(spm.readCount(), 1u);
    EXPECT_EQ(spm.writeCount(), 1u);
}

TEST(Scratchpad, BackdoorMatchesTimingPath)
{
    Simulation sim;
    auto &spm = sim.create<Scratchpad>("spm", 10,
                                       spmConfig(0, 1024));
    std::uint64_t magic = 0x0123456789ABCDEFull;
    spm.backdoorWrite(0x10, &magic, 8);

    TestRequester req(sim);
    bindPorts(req, spm.port(0));
    auto *r = req.read(0, 0x10, 8);
    sim.run();

    std::uint64_t got = 0;
    r->copyData(&got, 8);
    EXPECT_EQ(got, magic);
}

TEST(Scratchpad, LatencyIsRespected)
{
    Simulation sim;
    auto cfg = spmConfig(0, 1024);
    cfg.latencyCycles = 3;
    auto &spm = sim.create<Scratchpad>("spm", 10, cfg);
    TestRequester req(sim);
    bindPorts(req, spm.port(0));

    auto *r = req.read(0, 0, 4);
    sim.run();
    // Serviced at cycle 0's edge, response 3 cycles later.
    EXPECT_EQ(req.arrivalOf(r), 30u);
}

TEST(Scratchpad, PortLimitSerializesBursts)
{
    // 1 read port: 4 simultaneous reads take 4 cycles to issue.
    Simulation sim;
    auto cfg = spmConfig(0, 1024);
    cfg.readPorts = 1;
    auto &spm = sim.create<Scratchpad>("spm1", 10, cfg);
    TestRequester req(sim);
    bindPorts(req, spm.port(0));

    std::vector<PacketPtr> pkts;
    for (int i = 0; i < 4; ++i)
        pkts.push_back(req.read(0, 4u * static_cast<unsigned>(i), 4));
    sim.run();

    std::vector<Tick> arrivals;
    for (auto *p : pkts)
        arrivals.push_back(req.arrivalOf(p));
    EXPECT_EQ(arrivals, (std::vector<Tick>{10, 20, 30, 40}));

    // 4 read ports: all four arrive together.
    Simulation sim2;
    auto cfg4 = spmConfig(0, 1024);
    cfg4.readPorts = 4;
    auto &spm4 = sim2.create<Scratchpad>("spm4", 10, cfg4);
    TestRequester req4(sim2);
    bindPorts(req4, spm4.port(0));
    std::vector<PacketPtr> pkts4;
    for (int i = 0; i < 4; ++i)
        pkts4.push_back(
            req4.read(0, 4u * static_cast<unsigned>(i), 4));
    sim2.run();
    for (auto *p : pkts4)
        EXPECT_EQ(req4.arrivalOf(p), 10u);
    (void)spm;
    (void)spm4;
}

TEST(Scratchpad, ReadAndWritePortsAreIndependent)
{
    Simulation sim;
    auto cfg = spmConfig(0, 1024);
    cfg.readPorts = 1;
    cfg.writePorts = 1;
    auto &spm = sim.create<Scratchpad>("spm", 10, cfg);
    TestRequester req(sim);
    bindPorts(req, spm.port(0));

    // One read and one write in the same cycle both complete at +1.
    auto *r = req.read(0, 0, 4);
    auto *w = req.write(0, 64, 7, 4);
    sim.run();
    EXPECT_EQ(req.arrivalOf(r), 10u);
    EXPECT_EQ(req.arrivalOf(w), 10u);
    (void)spm;
}

TEST(Scratchpad, BankConflictsSerialize)
{
    // 2 banks, word interleaved; two reads to the same bank
    // serialize, two reads to different banks proceed together.
    Simulation sim;
    auto cfg = spmConfig(0, 1024);
    cfg.readPorts = 4;
    cfg.banks = 2;
    cfg.wordBytes = 4;
    auto &spm = sim.create<Scratchpad>("spm", 10, cfg);
    TestRequester req(sim);
    bindPorts(req, spm.port(0));

    auto *a = req.read(0, 0, 4);  // bank 0
    auto *b = req.read(0, 8, 4);  // bank 0 (word 2)
    auto *c = req.read(0, 4, 4);  // bank 1
    sim.run();
    EXPECT_EQ(req.arrivalOf(a), 10u);
    EXPECT_EQ(req.arrivalOf(c), 10u);
    EXPECT_EQ(req.arrivalOf(b), 20u);
    (void)spm;
}

TEST(Scratchpad, MultiplePortsDeliverToRightRequester)
{
    Simulation sim;
    auto cfg = spmConfig(0, 1024);
    cfg.numPorts = 2;
    auto &spm = sim.create<Scratchpad>("spm", 10, cfg);
    TestRequester req0(sim, "r0");
    TestRequester req1(sim, "r1");
    bindPorts(req0, spm.port(0));
    bindPorts(req1, spm.port(1));

    auto *a = req0.read(0, 0, 4);
    auto *b = req1.read(0, 4, 4);
    sim.run();
    EXPECT_EQ(req0.responses.size(), 1u);
    EXPECT_EQ(req1.responses.size(), 1u);
    EXPECT_EQ(req0.responses[0].pkt, a);
    EXPECT_EQ(req1.responses[0].pkt, b);
}

TEST(Scratchpad, OutOfRangeAccessPanics)
{
    Simulation sim;
    auto &spm = sim.create<Scratchpad>("spm", 10,
                                       spmConfig(0x1000, 64));
    TestRequester req(sim);
    bindPorts(req, spm.port(0));
    req.read(0, 0x2000, 4);
    EXPECT_DEATH(sim.run(), "assertion");
}

/**
 * Configs no scratchpad can serve are refused at construction, not
 * at the first access (0 banks or 0-byte words divide by zero; 0
 * ports never service a request). TraceReplayer::run refuses the
 * same ones.
 */
TEST(Scratchpad, UnservableConfigsAreFatal)
{
    struct Bad
    {
        const char *field;
        void (*spoil)(ScratchpadConfig &);
        const char *message;
    };
    const Bad bad[] = {
        {"banks", [](ScratchpadConfig &c) { c.banks = 0; },
         "at least one bank"},
        {"wordBytes", [](ScratchpadConfig &c) { c.wordBytes = 0; },
         "at least one byte"},
        {"readPorts", [](ScratchpadConfig &c) { c.readPorts = 0; },
         "at least one port"},
        {"writePorts", [](ScratchpadConfig &c) { c.writePorts = 0; },
         "at least one port"},
    };
    for (const Bad &b : bad) {
        SCOPED_TRACE(b.field);
        auto cfg = spmConfig(0, 1024);
        b.spoil(cfg);
        Simulation sim;
        EXPECT_EXIT(sim.create<Scratchpad>("spm", 10, cfg),
                    ::testing::ExitedWithCode(1), b.message);
    }
}
