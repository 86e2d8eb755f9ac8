/** @file Unit tests for SimpleDram and Crossbar. */

#include <gtest/gtest.h>

#include "mem/crossbar.hh"
#include "mem/scratchpad.hh"
#include "mem/simple_dram.hh"
#include "test_harness.hh"

using namespace salam;
using namespace salam::mem;
using salam::test::TestRequester;

namespace
{

DramConfig
dramConfig(std::uint64_t base, std::uint64_t size)
{
    DramConfig cfg;
    cfg.range = AddrRange{base, base + size};
    cfg.accessLatency = 40'000;
    cfg.bytesPerTick = 0.0128;
    return cfg;
}

} // namespace

TEST(SimpleDram, ReadAfterWrite)
{
    Simulation sim;
    auto &dram = sim.create<SimpleDram>("dram", 1000,
                                        dramConfig(0x8000'0000, 1 << 20));
    TestRequester req(sim);
    bindPorts(req, dram.port());

    auto *w = req.write(0, 0x8000'0000, 0xABCD, 4);
    auto *r = req.read(200'000, 0x8000'0000, 4);
    sim.run();

    EXPECT_EQ(w->cmd(), MemCmd::WriteResp);
    std::uint32_t got = 0;
    r->copyData(&got, 4);
    EXPECT_EQ(got, 0xABCDu);
}

/**
 * The backing store is allocated lazily zeroed: bytes nobody wrote
 * read back as zero, through the backdoor and through timing reads,
 * across the whole range.
 */
TEST(SimpleDram, NeverWrittenBytesReadAsZero)
{
    constexpr std::uint64_t size = 64ull << 20;
    Simulation sim;
    auto &dram = sim.create<SimpleDram>("dram", 1000,
                                        dramConfig(0x8000'0000, size));
    TestRequester req(sim);
    bindPorts(req, dram.port());

    auto *w = req.write(0, 0x8000'0000 + size / 2, 0x1234'5678, 4);
    std::vector<PacketPtr> reads;
    for (std::uint64_t off : {std::uint64_t{0}, size / 2 + 4,
                              size / 3, size - 8}) {
        reads.push_back(req.read(100'000, 0x8000'0000 + off, 8));
    }
    sim.run();
    EXPECT_EQ(w->cmd(), MemCmd::WriteResp);
    for (PacketPtr r : reads) {
        std::uint64_t got = ~0ull;
        r->copyData(&got, 8);
        EXPECT_EQ(got, 0u) << std::hex << r->addr();
    }

    std::vector<std::uint8_t> page(4096, 0xff);
    dram.backdoorRead(0x8000'0000 + size - page.size(), page.data(),
                      page.size());
    for (std::uint8_t byte : page)
        ASSERT_EQ(byte, 0u);
    std::uint32_t written = 0;
    dram.backdoorRead(0x8000'0000 + size / 2, &written, 4);
    EXPECT_EQ(written, 0x1234'5678u);
}

TEST(SimpleDram, FlatLatencyForSmallAccess)
{
    Simulation sim;
    auto &dram = sim.create<SimpleDram>("dram", 1000,
                                        dramConfig(0, 1 << 20));
    TestRequester req(sim);
    bindPorts(req, dram.port());
    auto *r = req.read(0, 0, 4);
    sim.run();
    // 4 bytes / 0.0128 B/tick = 312 ticks + 40000 latency.
    Tick arrival = req.arrivalOf(r);
    EXPECT_GE(arrival, 40'000u);
    EXPECT_LE(arrival, 41'000u);
}

TEST(SimpleDram, BandwidthLimitsStreaming)
{
    Simulation sim;
    auto &dram = sim.create<SimpleDram>("dram", 1000,
                                        dramConfig(0, 1 << 20));
    TestRequester req(sim);
    bindPorts(req, dram.port());

    // Issue 16 KiB of reads at once; sustained bandwidth should
    // dominate: 16384 B / 0.0128 B/tick = 1.28M ticks.
    std::vector<PacketPtr> pkts;
    for (int i = 0; i < 16; ++i) {
        pkts.push_back(
            req.read(0, 1024u * static_cast<unsigned>(i), 1024));
    }
    sim.run();
    Tick last = 0;
    for (auto *p : pkts)
        last = std::max(last, req.arrivalOf(p));
    double expected = 16.0 * 1024.0 / 0.0128;
    EXPECT_GT(static_cast<double>(last), 0.9 * expected);
    EXPECT_LT(static_cast<double>(last), 1.2 * expected);
    EXPECT_EQ(dram.bytesTransferred(), 16u * 1024u);
}

TEST(Crossbar, RoutesByAddress)
{
    Simulation sim;
    auto &xbar = sim.create<Crossbar>("xbar", 10);

    ScratchpadConfig cfg_a;
    cfg_a.range = AddrRange{0x1000, 0x2000};
    auto &spm_a = sim.create<Scratchpad>("spm_a", 10, cfg_a);
    ScratchpadConfig cfg_b;
    cfg_b.range = AddrRange{0x2000, 0x3000};
    auto &spm_b = sim.create<Scratchpad>("spm_b", 10, cfg_b);

    xbar.connectDevice(spm_a.port(0), cfg_a.range);
    xbar.connectDevice(spm_b.port(0), cfg_b.range);

    TestRequester req(sim);
    bindPorts(req, xbar.addRequester("tester"));

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
    EXPECT_EQ(xbar.forwardedRequests(), 2u);
}

TEST(Crossbar, MultipleRequestersGetOwnResponses)
{
    Simulation sim;
    auto &xbar = sim.create<Crossbar>("xbar", 10);
    ScratchpadConfig cfg;
    cfg.range = AddrRange{0, 0x1000};
    cfg.numPorts = 1;
    auto &spm = sim.create<Scratchpad>("spm", 10, cfg);
    xbar.connectDevice(spm.port(0), cfg.range);

    TestRequester r0(sim, "r0");
    TestRequester r1(sim, "r1");
    bindPorts(r0, xbar.addRequester("r0"));
    bindPorts(r1, xbar.addRequester("r1"));

    auto *p0 = r0.read(0, 0x10, 4);
    auto *p1 = r1.read(0, 0x20, 4);
    sim.run();
    ASSERT_EQ(r0.responses.size(), 1u);
    ASSERT_EQ(r1.responses.size(), 1u);
    EXPECT_EQ(r0.responses[0].pkt, p0);
    EXPECT_EQ(r1.responses[0].pkt, p1);
}

TEST(Crossbar, AddsForwardingLatency)
{
    Simulation sim;
    InterconnectConfig xcfg;
    xcfg.forwardLatency = 2;
    xcfg.responseLatency = 2;
    auto &xbar = sim.create<Crossbar>("xbar", 10, xcfg);
    ScratchpadConfig cfg;
    cfg.range = AddrRange{0, 0x1000};
    auto &spm = sim.create<Scratchpad>("spm", 10, cfg);
    xbar.connectDevice(spm.port(0), cfg.range);
    TestRequester req(sim);
    bindPorts(req, xbar.addRequester("r"));

    auto *r = req.read(0, 0, 4);
    sim.run();
    // 2 cycles in, 1 cycle SPM, 2 cycles back = 5 cycles @ 10 ticks.
    EXPECT_EQ(req.arrivalOf(r), 50u);
}

TEST(Crossbar, UnroutableAddressPanics)
{
    Simulation sim;
    auto &xbar = sim.create<Crossbar>("xbar", 10);
    ScratchpadConfig cfg;
    cfg.range = AddrRange{0, 0x100};
    auto &spm = sim.create<Scratchpad>("spm", 10, cfg);
    xbar.connectDevice(spm.port(0), cfg.range);
    TestRequester req(sim);
    bindPorts(req, xbar.addRequester("r"));
    EXPECT_DEATH(
        {
            req.read(0, 0x9999, 4);
            sim.run();
        },
        "no route");
}

TEST(Crossbar, OverlappingRangesAreFatal)
{
    Simulation sim;
    auto &xbar = sim.create<Crossbar>("xbar", 10);
    ScratchpadConfig cfg;
    cfg.range = AddrRange{0, 0x100};
    auto &spm1 = sim.create<Scratchpad>("spm1", 10, cfg);
    ScratchpadConfig cfg2;
    cfg2.range = AddrRange{0x80, 0x180};
    auto &spm2 = sim.create<Scratchpad>("spm2", 10, cfg2);
    xbar.connectDevice(spm1.port(0), cfg.range);
    EXPECT_EXIT(xbar.connectDevice(spm2.port(0), cfg2.range),
                ::testing::ExitedWithCode(1), "overlapping");
}

TEST(Crossbar, ThroughputLimitSerializes)
{
    Simulation sim;
    InterconnectConfig xcfg;
    xcfg.requestsPerCycle = 1;
    auto &xbar = sim.create<Crossbar>("xbar", 10, xcfg);
    ScratchpadConfig cfg;
    cfg.range = AddrRange{0, 0x1000};
    cfg.readPorts = 8;
    auto &spm = sim.create<Scratchpad>("spm", 10, cfg);
    xbar.connectDevice(spm.port(0), cfg.range);
    TestRequester req(sim);
    bindPorts(req, xbar.addRequester("r"));

    std::vector<PacketPtr> pkts;
    for (int i = 0; i < 3; ++i)
        pkts.push_back(req.read(0, 4u * static_cast<unsigned>(i), 4));
    sim.run();

    std::vector<Tick> arrivals;
    for (auto *p : pkts)
        arrivals.push_back(req.arrivalOf(p));
    std::sort(arrivals.begin(), arrivals.end());
    // One request forwarded per cycle -> arrivals 1 cycle apart.
    EXPECT_EQ(arrivals[1] - arrivals[0], 10u);
    EXPECT_EQ(arrivals[2] - arrivals[1], 10u);
}
