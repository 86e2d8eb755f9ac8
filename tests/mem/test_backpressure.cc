/**
 * @file
 * Crossbar backpressure edge cases: requestsPerCycle throttling
 * under simultaneous requesters, route-stack response routing with
 * interleaved outstanding requests (through one fabric and through
 * two nested ones), retry-after-refusal from a saturated downstream
 * device, and per-requester credit limits.
 */

#include <gtest/gtest.h>

#include "mem/axi_bus.hh"
#include "mem/crossbar.hh"
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

/**
 * A downstream device that refuses every request while stalled,
 * then services reads with a fixed latency once released. Models a
 * saturated device exercising the crossbar's downstream-retry path
 * (Crossbar::DownstreamPort::recvReqRetry -> pumpRequests).
 */
class StallableDevice
{
  public:
    StallableDevice(Simulation &sim, Tick latency)
        : sim(sim), latency(latency), port(*this)
    {}

    class Port : public ResponsePort
    {
      public:
        explicit Port(StallableDevice &owner)
            : ResponsePort("stallable"), owner(owner)
        {}

        bool
        recvTimingReq(PacketPtr pkt) override
        {
            if (owner.stalled) {
                ++owner.refused;
                return false;
            }
            ++owner.accepted;
            owner.sim.eventQueue().schedule(
                owner.sim.curTick() + owner.latency, [this, pkt] {
                    pkt->makeResponse();
                    bool ok = sendTimingResp(pkt);
                    SALAM_ASSERT(ok);
                });
            return true;
        }

        void recvRespRetry() override {}

      private:
        StallableDevice &owner;
    };

    /** Accept requests again and wake the refused upstream. */
    void
    release()
    {
        stalled = false;
        port.sendReqRetry();
    }

    Simulation &sim;
    Tick latency;
    Port port;
    bool stalled = true;
    int refused = 0;
    int accepted = 0;
};

} // namespace

/**
 * requestsPerCycle throttling with several requesters hitting the
 * crossbar in the same cycle: exactly one grant per cycle, spread
 * round-robin, and every request eventually forwarded.
 */
TEST(CrossbarBackpressure, ThroughputLimitUnderSimultaneousLoad)
{
    Simulation sim;
    InterconnectConfig xcfg;
    xcfg.requestsPerCycle = 1;
    auto &xbar = sim.create<Crossbar>("xbar", 10, xcfg);
    auto scfg = spmConfig(0, 0x1000);
    scfg.readPorts = 8;
    auto &spm = sim.create<Scratchpad>("spm", 10, scfg);
    xbar.connectDevice(spm.port(0), scfg.range);

    TestRequester r0(sim, "r0");
    TestRequester r1(sim, "r1");
    TestRequester r2(sim, "r2");
    bindPorts(r0, xbar.addRequester("r0"));
    bindPorts(r1, xbar.addRequester("r1"));
    bindPorts(r2, xbar.addRequester("r2"));

    auto *p0 = r0.read(0, 0x00, 4);
    auto *p1 = r1.read(0, 0x10, 4);
    auto *p2 = r2.read(0, 0x20, 4);
    sim.run();

    std::vector<Tick> arrivals = {r0.arrivalOf(p0), r1.arrivalOf(p1),
                                  r2.arrivalOf(p2)};
    for (Tick t : arrivals)
        EXPECT_GT(t, 0u);
    std::sort(arrivals.begin(), arrivals.end());
    // One grant per cycle: the three round trips complete exactly
    // one clock apart.
    EXPECT_EQ(arrivals[1] - arrivals[0], 10u);
    EXPECT_EQ(arrivals[2] - arrivals[1], 10u);
    EXPECT_EQ(xbar.forwardedRequests(), 3u);
}

/**
 * Route-stack response routing with interleaved outstanding
 * requests: two requesters each keep two reads in flight to two
 * devices with very different latencies, so responses return out of
 * request order and interleaved across requesters. Every response
 * must land at its own requester with its own packet.
 */
TEST(CrossbarBackpressure, SenderStateRoutesInterleavedResponses)
{
    Simulation sim;
    auto &xbar = sim.create<Crossbar>("xbar", 10);
    auto fast_cfg = spmConfig(0x1000, 0x1000);
    fast_cfg.latencyCycles = 1;
    fast_cfg.readPorts = 4;
    auto slow_cfg = spmConfig(0x2000, 0x1000);
    slow_cfg.latencyCycles = 20;
    slow_cfg.readPorts = 4;
    auto &fast = sim.create<Scratchpad>("fast", 10, fast_cfg);
    auto &slow = sim.create<Scratchpad>("slow", 10, slow_cfg);
    xbar.connectDevice(fast.port(0), fast_cfg.range);
    xbar.connectDevice(slow.port(0), slow_cfg.range);

    TestRequester r0(sim, "r0");
    TestRequester r1(sim, "r1");
    bindPorts(r0, xbar.addRequester("r0"));
    bindPorts(r1, xbar.addRequester("r1"));

    // Each requester: one slow read issued FIRST, one fast read
    // second. The fast response overtakes the slow one.
    auto *slow0 = r0.read(0, 0x2000, 4);
    auto *fast0 = r0.read(0, 0x1000, 4);
    auto *slow1 = r1.read(0, 0x2010, 4);
    auto *fast1 = r1.read(0, 0x1010, 4);
    sim.run();

    ASSERT_EQ(r0.responses.size(), 2u);
    ASSERT_EQ(r1.responses.size(), 2u);
    // Out-of-order completion...
    EXPECT_LT(r0.arrivalOf(fast0), r0.arrivalOf(slow0));
    EXPECT_LT(r1.arrivalOf(fast1), r1.arrivalOf(slow1));
    // ...with every packet at its own requester (no cross-delivery:
    // arrivalOf is 0 for a packet the port never received).
    EXPECT_EQ(r0.arrivalOf(fast1), 0u);
    EXPECT_EQ(r0.arrivalOf(slow1), 0u);
    EXPECT_EQ(r1.arrivalOf(fast0), 0u);
    EXPECT_EQ(r1.arrivalOf(slow0), 0u);
}

/**
 * The same interleaving through two nested fabrics: requesters on a
 * crossbar whose devices sit behind an AxiLikeBus. Each request
 * carries two route entries, the crossbar's pushed first; the bus
 * must pop its own entry and the crossbar the one beneath it. The
 * crossbar is the bus's second requester, so popping in the wrong
 * order would send responses to the idle first one.
 */
TEST(CrossbarBackpressure, NestedFabricRoutesPopInOrder)
{
    Simulation sim;
    auto &xbar = sim.create<Crossbar>("xbar", 10);
    auto &bus = sim.create<AxiLikeBus>("bus", 10);
    auto fast_cfg = spmConfig(0x1000, 0x1000);
    fast_cfg.latencyCycles = 1;
    fast_cfg.readPorts = 4;
    auto slow_cfg = spmConfig(0x2000, 0x1000);
    slow_cfg.latencyCycles = 20;
    slow_cfg.readPorts = 4;
    auto &fast = sim.create<Scratchpad>("fast", 10, fast_cfg);
    auto &slow = sim.create<Scratchpad>("slow", 10, slow_cfg);
    bus.connectDevice(fast.port(0), fast_cfg.range);
    bus.connectDevice(slow.port(0), slow_cfg.range);

    TestRequester idle(sim, "idle");
    bindPorts(idle, bus.addRequester("idle"));
    xbar.connectDefault(bus.addRequester("xbar"));

    TestRequester r0(sim, "r0");
    TestRequester r1(sim, "r1");
    bindPorts(r0, xbar.addRequester("r0"));
    bindPorts(r1, xbar.addRequester("r1"));

    auto *slow0 = r0.read(0, 0x2000, 4);
    auto *fast0 = r0.read(0, 0x1000, 4);
    auto *slow1 = r1.read(0, 0x2010, 4);
    auto *fast1 = r1.read(0, 0x1010, 4);
    sim.run();

    EXPECT_TRUE(idle.responses.empty());
    ASSERT_EQ(r0.responses.size(), 2u);
    ASSERT_EQ(r1.responses.size(), 2u);
    EXPECT_LT(r0.arrivalOf(fast0), r0.arrivalOf(slow0));
    EXPECT_LT(r1.arrivalOf(fast1), r1.arrivalOf(slow1));
    EXPECT_EQ(r0.arrivalOf(fast1), 0u);
    EXPECT_EQ(r0.arrivalOf(slow1), 0u);
    EXPECT_EQ(r1.arrivalOf(fast0), 0u);
    EXPECT_EQ(r1.arrivalOf(slow0), 0u);
    for (const auto &r : r0.responses)
        EXPECT_FALSE(r.pkt->hasRoute());
}

/**
 * A saturated downstream device refuses the forwarded request; the
 * crossbar must hold the transaction, wait for the device's retry
 * signal, and re-forward — no drop, no duplicate.
 */
TEST(CrossbarBackpressure, RetriesAfterDownstreamRefusal)
{
    Simulation sim;
    auto &xbar = sim.create<Crossbar>("xbar", 10);
    StallableDevice dev(sim, 10);
    xbar.connectDevice(dev.port, AddrRange{0, 0x1000});
    TestRequester req(sim);
    bindPorts(req, xbar.addRequester("r"));

    auto *r = req.read(0, 0x10, 4);
    // Release the device well after the refusal.
    sim.eventQueue().schedule(200, [&dev] { dev.release(); });
    sim.run();

    EXPECT_GE(dev.refused, 1);
    EXPECT_EQ(dev.accepted, 1);
    ASSERT_EQ(req.responses.size(), 1u);
    // Accepted only after release at tick 200 + device latency.
    EXPECT_GE(req.arrivalOf(r), 210u);
}

/**
 * Per-requester credits on the crossbar: a 1-deep credit pool
 * refuses the second in-flight request until the first response
 * returns, and the retried request is flagged as credit-stalled.
 */
TEST(CrossbarBackpressure, CreditLimitThrottlesRequester)
{
    Simulation sim;
    InterconnectConfig xcfg;
    xcfg.maxOutstandingPerRequester = 1;
    auto &xbar = sim.create<Crossbar>("xbar", 10, xcfg);
    auto scfg = spmConfig(0, 0x1000);
    scfg.readPorts = 4;
    auto &spm = sim.create<Scratchpad>("spm", 10, scfg);
    xbar.connectDevice(spm.port(0), scfg.range);
    RetryRequester req(sim);
    bindPorts(req, xbar.addRequester("r"));

    auto *r0 = req.read(0, 0x00, 4);
    auto *r1 = req.read(0, 0x10, 4);
    sim.run();

    EXPECT_GE(req.retries, 1);
    EXPECT_GE(xbar.creditStallCount(), 1u);
    ASSERT_EQ(req.responses.size(), 2u);
    EXPECT_GT(req.arrivalOf(r1), req.arrivalOf(r0));
    EXPECT_TRUE(r1->serviceFlags & svcCreditStall);

    // An independent requester is not throttled by r's credits.
    EXPECT_EQ(req.blocked.size(), 0u);
}

/** Credits release one per response: a stream of N requests through
 * a 2-deep window completes in submission order. */
TEST(CrossbarBackpressure, CreditWindowPipelines)
{
    Simulation sim;
    InterconnectConfig xcfg;
    xcfg.maxOutstandingPerRequester = 2;
    auto &xbar = sim.create<Crossbar>("xbar", 10, xcfg);
    auto scfg = spmConfig(0, 0x1000);
    scfg.readPorts = 4;
    auto &spm = sim.create<Scratchpad>("spm", 10, scfg);
    xbar.connectDevice(spm.port(0), scfg.range);
    RetryRequester req(sim);
    bindPorts(req, xbar.addRequester("r"));

    std::vector<PacketPtr> pkts;
    for (int i = 0; i < 6; ++i)
        pkts.push_back(req.read(0, 4u * static_cast<unsigned>(i), 4));
    sim.run();

    ASSERT_EQ(req.responses.size(), 6u);
    Tick prev = 0;
    for (auto *p : pkts) {
        Tick t = req.arrivalOf(p);
        EXPECT_GE(t, prev);
        prev = t;
    }
    EXPECT_GE(req.retries, 1);
}
