/**
 * @file
 * Directed robustness tests: the host CPU's port-retry path, MMR
 * decode hardening, and the hang paths (queue drain and watchdog)
 * with their diagnostic state dumps.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "inject/fault_injector.hh"
#include "kernels/machsuite.hh"
#include "obs/json_reader.hh"
#include "sys/system.hh"
#include "../ir/test_helpers.hh"

using namespace salam;
using namespace salam::ir;
using namespace salam::mem;
using namespace salam::sys;
using salam::obs::parseJson;

namespace
{

/**
 * A device that refuses the first N timing requests before accepting,
 * exercising the requester's recvReqRetry path the way a congested
 * interconnect does.
 */
class RefusingDevice : public ResponsePort
{
  public:
    RefusingDevice(Simulation &sim, unsigned refusals)
        : ResponsePort("stub"), sim(sim), refusalsLeft(refusals)
    {
    }

    unsigned refused = 0;
    unsigned serviced = 0;

    bool
    recvTimingReq(PacketPtr pkt) override
    {
        if (refusalsLeft > 0) {
            --refusalsLeft;
            ++refused;
            sim.eventQueue().schedule(
                sim.eventQueue().curTick() + 40,
                [this] { sendReqRetry(); }, "stub.retry");
            return false;
        }
        ++serviced;
        pkt->makeResponse();
        sim.eventQueue().schedule(
            sim.eventQueue().curTick() + 10,
            [this, pkt] { sendTimingResp(pkt); }, "stub.resp");
        return true;
    }

    void recvRespRetry() override {}

  private:
    Simulation &sim;
    unsigned refusalsLeft;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

TEST(Robustness, DriverCpuResendsRefusedRequests)
{
    // Regression: a refused MMIO request must be stashed and resent
    // on recvReqRetry, not silently dropped (which wedged the host
    // program forever).
    Simulation sim;
    auto &host = sim.create<DriverCpu>("host", 10);
    RefusingDevice stub(sim, 3);
    bindPorts(host.port(), stub);

    host.push(HostOp::writeReg(0x100, 1));
    host.push(HostOp::readReg(0x100));
    sim.run();

    EXPECT_TRUE(host.finished());
    EXPECT_EQ(host.opsCompleted(), 2u);
    EXPECT_EQ(stub.refused, 3u);
    EXPECT_EQ(stub.serviced, 2u);
}

TEST(Robustness, UndecodableMmrAccessGetsErrorResponseAndRunSurvives)
{
    // A misaligned MMR read is a driver bug, not a simulator bug:
    // the comm interface answers with an error response and the run
    // completes normally.
    Module mod("m");
    IRBuilder b(mod);
    Function *fn = salam::test::buildSumSquares(b, 8);

    Simulation sim;
    SalamSystem sys(sim);
    auto &cluster = sys.addCluster("c0", periodFromMhz(100));
    auto &accel = cluster.addAccelerator("acc", *fn, {}, {});

    DriverCpu &host = sys.host();
    host.push(HostOp::readReg(accel.ctrlAddr() + 4)); // misaligned
    driver::pushAcceleratorStart(host, accel, {});
    host.push(HostOp::waitIrq(accel.irqId));
    sys.run();

    EXPECT_EQ(accel.comm->mmrDecodeErrorCount(), 1u);
    EXPECT_TRUE(accel.cu->finished());
    EXPECT_TRUE(host.finished());
}

TEST(Robustness, MisalignedDmaMmrAccessGetsErrorResponse)
{
    // The DMA decodes its registers by the comm interface's rule: a
    // misaligned access gets an error response instead of aliasing
    // the register below it (offset 4 used to start a transfer).
    Simulation sim;
    SalamSystem sys(sim);
    auto &cluster = sys.addCluster("c0", periodFromMhz(100));
    auto &dma = cluster.addDma("dma", core::DmaConfig{});
    const std::uint64_t mmr = dma.config().mmrRange.start;
    const std::uint64_t src = SystemAddressMap::dramBase + 0x1000;

    DriverCpu &host = sys.host();
    host.push(HostOp::writeReg(mmr + 8, src));
    host.push(HostOp::writeReg(mmr + 16, src + 0x1000));
    host.push(HostOp::writeReg(mmr + 24, 64));
    host.push(HostOp::writeReg(
        mmr + 4, core::ctrl_bits::start | core::ctrl_bits::irqEnable));
    host.push(HostOp::readReg(mmr + 12));
    sys.run();

    EXPECT_EQ(dma.mmrDecodeErrorCount(), 2u);
    EXPECT_FALSE(dma.done());
    EXPECT_EQ(dma.bytesMoved(), 0u);
    EXPECT_EQ(dma.readReg(3), 64u);
    EXPECT_TRUE(host.finished());
}

TEST(Robustness, QueueDrainWithUnfinishedHostIsFatalAndNamesWaiter)
{
    const std::string dump = "robustness_drain_dump.json";
    std::remove(dump.c_str());
    EXPECT_EXIT(
        {
            Simulation sim;
            SystemConfig cfg;
            cfg.stateDumpPath = dump;
            SalamSystem sys(sim, cfg);
            sys.host().push(HostOp::waitIrq(sys.allocateIrq()));
            sys.run();
        },
        ::testing::ExitedWithCode(1),
        "event queue drained.*host program unfinished.*host.*"
        "waiting for interrupt");

    // The child wrote the dump before dying; it must name the host
    // as the stuck component.
    auto doc = parseJson(slurp(dump));
    EXPECT_EQ(doc.at("kind").string, "salam_state_dump");
    ASSERT_GE(doc.at("suspects").array.size(), 1u);
    EXPECT_EQ(doc.at("suspects").array[0].at("object").string,
              "host");
    EXPECT_NE(doc.at("suspects").array[0].at("reason").string.find(
                  "waiting for interrupt"),
              std::string::npos);
    std::remove(dump.c_str());
}

TEST(Robustness, WatchdogDumpNamesTheActuallyStuckComputeUnit)
{
    // Acceptance pin: drop a scratchpad response mid-kernel so the
    // engine livelocks (events still firing, nothing retiring). The
    // watchdog must trip, and the state dump must finger the compute
    // unit with in-flight accesses — not some innocent bystander.
    const std::string dump = "robustness_watchdog_dump.json";
    std::remove(dump.c_str());
    EXPECT_EXIT(
        {
            Simulation sim;
            inject::FaultPlan plan;
            ASSERT_EQ(plan.parse("drop_response@spm:nth=20"), "");
            inject::FaultInjector injector(plan);
            injector.attach(sim);

            SystemConfig cfg;
            cfg.watchdogWindowTicks = 100000;
            cfg.stateDumpPath = dump;
            SalamSystem sys(sim, cfg);
            auto &cluster = sys.addCluster("c0", periodFromMhz(100));

            ScratchpadConfig sproto;
            sproto.readPorts = 4;
            sproto.writePorts = 4;
            auto &spm = cluster.addSpm("spm", 16 * 1024, sproto);

            using namespace salam::kernels;
            Module mod("m");
            IRBuilder b(mod);
            Function *fn = makeRelu(64)->build(b);
            auto &accel = cluster.addAccelerator(
                "relu", *fn, {},
                {{"spm", {spm.config().range}, false}});
            bindPorts(accel.comm->dataPort(0), spm.port(0));

            std::uint64_t in = spm.config().range.start;
            std::uint64_t out = in + 64 * 4;
            for (unsigned i = 0; i < 64; ++i) {
                float v = static_cast<float>(i) - 32.0f;
                spm.backdoorWrite(in + 4ull * i, &v, 4);
            }
            DriverCpu &host = sys.host();
            driver::pushAcceleratorStart(host, accel, {in, out});
            host.push(HostOp::waitIrq(accel.irqId));
            sys.run();
        },
        ::testing::ExitedWithCode(1),
        "no forward progress.*watchdog.*stuck:.*relu");

    auto doc = parseJson(slurp(dump));
    bool names_cu = false, names_host = false;
    for (const auto &suspect : doc.at("suspects").array) {
        const std::string &who = suspect.at("object").string;
        const std::string &why = suspect.at("reason").string;
        if (who == "c0.relu") {
            names_cu = true;
            EXPECT_NE(why.find("in flight"), std::string::npos)
                << why;
        }
        if (who == "host") {
            names_host = true;
            EXPECT_NE(why.find("waiting for interrupt"),
                      std::string::npos)
                << why;
        }
    }
    EXPECT_TRUE(names_cu);
    EXPECT_TRUE(names_host);

    // The dump also carries the injection plan and firing log.
    ASSERT_TRUE(doc.has("injection"));
    ASSERT_GE(doc.at("injection").at("fired").array.size(), 1u);
    EXPECT_EQ(doc.at("injection")
                  .at("fired")
                  .array[0]
                  .at("kind")
                  .string,
              "drop_response");
    std::remove(dump.c_str());
}
