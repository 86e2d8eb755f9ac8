/** @file Tests for CommInterface MMR programming, DMA, and reports. */

#include <gtest/gtest.h>

#include "core/dma.hh"
#include "core/power_report.hh"
#include "drive/testbench.hh"
#include "mem/crossbar.hh"
#include "mem/simple_dram.hh"
#include "opt/unroll.hh"
#include "../ir/test_helpers.hh"
#include "../mem/test_harness.hh"

using namespace salam;
using namespace salam::ir;
using namespace salam::core;
using salam::drive::Testbench;
using salam::test::TestRequester;
constexpr std::uint64_t mmrBase = Testbench::mmrBase;
constexpr std::uint64_t spmBase = Testbench::spmBase;

TEST(CommInterface, MmrProgrammingStartsKernel)
{
    Module mod("m");
    IRBuilder b(mod);
    Function *fn = salam::test::buildVecAdd(b, 8);
    Testbench sys(*fn);
    for (int i = 0; i < 8; ++i) {
        std::int32_t v = i;
        sys.spm->backdoorWrite(spmBase + 4u * static_cast<unsigned>(i),
                               &v, 4);
        sys.spm->backdoorWrite(
            spmBase + 0x1000 + 4u * static_cast<unsigned>(i), &v, 4);
    }

    bool irq_fired = false;
    sys.comm->setIrqCallback([&] { irq_fired = true; });

    // Program the accelerator the way a host driver would: args into
    // regs 1..3, then control with start | irq-enable.
    TestRequester host(sys.sim, "host");
    mem::bindPorts(host, sys.comm->mmrPort());
    host.write(0, mmrBase + 8, spmBase, 8);
    host.write(10, mmrBase + 16, spmBase + 0x1000, 8);
    host.write(20, mmrBase + 24, spmBase + 0x2000, 8);
    host.write(30, mmrBase,
               ctrl_bits::start | ctrl_bits::irqEnable, 8);
    sys.sim.run();

    EXPECT_TRUE(sys.cu->finished());
    EXPECT_TRUE(sys.comm->done());
    EXPECT_FALSE(sys.comm->running());
    EXPECT_TRUE(irq_fired);
    std::int32_t got = 0;
    sys.spm->backdoorRead(spmBase + 0x2000 + 12, &got, 4);
    EXPECT_EQ(got, 6);

    // Host reads status back over the bus.
    auto *status = host.read(sys.sim.curTick() + 10, mmrBase, 8);
    sys.sim.run();
    std::uint64_t status_val = 0;
    status->copyData(&status_val, 8);
    EXPECT_TRUE(status_val & ctrl_bits::done);
}

TEST(CommInterface, RegisterFileReadWrite)
{
    Module mod("m");
    IRBuilder b(mod);
    Function *fn = salam::test::buildVecAdd(b, 4);
    Testbench sys(*fn);
    sys.comm->writeReg(5, 0xCAFEBABE);
    EXPECT_EQ(sys.comm->readReg(5), 0xCAFEBABEu);
    EXPECT_EQ(sys.comm->readReg(6), 0u);
}

TEST(Dma, MovesDataBetweenDramAndSpm)
{
    Simulation sim;
    mem::DramConfig dcfg;
    dcfg.range = mem::AddrRange{0x8000'0000, 0x8010'0000};
    auto &dram = sim.create<mem::SimpleDram>("dram", 1000, dcfg);

    mem::ScratchpadConfig scfg;
    scfg.range = mem::AddrRange{0x10000, 0x20000};
    auto &spm = sim.create<mem::Scratchpad>("spm", 10, scfg);

    auto &xbar = sim.create<mem::Crossbar>("xbar", 10);
    xbar.connectDevice(dram.port(), dcfg.range);
    xbar.connectDevice(spm.port(0), scfg.range);

    DmaConfig dma_cfg;
    dma_cfg.mmrRange = mem::AddrRange{0x3000, 0x3000 + 32};
    auto &dma = sim.create<Dma>("dma", 10, dma_cfg);
    mem::bindPorts(dma.dataPort(), xbar.addRequester("dma"));

    // Seed DRAM, DMA into the SPM.
    std::vector<std::uint8_t> payload(1024);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 7);
    dram.backdoorWrite(0x8000'0000, payload.data(), payload.size());

    bool irq = false;
    dma.setIrqCallback([&] { irq = true; });
    dma.writeReg(0, ctrl_bits::irqEnable);
    dma.startTransfer(0x8000'0000, 0x10000, 1024);
    sim.run();

    EXPECT_TRUE(dma.done());
    EXPECT_FALSE(dma.busy());
    EXPECT_TRUE(irq);
    EXPECT_EQ(dma.bytesMoved(), 1024u);
    std::vector<std::uint8_t> got(1024);
    spm.backdoorRead(0x10000, got.data(), got.size());
    EXPECT_EQ(got, payload);
}

TEST(Dma, MmrProgrammedTransfer)
{
    Simulation sim;
    mem::ScratchpadConfig scfg;
    scfg.range = mem::AddrRange{0x10000, 0x20000};
    auto &spm = sim.create<mem::Scratchpad>("spm", 10, scfg);

    DmaConfig dma_cfg;
    dma_cfg.mmrRange = mem::AddrRange{0x3000, 0x3000 + 32};
    auto &dma = sim.create<Dma>("dma", 10, dma_cfg);
    mem::bindPorts(dma.dataPort(), spm.port(0));

    std::uint64_t magic = 0xFEEDFACE;
    spm.backdoorWrite(0x10000, &magic, 8);

    TestRequester host(sim, "host");
    mem::bindPorts(host, dma.mmrPort());
    host.write(0, 0x3008, 0x10000, 8);  // src
    host.write(10, 0x3010, 0x11000, 8); // dst
    host.write(20, 0x3018, 8, 8);       // len
    host.write(30, 0x3000, ctrl_bits::start, 8);
    sim.run();

    std::uint64_t got = 0;
    spm.backdoorRead(0x11000, &got, 8);
    EXPECT_EQ(got, magic);
    EXPECT_TRUE(dma.done());
}

TEST(Dma, LargeTransferRespectsBurstAccounting)
{
    Simulation sim;
    mem::ScratchpadConfig scfg;
    scfg.range = mem::AddrRange{0x10000, 0x40000};
    auto &spm = sim.create<mem::Scratchpad>("spm", 10, scfg);
    DmaConfig dma_cfg;
    dma_cfg.mmrRange = mem::AddrRange{0x3000, 0x3020};
    dma_cfg.burstBytes = 64;
    dma_cfg.maxOutstanding = 2;
    auto &dma = sim.create<Dma>("dma", 10, dma_cfg);
    mem::bindPorts(dma.dataPort(), spm.port(0));

    dma.startTransfer(0x10000, 0x20000, 4096);
    sim.run();
    EXPECT_EQ(dma.bytesMoved(), 4096u);
    EXPECT_GT(dma.lastTransferTicks(), 0u);
}

TEST(PowerReport, BreakdownFieldsArePopulated)
{
    Module mod("m");
    IRBuilder b(mod);
    Function *fn = salam::test::buildVecAdd(b, 32);
    Testbench sys(*fn);
    sys.run({RuntimeValue::fromPointer(spmBase),
             RuntimeValue::fromPointer(spmBase + 0x1000),
             RuntimeValue::fromPointer(spmBase + 0x2000)});

    AcceleratorReport report = buildReport(*sys.cu, sys.spm);
    EXPECT_GT(report.cycles, 0u);
    EXPECT_GT(report.runtimeNs, 0.0);
    EXPECT_GT(report.power.dynamicFuMw, 0.0);
    EXPECT_GT(report.power.dynamicRegisterMw, 0.0);
    EXPECT_GT(report.power.dynamicSpmReadMw, 0.0);
    EXPECT_GT(report.power.dynamicSpmWriteMw, 0.0);
    EXPECT_GT(report.power.staticFuMw, 0.0);
    EXPECT_GT(report.power.staticRegisterMw, 0.0);
    EXPECT_GT(report.power.staticSpmMw, 0.0);
    EXPECT_GT(report.area.totalUm2(), 0.0);
    EXPECT_NEAR(report.power.totalMw(),
                report.power.dynamicTotalMw() +
                    report.power.staticTotalMw(),
                1e-12);
}

TEST(StaticCdfg, FuDemandsMatchStaticInstructions)
{
    Module mod("m");
    IRBuilder b(mod);
    Function *fn = salam::test::buildVecAdd(b, 16);
    DeviceConfig dev;
    StaticCdfg cdfg(*fn, dev);

    // vecadd loop: 2 GEPs + 1 pointer add... GEPs map to IntAdder;
    // the i32 add and the i64 increment also IntAdder -> 5 total.
    EXPECT_EQ(cdfg.fuDemand(hw::FuType::IntAdder), 5u);
    EXPECT_EQ(cdfg.fuDemand(hw::FuType::Comparator), 1u);
    EXPECT_EQ(cdfg.fuCount(hw::FuType::IntAdder), 5u);
    EXPECT_GT(cdfg.registerBits(), 0u);

    // Capping adders to 2 shrinks the instantiated pool.
    DeviceConfig capped;
    capped.setFuLimit(hw::FuType::IntAdder, 2);
    StaticCdfg small(*fn, capped);
    EXPECT_EQ(small.fuCount(hw::FuType::IntAdder), 2u);
    EXPECT_LT(small.area().fuUm2, cdfg.area().fuUm2);
    EXPECT_LT(small.staticFuPowerMw(), cdfg.staticFuPowerMw());
}

TEST(StaticCdfg, UnrollingGrowsDatapath)
{
    Module mod("m");
    IRBuilder b(mod);
    Function *fn = salam::test::buildVecAdd(b, 16);
    DeviceConfig dev;
    StaticCdfg before(*fn, dev);
    opt::Unroller::unrollByLabel(*fn, "loop", 4);
    StaticCdfg after(*fn, dev);
    EXPECT_GT(after.fuDemand(hw::FuType::IntAdder),
              before.fuDemand(hw::FuType::IntAdder));
    EXPECT_GT(after.registerBits(), before.registerBits());
    EXPECT_GT(after.area().totalUm2(), before.area().totalUm2());
}
