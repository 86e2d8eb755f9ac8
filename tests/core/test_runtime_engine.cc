/** @file Tests for the dynamic runtime engine (execute-in-execute). */

#include <gtest/gtest.h>

#include "drive/testbench.hh"
#include "opt/fold.hh"
#include "opt/unroll.hh"
#include "../ir/test_helpers.hh"

using namespace salam;
using namespace salam::ir;
using namespace salam::core;
using salam::drive::Testbench;
constexpr std::uint64_t spmBase = Testbench::spmBase;

namespace
{

/** Build daxpy: y[i] = a * x[i] + y[i] over n doubles. */
Function *
buildDaxpy(IRBuilder &b, std::int64_t n)
{
    Context &ctx = b.context();
    Function *fn = b.createFunction("daxpy", ctx.voidType());
    Argument *a = fn->addArgument(ctx.doubleType(), "a");
    Argument *x = fn->addArgument(ctx.pointerTo(ctx.doubleType()),
                                  "x");
    Argument *y = fn->addArgument(ctx.pointerTo(ctx.doubleType()),
                                  "y");

    BasicBlock *entry = b.createBlock("entry");
    BasicBlock *loop = b.createBlock("loop");
    BasicBlock *exit = b.createBlock("exit");

    b.setInsertPoint(entry);
    b.br(loop);
    b.setInsertPoint(loop);
    PhiInst *i = b.phi(ctx.i64(), "i");
    Value *px = b.gep(ctx.doubleType(), x, i, "px");
    Value *py = b.gep(ctx.doubleType(), y, i, "py");
    Value *vx = b.load(px, "vx");
    Value *vy = b.load(py, "vy");
    Value *ax = b.fmul(a, vx, "ax");
    Value *sum = b.fadd(ax, vy, "sum");
    b.store(sum, py);
    Value *inext = b.add(i, b.constI64(1), "i.next");
    Value *cond = b.icmp(Predicate::SLT, inext, b.constI64(n),
                         "cond");
    b.condBr(cond, loop, exit);
    i->addIncoming(b.constI64(0), entry);
    i->addIncoming(inext, loop);
    b.setInsertPoint(exit);
    b.ret();
    return fn;
}

/**
 * Guarded-shift kernel (the Table I motif): out[i] = v > thresh ?
 * v << 1 : v, with the shift behind a real branch.
 */
Function *
buildGuardedShift(IRBuilder &b, std::int64_t n)
{
    Context &ctx = b.context();
    Function *fn = b.createFunction("guarded", ctx.voidType());
    Argument *in = fn->addArgument(ctx.pointerTo(ctx.i64()), "in");
    Argument *out = fn->addArgument(ctx.pointerTo(ctx.i64()), "out");
    Argument *thresh = fn->addArgument(ctx.i64(), "thresh");

    BasicBlock *entry = b.createBlock("entry");
    BasicBlock *loop = b.createBlock("loop");
    BasicBlock *then = b.createBlock("then");
    BasicBlock *merge = b.createBlock("merge");
    BasicBlock *exit = b.createBlock("exit");

    b.setInsertPoint(entry);
    b.br(loop);

    b.setInsertPoint(loop);
    PhiInst *i = b.phi(ctx.i64(), "i");
    Value *pin = b.gep(ctx.i64(), in, i, "pin");
    Value *v = b.load(pin, "v");
    Value *big = b.icmp(Predicate::SGT, v, thresh, "big");
    b.condBr(big, then, merge);

    b.setInsertPoint(then);
    Value *shifted = b.shl(v, b.constI64(1), "shifted");
    b.br(merge);

    b.setInsertPoint(merge);
    PhiInst *res = b.phi(ctx.i64(), "res");
    res->addIncoming(v, loop);
    res->addIncoming(shifted, then);
    Value *pout = b.gep(ctx.i64(), out, i, "pout");
    b.store(res, pout);
    Value *inext = b.add(i, b.constI64(1), "i.next");
    Value *cond = b.icmp(Predicate::SLT, inext, b.constI64(n),
                         "cond");
    b.condBr(cond, loop, exit);
    i->addIncoming(b.constI64(0), entry);
    i->addIncoming(inext, merge);

    b.setInsertPoint(exit);
    b.ret();
    return fn;
}

} // namespace

TEST(RuntimeEngine, VecAddMatchesInterpreter)
{
    Module mod("m");
    IRBuilder b(mod);
    Function *fn = salam::test::buildVecAdd(b, 32);

    Testbench sys(*fn);
    const std::uint64_t a = spmBase, bb = spmBase + 0x1000,
                        c = spmBase + 0x2000;
    for (int i = 0; i < 32; ++i) {
        std::int32_t va = 3 * i - 5, vb = 7 * i + 2;
        sys.spm->backdoorWrite(a + 4u * static_cast<unsigned>(i),
                               &va, 4);
        sys.spm->backdoorWrite(bb + 4u * static_cast<unsigned>(i),
                               &vb, 4);
    }
    std::uint64_t cycles =
        sys.run({RuntimeValue::fromPointer(a),
                 RuntimeValue::fromPointer(bb),
                 RuntimeValue::fromPointer(c)});

    for (int i = 0; i < 32; ++i) {
        std::int32_t got = 0;
        sys.spm->backdoorRead(c + 4u * static_cast<unsigned>(i),
                              &got, 4);
        EXPECT_EQ(got, (3 * i - 5) + (7 * i + 2)) << "i=" << i;
    }
    // Sanity: the run takes at least one cycle per iteration and
    // less than a fully serialized schedule would.
    EXPECT_GT(cycles, 32u);
    EXPECT_LT(cycles, 32u * 12u);
}

TEST(RuntimeEngine, DaxpyFloatingPointCorrect)
{
    Module mod("m");
    IRBuilder b(mod);
    Function *fn = buildDaxpy(b, 16);

    Testbench sys(*fn);
    const std::uint64_t x = spmBase, y = spmBase + 0x1000;
    for (int i = 0; i < 16; ++i) {
        double vx = 0.5 * i, vy = 100.0 - i;
        sys.spm->backdoorWrite(x + 8u * static_cast<unsigned>(i),
                               &vx, 8);
        sys.spm->backdoorWrite(y + 8u * static_cast<unsigned>(i),
                               &vy, 8);
    }
    sys.run({RuntimeValue::fromDouble(2.0),
             RuntimeValue::fromPointer(x),
             RuntimeValue::fromPointer(y)});
    for (int i = 0; i < 16; ++i) {
        double got = 0;
        sys.spm->backdoorRead(y + 8u * static_cast<unsigned>(i),
                              &got, 8);
        EXPECT_DOUBLE_EQ(got, 2.0 * (0.5 * i) + (100.0 - i));
    }
}

TEST(RuntimeEngine, UnrollingReducesCycles)
{
    auto cycles_for = [](std::uint64_t factor) {
        Module mod("m");
        IRBuilder b(mod);
        Function *fn = salam::test::buildVecAdd(b, 64);
        if (factor > 1) {
            opt::Unroller::unrollByLabel(*fn, "loop", factor);
            opt::cleanup(*fn);
        }

        core::DeviceConfig dev;
        dev.readPortsPerCycle = 8;
        dev.writePortsPerCycle = 8;
        mem::ScratchpadConfig scfg = Testbench::defaultSpm();
        scfg.readPorts = 8;
        scfg.writePorts = 8;
        Testbench sys(*fn, dev, scfg);
        return sys.run({RuntimeValue::fromPointer(spmBase),
                        RuntimeValue::fromPointer(spmBase + 0x1000),
                        RuntimeValue::fromPointer(spmBase + 0x2000)});
    };

    std::uint64_t base = cycles_for(1);
    std::uint64_t unroll4 = cycles_for(4);
    std::uint64_t unroll16 = cycles_for(16);
    EXPECT_LT(unroll4, base);
    EXPECT_LT(unroll16, unroll4);
}

TEST(RuntimeEngine, DataDependentControlExecutesCorrectly)
{
    Module mod("m");
    IRBuilder b(mod);
    Function *fn = buildGuardedShift(b, 16);

    Testbench sys(*fn);
    const std::uint64_t in = spmBase, out = spmBase + 0x1000;
    for (int i = 0; i < 16; ++i) {
        std::int64_t v = (i % 3 == 0) ? 100 + i : i;
        sys.spm->backdoorWrite(in + 8u * static_cast<unsigned>(i),
                               &v, 8);
    }
    sys.run({RuntimeValue::fromPointer(in),
             RuntimeValue::fromPointer(out),
             RuntimeValue::fromInt(mod.context().i64(), 50)});
    for (int i = 0; i < 16; ++i) {
        std::int64_t got = 0;
        sys.spm->backdoorRead(out + 8u * static_cast<unsigned>(i),
                              &got, 8);
        std::int64_t v = (i % 3 == 0) ? 100 + i : i;
        EXPECT_EQ(got, v > 50 ? v << 1 : v) << "i=" << i;
    }
}

TEST(RuntimeEngine, DataDependentCyclesVaryWithInput)
{
    // The same kernel takes longer when the guarded path triggers —
    // the execute-in-execute property Table I motivates.
    auto cycles_for = [](bool trigger) {
        Module mod("m");
        IRBuilder b(mod);
        Function *fn = buildGuardedShift(b, 64);
        Testbench sys(*fn);
        for (int i = 0; i < 64; ++i) {
            std::int64_t v = trigger ? 100 : 1;
            sys.spm->backdoorWrite(
                spmBase + 8u * static_cast<unsigned>(i), &v, 8);
        }
        return sys.run(
            {RuntimeValue::fromPointer(spmBase),
             RuntimeValue::fromPointer(spmBase + 0x1000),
             RuntimeValue::fromInt(mod.context().i64(), 50)});
    };
    std::uint64_t fast = cycles_for(false);
    std::uint64_t slow = cycles_for(true);
    EXPECT_GT(slow, fast);
}

TEST(RuntimeEngine, FuLimitsForceReuseAndSlowdown)
{
    auto cycles_for = [](unsigned fadd_limit) {
        Module mod("m");
        IRBuilder b(mod);
        Function *fn = buildDaxpy(b, 32);
        opt::Unroller::unrollByLabel(*fn, "loop", 8);
        opt::cleanup(*fn);

        core::DeviceConfig dev;
        dev.readPortsPerCycle = 16;
        dev.writePortsPerCycle = 16;
        if (fadd_limit > 0) {
            dev.setFuLimit(hw::FuType::FpAddSubDouble, fadd_limit);
            dev.setFuLimit(hw::FuType::FpMultiplierDouble,
                           fadd_limit);
        }
        mem::ScratchpadConfig scfg = Testbench::defaultSpm();
        scfg.readPorts = 16;
        scfg.writePorts = 16;
        Testbench sys(*fn, dev, scfg);
        for (int i = 0; i < 32; ++i) {
            double v = i;
            sys.spm->backdoorWrite(
                spmBase + 8u * static_cast<unsigned>(i), &v, 8);
            sys.spm->backdoorWrite(
                spmBase + 0x1000 + 8u * static_cast<unsigned>(i),
                &v, 8);
        }
        return sys.run({RuntimeValue::fromDouble(1.5),
                        RuntimeValue::fromPointer(spmBase),
                        RuntimeValue::fromPointer(spmBase + 0x1000)});
    };

    std::uint64_t unconstrained = cycles_for(0);
    std::uint64_t one_unit = cycles_for(1);
    EXPECT_GT(one_unit, unconstrained);
}

TEST(RuntimeEngine, ReadPortSweepChangesRuntime)
{
    auto cycles_for = [](unsigned ports) {
        Module mod("m");
        IRBuilder b(mod);
        Function *fn = salam::test::buildVecAdd(b, 64);
        opt::Unroller::unrollByLabel(*fn, "loop", 16);
        opt::cleanup(*fn);

        core::DeviceConfig dev;
        dev.readPortsPerCycle = ports;
        dev.writePortsPerCycle = ports;
        mem::ScratchpadConfig scfg = Testbench::defaultSpm();
        scfg.readPorts = ports;
        scfg.writePorts = ports;
        Testbench sys(*fn, dev, scfg);
        return sys.run({RuntimeValue::fromPointer(spmBase),
                        RuntimeValue::fromPointer(spmBase + 0x1000),
                        RuntimeValue::fromPointer(spmBase + 0x2000)});
    };

    std::uint64_t wide = cycles_for(16);
    std::uint64_t narrow = cycles_for(1);
    EXPECT_GT(narrow, wide);
}

TEST(RuntimeEngine, StatsAreConsistent)
{
    Module mod("m");
    IRBuilder b(mod);
    Function *fn = salam::test::buildVecAdd(b, 32);
    Testbench sys(*fn);
    sys.run({RuntimeValue::fromPointer(spmBase),
             RuntimeValue::fromPointer(spmBase + 0x1000),
             RuntimeValue::fromPointer(spmBase + 0x2000)});

    const EngineStats &stats = sys.cu->stats();
    EXPECT_EQ(stats.newExecCycles + stats.stallCycles,
              stats.totalCycles);
    EXPECT_EQ(stats.loadsIssued, 64u);  // 2 loads x 32 iterations
    EXPECT_EQ(stats.storesIssued, 32u); // 1 store x 32 iterations
    EXPECT_GT(stats.dynamicInstructions, 32u * 8u);
    EXPECT_GT(stats.fuEnergyPj, 0.0);
    EXPECT_GT(stats.registerReadEnergyPj, 0.0);
    EXPECT_GT(stats.registerWriteEnergyPj, 0.0);
}

TEST(RuntimeEngine, MemoryOrderingPreservesRaw)
{
    // p[0] = a; then q[i] = p[0] (read-after-write through memory).
    Module mod("m");
    IRBuilder b(mod);
    Context &ctx = b.context();
    Function *fn = b.createFunction("raw", ctx.voidType());
    Argument *p = fn->addArgument(ctx.pointerTo(ctx.i64()), "p");
    Argument *q = fn->addArgument(ctx.pointerTo(ctx.i64()), "q");
    BasicBlock *entry = b.createBlock("entry");
    b.setInsertPoint(entry);
    b.store(b.constI64(1234), p);
    Value *v = b.load(p, "v");
    b.store(v, q);
    b.ret();

    Testbench sys(*fn);
    sys.run({RuntimeValue::fromPointer(spmBase),
             RuntimeValue::fromPointer(spmBase + 0x100)});
    std::int64_t got = 0;
    sys.spm->backdoorRead(spmBase + 0x100, &got, 8);
    EXPECT_EQ(got, 1234);
}

TEST(RuntimeEngine, SumSquaresReturnsThroughRet)
{
    Module mod("m");
    IRBuilder b(mod);
    Function *fn = salam::test::buildSumSquares(b, 10);
    Testbench sys(*fn);
    std::uint64_t cycles = sys.run({});
    EXPECT_GT(cycles, 10u);
}
