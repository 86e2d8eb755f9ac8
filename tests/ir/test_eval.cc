/** @file Unit tests for RuntimeValue and opcode evaluation. */

#include <gtest/gtest.h>

#include <array>

#include "ir/context.hh"
#include "ir/eval.hh"
#include "ir/ir_builder.hh"

using namespace salam::ir;

namespace
{

class EvalTest : public ::testing::Test
{
  protected:
    Context ctx;

    RuntimeValue
    i64v(std::int64_t v)
    {
        return RuntimeValue::fromInt(
            ctx.i64(), static_cast<std::uint64_t>(v));
    }

    RuntimeValue
    i8v(std::int64_t v)
    {
        return RuntimeValue::fromInt(
            ctx.i8(), static_cast<std::uint64_t>(v));
    }
};

} // namespace

TEST_F(EvalTest, IntegerArithmeticWraps)
{
    auto r = evalBinary(Opcode::Add, ctx.i8(), i8v(200), i8v(100));
    EXPECT_EQ(r.asUInt(ctx.i8()), (200u + 100u) & 0xFF);

    r = evalBinary(Opcode::Mul, ctx.i8(), i8v(16), i8v(16));
    EXPECT_EQ(r.asUInt(ctx.i8()), 0u);
}

TEST_F(EvalTest, SignedDivisionAndRemainder)
{
    auto r = evalBinary(Opcode::SDiv, ctx.i64(), i64v(-7), i64v(2));
    EXPECT_EQ(r.asSInt(ctx.i64()), -3);
    r = evalBinary(Opcode::SRem, ctx.i64(), i64v(-7), i64v(2));
    EXPECT_EQ(r.asSInt(ctx.i64()), -1);
    r = evalBinary(Opcode::UDiv, ctx.i64(), i64v(7), i64v(2));
    EXPECT_EQ(r.asUInt(ctx.i64()), 3u);
}

TEST_F(EvalTest, DivisionByZeroIsFatal)
{
    EXPECT_EXIT(evalBinary(Opcode::SDiv, ctx.i64(), i64v(1), i64v(0)),
                ::testing::ExitedWithCode(1), "by zero");
}

TEST_F(EvalTest, Shifts)
{
    auto r = evalBinary(Opcode::Shl, ctx.i8(), i8v(1), i8v(7));
    EXPECT_EQ(r.asUInt(ctx.i8()), 0x80u);
    // Shift >= width yields 0 (we define the behaviour; LLVM is UB).
    r = evalBinary(Opcode::Shl, ctx.i8(), i8v(1), i8v(8));
    EXPECT_EQ(r.asUInt(ctx.i8()), 0u);
    r = evalBinary(Opcode::AShr, ctx.i8(), i8v(-128), i8v(2));
    EXPECT_EQ(r.asSInt(ctx.i8()), -32);
    r = evalBinary(Opcode::LShr, ctx.i8(), i8v(-128), i8v(2));
    EXPECT_EQ(r.asUInt(ctx.i8()), 0x20u);
}

TEST_F(EvalTest, FloatArithmeticRoundsToFloat)
{
    RuntimeValue a = RuntimeValue::fromFloat(1.0f);
    RuntimeValue b = RuntimeValue::fromFloat(1e-10f);
    auto r = evalBinary(Opcode::FAdd, ctx.floatType(), a, b);
    // In float precision 1 + 1e-10 == 1.
    EXPECT_EQ(r.asFloat(), 1.0f);

    RuntimeValue da = RuntimeValue::fromDouble(1.0);
    RuntimeValue db = RuntimeValue::fromDouble(1e-10);
    r = evalBinary(Opcode::FAdd, ctx.doubleType(), da, db);
    EXPECT_GT(r.asDouble(), 1.0);
}

TEST_F(EvalTest, Comparisons)
{
    auto t = evalCompare(Opcode::ICmp, Predicate::SLT, ctx.i64(),
                         i64v(-1), i64v(1));
    EXPECT_TRUE(t.asBool());
    // Unsigned: -1 is huge.
    t = evalCompare(Opcode::ICmp, Predicate::ULT, ctx.i64(), i64v(-1),
                    i64v(1));
    EXPECT_FALSE(t.asBool());
    t = evalCompare(Opcode::FCmp, Predicate::OGT, ctx.doubleType(),
                    RuntimeValue::fromDouble(2.5),
                    RuntimeValue::fromDouble(2.0));
    EXPECT_TRUE(t.asBool());
}

TEST_F(EvalTest, Casts)
{
    // sext i8 -1 -> i64 -1
    auto r = evalCast(Opcode::SExt, ctx.i8(), ctx.i64(), i8v(-1));
    EXPECT_EQ(r.asSInt(ctx.i64()), -1);
    // zext i8 255 -> i64 255
    r = evalCast(Opcode::ZExt, ctx.i8(), ctx.i64(), i8v(-1));
    EXPECT_EQ(r.asUInt(ctx.i64()), 255u);
    // trunc i64 0x1FF -> i8 0xFF
    r = evalCast(Opcode::Trunc, ctx.i64(), ctx.i8(), i64v(0x1FF));
    EXPECT_EQ(r.asUInt(ctx.i8()), 0xFFu);
    // sitofp
    r = evalCast(Opcode::SIToFP, ctx.i64(), ctx.doubleType(),
                 i64v(-3));
    EXPECT_DOUBLE_EQ(r.asDouble(), -3.0);
    // fptosi truncates toward zero
    r = evalCast(Opcode::FPToSI, ctx.doubleType(), ctx.i64(),
                 RuntimeValue::fromDouble(-2.9));
    EXPECT_EQ(r.asSInt(ctx.i64()), -2);
    // fptrunc then fpext loses double precision
    auto f = evalCast(Opcode::FPTrunc, ctx.doubleType(),
                      ctx.floatType(), RuntimeValue::fromDouble(0.1));
    auto d = evalCast(Opcode::FPExt, ctx.floatType(),
                      ctx.doubleType(), f);
    EXPECT_NE(d.asDouble(), 0.1);
    EXPECT_NEAR(d.asDouble(), 0.1, 1e-7);
}

TEST_F(EvalTest, Intrinsics)
{
    auto r = evalIntrinsic("sqrt", ctx.doubleType(),
                           std::array{RuntimeValue::fromDouble(9.0)});
    EXPECT_DOUBLE_EQ(r.asDouble(), 3.0);
    r = evalIntrinsic("pow", ctx.doubleType(),
                      std::array{RuntimeValue::fromDouble(2.0),
                                 RuntimeValue::fromDouble(10.0)});
    EXPECT_DOUBLE_EQ(r.asDouble(), 1024.0);
    EXPECT_EXIT(evalIntrinsic("nope", ctx.doubleType(), {}),
                ::testing::ExitedWithCode(1), "unknown intrinsic");
}

TEST_F(EvalTest, GepOffsets)
{
    Module mod("m");
    IRBuilder b(mod);
    Context &c = b.context();
    Function *fn = b.createFunction("f", c.voidType());
    const Type *arr = c.arrayOf(c.i32(), 4);
    Argument *base = fn->addArgument(c.pointerTo(arr), "base");
    BasicBlock *entry = b.createBlock("entry");
    b.setInsertPoint(entry);

    // getelementptr [4 x i32], ptr, 1, 2 -> 16 + 8 = 24 bytes.
    auto *gep = static_cast<GetElementPtrInst *>(
        b.gep(arr, base, {b.constI64(1), b.constI64(2)}));
    std::vector<RuntimeValue> idx = {
        RuntimeValue::fromInt(c.i64(), 1),
        RuntimeValue::fromInt(c.i64(), 2)};
    EXPECT_EQ(evalGepOffset(*gep, idx), 24);

    // Negative index walks backwards.
    auto *gep2 = static_cast<GetElementPtrInst *>(
        b.gep(c.i64(), base, b.constI64(-3)));
    std::vector<RuntimeValue> idx2 = {RuntimeValue::fromInt(
        c.i64(), static_cast<std::uint64_t>(-3))};
    EXPECT_EQ(evalGepOffset(*gep2, idx2), -24);
    b.ret();
}
