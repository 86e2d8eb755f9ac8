/**
 * @file
 * RuntimeValue and the pure evaluation semantics of compute opcodes.
 *
 * This is the single source of truth for what each IR operation
 * computes. The functional interpreter, the trace-based baseline, and
 * gem5-SALAM's compute queue all call into these helpers, so the
 * execute-in-execute engine and the reference execution can never
 * diverge functionally.
 */

#ifndef SALAM_IR_EVAL_HH
#define SALAM_IR_EVAL_HH

#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "instruction.hh"

namespace salam::ir
{

/**
 * A dynamic value: 64 raw bits interpreted according to an IR type.
 * Integers are stored zero-extended; float occupies the low 32 bits
 * with its IEEE encoding; double occupies all 64 bits.
 */
struct RuntimeValue
{
    std::uint64_t bits = 0;

    static RuntimeValue
    fromInt(const Type *type, std::uint64_t v)
    {
        RuntimeValue rv;
        rv.bits = mask(type, v);
        return rv;
    }

    static RuntimeValue
    fromPointer(std::uint64_t addr)
    {
        RuntimeValue rv;
        rv.bits = addr;
        return rv;
    }

    static RuntimeValue
    fromFloat(float f)
    {
        RuntimeValue rv;
        std::uint32_t enc;
        std::memcpy(&enc, &f, sizeof(enc));
        rv.bits = enc;
        return rv;
    }

    static RuntimeValue
    fromDouble(double d)
    {
        RuntimeValue rv;
        std::memcpy(&rv.bits, &d, sizeof(rv.bits));
        return rv;
    }

    /** Encode a scalar of the given type. */
    static RuntimeValue fromFP(const Type *type, double v);

    /** Zero-extended integer view. */
    std::uint64_t
    asUInt(const Type *type) const
    {
        return mask(type, bits);
    }

    /** Sign-extended integer view. */
    std::int64_t
    asSInt(const Type *type) const
    {
        unsigned width = type->isInteger() ? type->intBits() : 64;
        if (width >= 64)
            return static_cast<std::int64_t>(bits);
        std::uint64_t sign = 1ULL << (width - 1);
        std::uint64_t v = mask(type, bits);
        return static_cast<std::int64_t>((v ^ sign) - sign);
    }

    float
    asFloat() const
    {
        float f;
        auto enc = static_cast<std::uint32_t>(bits);
        std::memcpy(&f, &enc, sizeof(f));
        return f;
    }

    double
    asDouble() const
    {
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        return d;
    }

    /** Floating-point view according to @p type (float or double). */
    double
    asFP(const Type *type) const
    {
        return type->isFloat() ? static_cast<double>(asFloat())
                               : asDouble();
    }

    bool asBool() const { return (bits & 1) != 0; }

    static std::uint64_t
    mask(const Type *type, std::uint64_t v)
    {
        if (type->isInteger() && type->intBits() < 64)
            return v & ((1ULL << type->intBits()) - 1);
        return v;
    }
};

/** Evaluate a constant or argument-free value to a RuntimeValue. */
RuntimeValue evalConstant(const Value *value);

/** Evaluate a binary arithmetic/bitwise op. */
RuntimeValue evalBinary(Opcode op, const Type *type, RuntimeValue a,
                        RuntimeValue b);

/** Evaluate icmp/fcmp; result is an i1. */
RuntimeValue evalCompare(Opcode op, Predicate pred, const Type *opnd_type,
                         RuntimeValue a, RuntimeValue b);

/** Evaluate a cast. */
RuntimeValue evalCast(Opcode op, const Type *src_type,
                      const Type *dest_type, RuntimeValue v);

/** Evaluate a math intrinsic (sqrt/exp/log/sin/cos/fabs/...). */
RuntimeValue evalIntrinsic(const std::string &callee, const Type *type,
                           std::span<const RuntimeValue> args);

/**
 * Byte offset computed by a GEP given its index operand values.
 * The base address is not included.
 */
std::int64_t evalGepOffset(const GetElementPtrInst &gep,
                           std::span<const RuntimeValue> indices);

/**
 * Evaluate any compute instruction (arithmetic, compare, cast, select,
 * GEP, intrinsic call) from its operand values, in operand order.
 * Loads, stores, phis and terminators are the caller's responsibility.
 * Allocates nothing.
 */
RuntimeValue evalCompute(const Instruction &inst,
                         std::span<const RuntimeValue> operands);

} // namespace salam::ir

#endif // SALAM_IR_EVAL_HH
