#include "eval.hh"

#include <cmath>

#include "sim/logging.hh"

namespace salam::ir
{

RuntimeValue
RuntimeValue::fromFP(const Type *type, double v)
{
    return type->isFloat() ? fromFloat(static_cast<float>(v))
                           : fromDouble(v);
}

RuntimeValue
evalConstant(const Value *value)
{
    if (auto *ci = dynamic_cast<const ConstantInt *>(value))
        return RuntimeValue::fromInt(ci->type(), ci->zext());
    if (auto *cf = dynamic_cast<const ConstantFP *>(value))
        return RuntimeValue::fromFP(cf->type(), cf->value());
    panic("evalConstant on non-constant value '%s'",
          value->name().c_str());
}

RuntimeValue
evalBinary(Opcode op, const Type *type, RuntimeValue a, RuntimeValue b)
{
    using RV = RuntimeValue;
    if (type->isFloatingPoint()) {
        double x = a.asFP(type);
        double y = b.asFP(type);
        switch (op) {
          case Opcode::FAdd: return RV::fromFP(type, x + y);
          case Opcode::FSub: return RV::fromFP(type, x - y);
          case Opcode::FMul: return RV::fromFP(type, x * y);
          case Opcode::FDiv: return RV::fromFP(type, x / y);
          default:
            panic("non-FP opcode %s on FP type", opcodeName(op));
        }
    }

    std::uint64_t ua = a.asUInt(type);
    std::uint64_t ub = b.asUInt(type);
    std::int64_t sa = a.asSInt(type);
    std::int64_t sb = b.asSInt(type);
    unsigned width = type->isInteger() ? type->intBits() : 64;

    switch (op) {
      case Opcode::Add: return RV::fromInt(type, ua + ub);
      case Opcode::Sub: return RV::fromInt(type, ua - ub);
      case Opcode::Mul: return RV::fromInt(type, ua * ub);
      case Opcode::UDiv:
        if (ub == 0)
            fatal("udiv by zero in simulated kernel");
        return RV::fromInt(type, ua / ub);
      case Opcode::SDiv:
        if (sb == 0)
            fatal("sdiv by zero in simulated kernel");
        return RV::fromInt(type,
                           static_cast<std::uint64_t>(sa / sb));
      case Opcode::URem:
        if (ub == 0)
            fatal("urem by zero in simulated kernel");
        return RV::fromInt(type, ua % ub);
      case Opcode::SRem:
        if (sb == 0)
            fatal("srem by zero in simulated kernel");
        return RV::fromInt(type,
                           static_cast<std::uint64_t>(sa % sb));
      case Opcode::And: return RV::fromInt(type, ua & ub);
      case Opcode::Or: return RV::fromInt(type, ua | ub);
      case Opcode::Xor: return RV::fromInt(type, ua ^ ub);
      case Opcode::Shl:
        return RV::fromInt(type, ub >= width ? 0 : ua << ub);
      case Opcode::LShr:
        return RV::fromInt(type, ub >= width ? 0 : ua >> ub);
      case Opcode::AShr:
        if (ub >= width)
            return RV::fromInt(type,
                               static_cast<std::uint64_t>(sa < 0 ? -1
                                                                 : 0));
        return RV::fromInt(type, static_cast<std::uint64_t>(sa >> sb));
      default:
        panic("unsupported binary opcode %s", opcodeName(op));
    }
}

RuntimeValue
evalCompare(Opcode op, Predicate pred, const Type *opnd_type,
            RuntimeValue a, RuntimeValue b)
{
    bool result = false;
    if (op == Opcode::FCmp) {
        double x = a.asFP(opnd_type);
        double y = b.asFP(opnd_type);
        switch (pred) {
          case Predicate::OEQ: result = x == y; break;
          case Predicate::ONE: result = x != y; break;
          case Predicate::OGT: result = x > y; break;
          case Predicate::OGE: result = x >= y; break;
          case Predicate::OLT: result = x < y; break;
          case Predicate::OLE: result = x <= y; break;
          default:
            panic("integer predicate on fcmp");
        }
    } else {
        std::uint64_t ua = a.asUInt(opnd_type);
        std::uint64_t ub = b.asUInt(opnd_type);
        std::int64_t sa = a.asSInt(opnd_type);
        std::int64_t sb = b.asSInt(opnd_type);
        switch (pred) {
          case Predicate::EQ: result = ua == ub; break;
          case Predicate::NE: result = ua != ub; break;
          case Predicate::UGT: result = ua > ub; break;
          case Predicate::UGE: result = ua >= ub; break;
          case Predicate::ULT: result = ua < ub; break;
          case Predicate::ULE: result = ua <= ub; break;
          case Predicate::SGT: result = sa > sb; break;
          case Predicate::SGE: result = sa >= sb; break;
          case Predicate::SLT: result = sa < sb; break;
          case Predicate::SLE: result = sa <= sb; break;
          default:
            panic("FP predicate on icmp");
        }
    }
    RuntimeValue rv;
    rv.bits = result ? 1 : 0;
    return rv;
}

RuntimeValue
evalCast(Opcode op, const Type *src_type, const Type *dest_type,
         RuntimeValue v)
{
    using RV = RuntimeValue;
    switch (op) {
      case Opcode::Trunc:
        return RV::fromInt(dest_type, v.bits);
      case Opcode::ZExt:
        return RV::fromInt(dest_type, v.asUInt(src_type));
      case Opcode::SExt:
        return RV::fromInt(dest_type, static_cast<std::uint64_t>(
                                          v.asSInt(src_type)));
      case Opcode::FPToSI:
        return RV::fromInt(dest_type, static_cast<std::uint64_t>(
                                          static_cast<std::int64_t>(
                                              v.asFP(src_type))));
      case Opcode::SIToFP:
        return RV::fromFP(dest_type,
                          static_cast<double>(v.asSInt(src_type)));
      case Opcode::FPTrunc:
      case Opcode::FPExt:
        return RV::fromFP(dest_type, v.asFP(src_type));
      case Opcode::BitCast:
      case Opcode::PtrToInt:
      case Opcode::IntToPtr:
        return v;
      default:
        panic("unsupported cast opcode %s", opcodeName(op));
    }
}

RuntimeValue
evalIntrinsic(const std::string &callee, const Type *type,
              std::span<const RuntimeValue> args)
{
    auto arg = [&](std::size_t i) {
        SALAM_ASSERT(i < args.size());
        return args[i].asFP(type);
    };
    if (callee == "sqrt")
        return RuntimeValue::fromFP(type, std::sqrt(arg(0)));
    if (callee == "exp")
        return RuntimeValue::fromFP(type, std::exp(arg(0)));
    if (callee == "log")
        return RuntimeValue::fromFP(type, std::log(arg(0)));
    if (callee == "sin")
        return RuntimeValue::fromFP(type, std::sin(arg(0)));
    if (callee == "cos")
        return RuntimeValue::fromFP(type, std::cos(arg(0)));
    if (callee == "fabs")
        return RuntimeValue::fromFP(type, std::fabs(arg(0)));
    if (callee == "pow")
        return RuntimeValue::fromFP(type, std::pow(arg(0), arg(1)));
    fatal("unknown intrinsic '%s'", callee.c_str());
}

std::int64_t
evalGepOffset(const GetElementPtrInst &gep,
              std::span<const RuntimeValue> indices)
{
    SALAM_ASSERT(indices.size() == gep.numIndices());
    const Type *cur = gep.sourceElementType();
    std::int64_t offset = 0;
    for (std::size_t i = 0; i < indices.size(); ++i) {
        std::int64_t idx =
            indices[i].asSInt(gep.index(i)->type());
        if (i == 0) {
            offset += idx *
                static_cast<std::int64_t>(cur->storeSize());
        } else {
            SALAM_ASSERT(cur->isArray());
            cur = cur->arrayElement();
            offset += idx *
                static_cast<std::int64_t>(cur->storeSize());
        }
    }
    return offset;
}

RuntimeValue
evalCompute(const Instruction &inst,
            std::span<const RuntimeValue> operands)
{
    // Operand count by opcode is the verifier's invariant; the
    // unchecked reads below rely on it.
    SALAM_ASSERT(operands.size() == inst.numOperands());
    Opcode op = inst.opcode();
    switch (op) {
      case Opcode::ICmp:
      case Opcode::FCmp: {
        const auto &cmp = static_cast<const CmpInst &>(inst);
        return evalCompare(op, cmp.predicate(), cmp.lhs()->type(),
                           operands[0], operands[1]);
      }
      case Opcode::Trunc:
      case Opcode::ZExt:
      case Opcode::SExt:
      case Opcode::FPToSI:
      case Opcode::SIToFP:
      case Opcode::FPTrunc:
      case Opcode::FPExt:
      case Opcode::BitCast:
      case Opcode::PtrToInt:
      case Opcode::IntToPtr: {
        const auto &cast = static_cast<const CastInst &>(inst);
        return evalCast(op, cast.source()->type(), cast.type(),
                        operands[0]);
      }
      case Opcode::Select:
        return operands[0].asBool() ? operands[1] : operands[2];
      case Opcode::GetElementPtr: {
        const auto &gep =
            static_cast<const GetElementPtrInst &>(inst);
        std::uint64_t base = operands[0].bits;
        std::int64_t off = evalGepOffset(gep, operands.subspan(1));
        return RuntimeValue::fromPointer(
            base + static_cast<std::uint64_t>(off));
      }
      case Opcode::Call: {
        const auto &call = static_cast<const CallInst &>(inst);
        return evalIntrinsic(call.callee(), call.type(), operands);
      }
      default:
        if (inst.isComputeOp()) {
            return evalBinary(op, inst.type(), operands[0],
                              operands[1]);
        }
        panic("evalCompute on non-compute opcode %s", opcodeName(op));
    }
}

} // namespace salam::ir
