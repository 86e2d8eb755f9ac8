/**
 * @file
 * Property test: the timed runtime engine must compute exactly what
 * the functional interpreter computes, for randomly generated
 * kernels with mixed arithmetic and memory traffic, across seeds
 * and scheduler configurations.
 */

#include <gtest/gtest.h>

#include "drive/testbench.hh"
#include "ir/interpreter.hh"
#include "ir/ir_builder.hh"
#include "mem/backdoor.hh"

using namespace salam;
using namespace salam::ir;
using salam::drive::Testbench;
constexpr std::uint64_t spmBase = Testbench::spmBase;

namespace
{

class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state(seed * 2 + 1) {}

    std::uint64_t
    next()
    {
        state = state * 6364136223846793005ULL +
            1442695040888963407ULL;
        return state >> 16;
    }

    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t state;
};

constexpr unsigned slots = 64;

/**
 * Random kernel over an i64 array `data[slots]`: a counted loop
 * whose body mixes loads, arithmetic, and stores (including
 * read-modify-write patterns that stress memory ordering).
 */
Function *
randomMemoryKernel(IRBuilder &b, Rng &rng)
{
    Context &ctx = b.context();
    Function *fn = b.createFunction("memprop", ctx.voidType());
    Argument *data =
        fn->addArgument(ctx.pointerTo(ctx.i64()), "data");

    BasicBlock *entry = b.createBlock("entry");
    BasicBlock *loop = b.createBlock("loop");
    BasicBlock *exit = b.createBlock("exit");
    std::int64_t trips =
        8 + static_cast<std::int64_t>(rng.below(24));

    b.setInsertPoint(entry);
    b.br(loop);
    b.setInsertPoint(loop);
    PhiInst *i = b.phi(ctx.i64(), "i");

    std::vector<Value *> pool{i, b.constI64(7)};
    auto pick = [&] { return pool[rng.below(pool.size())]; };
    auto slot_of = [&](Value *v) {
        // Clamp an arbitrary value into [0, slots).
        return b.bAnd(v, b.constI64(slots - 1));
    };

    unsigned ops = 6 + static_cast<unsigned>(rng.below(10));
    for (unsigned k = 0; k < ops; ++k) {
        switch (rng.below(5)) {
          case 0: { // load
            Value *addr =
                b.gep(ctx.i64(), data, slot_of(pick()));
            pool.push_back(b.load(addr));
            break;
          }
          case 1: { // store (possibly aliasing earlier accesses)
            Value *addr =
                b.gep(ctx.i64(), data, slot_of(pick()));
            b.store(pick(), addr);
            break;
          }
          case 2:
            pool.push_back(b.add(pick(), pick()));
            break;
          case 3:
            pool.push_back(b.mul(pick(), pick()));
            break;
          default:
            pool.push_back(b.bXor(pick(), pick()));
            break;
        }
    }
    // One guaranteed store so the kernel is observable.
    b.store(pick(), b.gep(ctx.i64(), data, slot_of(pick())));

    Value *inext = b.add(i, b.constI64(1), "i.next");
    Value *cond = b.icmp(Predicate::SLT, inext,
                         b.constI64(trips), "cond");
    b.condBr(cond, loop, exit);
    i->addIncoming(b.constI64(0), entry);
    i->addIncoming(inext, loop);
    b.setInsertPoint(exit);
    b.ret();
    return fn;
}

void
seedData(MemoryAccessor &mem, std::uint64_t base, Rng &rng)
{
    for (unsigned s = 0; s < slots; ++s) {
        mem.writeI64(base + 8ull * s,
                     static_cast<std::int64_t>(rng.next()));
    }
}

} // namespace

class EngineProperty
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(EngineProperty, TimedEngineMatchesInterpreter)
{
    Rng build_rng(GetParam());
    Module mod("m");
    IRBuilder b(mod);
    Function *fn = randomMemoryKernel(b, build_rng);

    // Functional reference.
    FlatMemory golden;
    {
        Rng data_rng(GetParam() ^ 0xDA7A);
        seedData(golden, spmBase, data_rng);
        Interpreter interp(golden);
        interp.run(*fn, {RuntimeValue::fromPointer(spmBase)});
    }

    // Timed engine, in both scheduler modes and narrow/wide ports.
    for (bool sequential : {false, true}) {
        for (unsigned ports : {1u, 4u}) {
            core::DeviceConfig dev;
            dev.blockSequentialImport = sequential;
            dev.readPortsPerCycle = ports;
            dev.writePortsPerCycle = ports;
            Testbench sys(*fn, dev);
            mem::ScratchpadBackdoor backdoor(*sys.spm);
            Rng data_rng(GetParam() ^ 0xDA7A);
            seedData(backdoor, spmBase, data_rng);
            sys.run({RuntimeValue::fromPointer(spmBase)});

            for (unsigned s = 0; s < slots; ++s) {
                EXPECT_EQ(backdoor.readI64(spmBase + 8ull * s),
                          golden.readI64(spmBase + 8ull * s))
                    << "seed " << GetParam() << " slot " << s
                    << " sequential " << sequential << " ports "
                    << ports;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperty,
                         ::testing::Range<std::uint64_t>(1, 16));
