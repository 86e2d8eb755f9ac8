/**
 * @file
 * The simulated memory path allocates nothing once warm, and neither
 * does evaluating the GEP that forms each access's address.
 *
 * This binary replaces the global operator new with a counting one,
 * so it is built apart from mem_test. Each test runs a burst once to
 * warm the packet freelist, the queues' rings and the event heap,
 * then counts allocations over an identical second burst. Sanitizers
 * bring their own allocator, so sanitized builds skip the count.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "ir/eval.hh"
#include "ir/ir_builder.hh"
#include "mem/axi_bus.hh"
#include "mem/crossbar.hh"
#include "mem/scratchpad.hh"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SALAM_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SALAM_TEST_SANITIZED 1
#endif
#endif

namespace
{

bool counting = false;
std::uint64_t newCalls = 0;

} // namespace

#ifndef SALAM_TEST_SANITIZED
// The library's array forms forward to these.
void *
operator new(std::size_t bytes)
{
    if (counting)
        ++newCalls;
    if (void *ptr = std::malloc(bytes != 0 ? bytes : 1))
        return ptr;
    throw std::bad_alloc();
}

// Out of line, so the compiler never pairs this free() with a new
// expression it inlined (-Wmismatched-new-delete).
[[gnu::noinline]] void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}

[[gnu::noinline]] void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}
#endif

using namespace salam;
using namespace salam::mem;

namespace
{

/** Sends a burst straight from the test and frees each response. */
class BurstRequester : public RequestPort
{
  public:
    BurstRequester() : RequestPort("burst") {}

    bool
    recvTimingResp(PacketPtr pkt) override
    {
        ++received;
        delete pkt;
        return true;
    }

    void recvReqRetry() override {}

    /**
     * Issue @p count accesses, alternating reads and 4-byte writes
     * over @p words consecutive words from @p base, six words apart
     * (reads pile onto one bank of four). Returns how many the
     * device refused.
     */
    unsigned
    issue(std::uint64_t base, unsigned count, unsigned words)
    {
        unsigned refused = 0;
        for (unsigned i = 0; i < count; ++i) {
            std::uint64_t addr = base + 4 * ((i * 6) % words);
            PacketPtr pkt;
            if (i % 2 == 0) {
                pkt = new Packet(MemCmd::ReadReq, addr, 4);
            } else {
                pkt = new Packet(MemCmd::WriteReq, addr, 4);
                pkt->setData(&i, 4);
            }
            if (!sendTimingReq(pkt)) {
                ++refused;
                delete pkt;
            }
        }
        return refused;
    }

    std::uint64_t received = 0;
};

ScratchpadConfig
bankedSpm(std::uint64_t base)
{
    ScratchpadConfig cfg;
    cfg.range = AddrRange{base, base + 4096};
    cfg.latencyCycles = 2;
    cfg.readPorts = 2;
    cfg.writePorts = 1;
    cfg.banks = 4;
    return cfg;
}

/** Allocations made by a warmed-up second run of @p burst. */
template <typename Burst>
std::uint64_t
allocationsWhenWarm(Burst &&burst)
{
    burst();
    std::uint64_t before = newCalls;
    counting = true;
    burst();
    counting = false;
    return newCalls - before;
}

} // namespace

TEST(MemAllocFree, WarmScratchpadBurstAllocatesNothing)
{
#ifdef SALAM_TEST_SANITIZED
    GTEST_SKIP() << "sanitizers replace operator new";
#endif
    Simulation sim;
    auto &spm = sim.create<Scratchpad>("spm", 10, bankedSpm(0));
    BurstRequester req;
    bindPorts(req, spm.port(0));

    unsigned refused = 0;
    std::uint64_t allocations = allocationsWhenWarm([&] {
        refused += req.issue(0, 64, 48);
        sim.run();
    });
    EXPECT_EQ(allocations, 0u);
    EXPECT_EQ(refused, 0u);
    EXPECT_EQ(req.received, 128u);
    // The burst queued behind ports and banks, so the service scan
    // skipped entries and compacted the ring.
    EXPECT_GT(spm.bankConflictCount(), 0u);
}

TEST(MemAllocFree, WarmBurstThroughNestedFabricsAllocatesNothing)
{
#ifdef SALAM_TEST_SANITIZED
    GTEST_SKIP() << "sanitizers replace operator new";
#endif
    Simulation sim;
    auto &xbar = sim.create<Crossbar>("xbar", 10);
    auto &bus = sim.create<AxiLikeBus>("bus", 10);
    auto &spm = sim.create<Scratchpad>("spm", 10, bankedSpm(0x1000));
    bus.connectDevice(spm.port(0), spm.config().range);
    xbar.connectDefault(bus.addRequester("xbar"));
    BurstRequester req;
    bindPorts(req, xbar.addRequester("req"));

    unsigned refused = 0;
    std::uint64_t allocations = allocationsWhenWarm([&] {
        refused += req.issue(0x1000, 64, 48);
        sim.run();
    });
    EXPECT_EQ(allocations, 0u);
    EXPECT_EQ(refused, 0u);
    EXPECT_EQ(req.received, 128u);
}

/** The engine evaluates one GEP per simulated memory access. */
TEST(EvalAllocFree, GepEvaluationAllocatesNothing)
{
#ifdef SALAM_TEST_SANITIZED
    GTEST_SKIP() << "sanitizers replace operator new";
#endif
    ir::Module mod("gep");
    ir::IRBuilder b(mod);
    ir::Context &c = b.context();
    ir::Function *fn = b.createFunction("f", c.voidType());
    const ir::Type *row = c.arrayOf(c.doubleType(), 16);
    ir::Argument *base = fn->addArgument(c.pointerTo(row), "base");
    b.setInsertPoint(b.createBlock("entry"));
    const auto *gep = static_cast<const ir::Instruction *>(
        b.gep(row, base, {b.constI64(0), b.constI64(0)}));

    std::uint64_t sum = 0;
    std::uint64_t allocations = allocationsWhenWarm([&] {
        for (std::uint64_t i = 0; i < 256; ++i) {
            const ir::RuntimeValue ops[] = {
                ir::RuntimeValue::fromPointer(0x1000),
                ir::RuntimeValue::fromInt(c.i64(), i / 16),
                ir::RuntimeValue::fromInt(c.i64(), i % 16)};
            sum += ir::evalCompute(*gep, ops).bits;
        }
    });
    EXPECT_EQ(allocations, 0u);
    // Row i / 16, column i % 16: byte offset 8 * i, twice over.
    EXPECT_EQ(sum, 2 * (256 * 0x1000 + 8 * (255 * 256 / 2)));
}
