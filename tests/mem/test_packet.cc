/**
 * @file
 * Packet storage: inline word-sized payloads, the fabric route
 * stack, and recycling through the per-thread freelist (poisoned
 * under AddressSanitizer, so a use after delete still reports).
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "mem/packet.hh"

#if defined(__SANITIZE_ADDRESS__)
#define SALAM_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SALAM_TEST_ASAN 1
#endif
#endif

#ifdef SALAM_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

using namespace salam::mem;

namespace
{

bool
payloadIsInline(const Packet &pkt)
{
    auto *self = reinterpret_cast<const std::uint8_t *>(&pkt);
    return pkt.data() >= self && pkt.data() < self + sizeof(Packet);
}

} // namespace

TEST(Packet, WordPayloadsAreInline)
{
    auto *word = new Packet(MemCmd::ReadReq, 0x100, 8);
    auto *chunk = new Packet(MemCmd::WriteReq, 0x200, 64);
    EXPECT_TRUE(payloadIsInline(*word));
    EXPECT_FALSE(payloadIsInline(*chunk));
    std::uint64_t in = 0x0123456789abcdefULL;
    std::uint64_t out = 0;
    word->setData(&in, 8);
    word->copyData(&out, 8);
    EXPECT_EQ(out, in);
    // A fresh payload reads as zero, inline or not.
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(chunk->data()[i], 0u);
    delete word;
    delete chunk;
}

TEST(Packet, ErrorResponseZeroesInlinePayload)
{
    auto *pkt = new Packet(MemCmd::ReadReq, 0x100, 8);
    std::uint64_t junk = ~0ULL;
    pkt->setData(&junk, 8);
    pkt->makeErrorResponse();
    std::uint64_t out = 1;
    pkt->copyData(&out, 8);
    EXPECT_EQ(out, 0u);
    EXPECT_TRUE(pkt->error);
    delete pkt;
}

TEST(Packet, RouteStackPopsInReverseOrder)
{
    Packet pkt(MemCmd::ReadReq, 0x100, 4);
    EXPECT_FALSE(pkt.hasRoute());
    pkt.pushRoute(3);
    pkt.pushRoute(0);
    pkt.pushRoute(7);
    EXPECT_EQ(pkt.popRoute(), 7u);
    EXPECT_EQ(pkt.popRoute(), 0u);
    EXPECT_EQ(pkt.popRoute(), 3u);
    EXPECT_FALSE(pkt.hasRoute());
}

TEST(Packet, RouteStackOverflowPanics)
{
    Packet pkt(MemCmd::ReadReq, 0x100, 4);
    for (unsigned i = 0; i < Packet::maxRouteDepth; ++i)
        pkt.pushRoute(i);
    EXPECT_DEATH(pkt.pushRoute(0), "crossed more than");
}

TEST(Packet, DeletedPacketsAreRecycled)
{
    auto *first = new Packet(MemCmd::ReadReq, 0x100, 4);
    auto first_addr = reinterpret_cast<std::uintptr_t>(first);
    delete first;
    auto *second = new Packet(MemCmd::WriteReq, 0x200, 8);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(second), first_addr);
    // Recycled storage starts clean: no stale route, flags or data.
    EXPECT_FALSE(second->hasRoute());
    EXPECT_EQ(second->serviceFlags, 0u);
    EXPECT_EQ(second->context, nullptr);
    delete second;
}

TEST(Packet, FreelistPacketsArePoisonedUnderAsan)
{
#ifdef SALAM_TEST_ASAN
    auto *pkt = new Packet(MemCmd::ReadReq, 0x100, 4);
    EXPECT_FALSE(__asan_address_is_poisoned(pkt));
    // Kept behind a volatile so the compiler does not flag the
    // deliberate use after delete below.
    Packet *volatile stale = pkt;
    delete pkt;
    EXPECT_TRUE(__asan_address_is_poisoned(stale));
    EXPECT_DEATH(
        {
            volatile std::uint64_t addr = stale->addr();
            (void)addr;
        },
        "use-after-poison");
#else
    GTEST_SKIP() << "needs an AddressSanitizer build";
#endif
}
