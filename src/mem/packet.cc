#include "packet.hh"

#include <new>

#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#endif

#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace salam::mem
{

namespace
{

/**
 * Per-thread freelist of packet-sized blocks. A simulation runs on
 * one thread, so a packet is normally freed where it was allocated;
 * a block freed on another thread simply joins that thread's list.
 * The list never holds more blocks than were ever live at once, and
 * it returns them to the heap when the thread exits.
 *
 * Under AddressSanitizer a block is poisoned while it sits on the
 * list, so a use after `delete pkt` still reports
 * (use-after-poison), as it did when packets went back to malloc.
 */
class PacketPool
{
  public:
    PacketPool() = default;
    PacketPool(const PacketPool &) = delete;
    PacketPool &operator=(const PacketPool &) = delete;

    ~PacketPool()
    {
        while (head != nullptr)
            ::operator delete(take());
    }

    void *
    take()
    {
        if (head == nullptr)
            return ::operator new(sizeof(Packet));
        Slot *slot = head;
        ASAN_UNPOISON_MEMORY_REGION(slot, sizeof(Packet));
        head = slot->next;
        return slot;
    }

    void
    give(void *ptr)
    {
        auto *slot = static_cast<Slot *>(ptr);
        slot->next = head;
        head = slot;
        ASAN_POISON_MEMORY_REGION(slot, sizeof(Packet));
    }

  private:
    struct Slot
    {
        Slot *next;
    };

    static_assert(sizeof(Slot) <= sizeof(Packet));

    Slot *head = nullptr;
};

thread_local PacketPool pool;

} // namespace

void *
Packet::operator new(std::size_t bytes)
{
    SALAM_ASSERT(bytes == sizeof(Packet));
    return pool.take();
}

void
Packet::operator delete(void *ptr) noexcept
{
    if (ptr != nullptr)
        pool.give(ptr);
}

} // namespace salam::mem
