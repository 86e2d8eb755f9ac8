/**
 * @file
 * RingQueue: the FIFO behind the memory models' request and response
 * queues.
 *
 * A power-of-two ring that doubles when full and never shrinks, so a
 * warmed-up queue pushes and pops without touching the heap (a
 * std::deque allocates a fresh chunk every few dozen pushes). Entries
 * are indexed from the front, which is what the scratchpad's
 * in-order service scan walks.
 */

#ifndef SALAM_MEM_RING_QUEUE_HH
#define SALAM_MEM_RING_QUEUE_HH

#include <cstddef>
#include <vector>

#include "sim/logging.hh"

namespace salam::mem
{

template <typename T>
class RingQueue
{
  public:
    bool empty() const { return count == 0; }

    std::size_t size() const { return count; }

    /** Entry @p i counted from the front. */
    T &operator[](std::size_t i) { return slots[(head + i) & mask]; }

    const T &
    operator[](std::size_t i) const
    {
        return slots[(head + i) & mask];
    }

    T &front() { return (*this)[0]; }

    const T &front() const { return (*this)[0]; }

    T &back() { return (*this)[count - 1]; }

    void
    push_back(const T &value)
    {
        if (count == slots.size())
            grow();
        slots[(head + count) & mask] = value;
        ++count;
    }

    void pop_front() { dropFront(1); }

    /** Remove the first @p n entries. */
    void
    dropFront(std::size_t n)
    {
        SALAM_ASSERT(n <= count);
        head = (head + n) & mask;
        count -= n;
    }

  private:
    void
    grow()
    {
        std::vector<T> bigger(slots.empty() ? 8 : 2 * slots.size());
        for (std::size_t i = 0; i < count; ++i)
            bigger[i] = (*this)[i];
        slots.swap(bigger);
        head = 0;
        mask = slots.size() - 1;
    }

    std::vector<T> slots;
    std::size_t head = 0;
    std::size_t count = 0;
    std::size_t mask = 0;
};

} // namespace salam::mem

#endif // SALAM_MEM_RING_QUEUE_HH
