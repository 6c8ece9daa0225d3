/**
 * @file
 * Fixed-capacity FIFO over recycled slots. All storage is allocated at
 * construction; pushing reuses the slot the oldest pop vacated, so an
 * element type that owns a buffer (the FTQ's per-entry instruction
 * vector) keeps its capacity from one trip round the ring to the next.
 */

#ifndef BTBSIM_COMMON_FIFO_RING_H
#define BTBSIM_COMMON_FIFO_RING_H

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace btbsim {

template <typename T>
class FifoRing
{
  public:
    /** @throws std::invalid_argument for a zero @p capacity. */
    explicit FifoRing(std::size_t capacity) : slots_(checked(capacity)) {}

    std::size_t capacity() const { return slots_.size(); }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == slots_.size(); }

    /** The @p i-th oldest element (0 = front); requires i < size(). */
    T &operator[](std::size_t i) { return slots_[wrap(head_ + i)]; }
    const T &operator[](std::size_t i) const
    {
        return slots_[wrap(head_ + i)];
    }

    T &front() { return slots_[head_]; }
    T &back() { return (*this)[size_ - 1]; }
    const T &back() const { return (*this)[size_ - 1]; }

    /**
     * Append a slot and return it. The slot still holds whatever the
     * element popped from it last held: the caller resets or assigns
     * every field it relies on. Requires !full().
     */
    T &
    pushSlot()
    {
        T &slot = slots_[wrap(head_ + size_)];
        ++size_;
        return slot;
    }

    void push(const T &v) { pushSlot() = v; }

    /** Drop the front element (its slot is kept for reuse). */
    void
    popFront()
    {
        head_ = wrap(head_ + 1);
        --size_;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;

    static std::size_t
    checked(std::size_t capacity)
    {
        if (capacity == 0)
            throw std::invalid_argument("FifoRing: capacity must be >= 1");
        return capacity;
    }

    /** Reduce an index below 2 * capacity() into the ring. */
    std::size_t
    wrap(std::size_t i) const
    {
        return i >= slots_.size() ? i - slots_.size() : i;
    }
};

} // namespace btbsim

#endif // BTBSIM_COMMON_FIFO_RING_H
