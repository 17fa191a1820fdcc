/**
 * @file
 * A FIFO on one growable ring buffer.
 *
 * std::deque allocates and frees a chunk every few hundred bytes of
 * traffic even when its length stays flat; a queue that many queries
 * pass through (an instance's waiting queue) would pay that per query.
 * RingQueue keeps its buffer: once it has reached the queue's
 * high-water length, pushing and popping allocate nothing.
 */

#ifndef PC_COMMON_RING_QUEUE_H
#define PC_COMMON_RING_QUEUE_H

#include <cstddef>
#include <utility>
#include <vector>

namespace pc {

/** FIFO with deque-style ends; T must be default-constructible. */
template <typename T>
class RingQueue
{
  public:
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Element @p i counted from the front. */
    T &operator[](std::size_t i) { return buf_[slot(i)]; }
    const T &operator[](std::size_t i) const { return buf_[slot(i)]; }

    T &front() { return (*this)[0]; }
    T &back() { return (*this)[size_ - 1]; }

    void
    push_back(T v)
    {
        if (size_ == buf_.size())
            grow();
        buf_[slot(size_)] = std::move(v);
        ++size_;
    }

    /** Remove the front; the vacated slot drops what it held. */
    void
    pop_front()
    {
        buf_[head_] = T{};
        head_ = slot(1);
        --size_;
    }

    void
    pop_back()
    {
        buf_[slot(size_ - 1)] = T{};
        --size_;
    }

    void
    clear()
    {
        while (!empty())
            pop_back();
        head_ = 0;
    }

  private:
    /** Capacity stays a power of two, so wrapping is a mask. */
    std::size_t slot(std::size_t i) const
    {
        return (head_ + i) & (buf_.size() - 1);
    }

    void
    grow()
    {
        std::vector<T> bigger(buf_.empty() ? 8 : 2 * buf_.size());
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = std::move((*this)[i]);
        buf_ = std::move(bigger);
        head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace pc

#endif // PC_COMMON_RING_QUEUE_H
