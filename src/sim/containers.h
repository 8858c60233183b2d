/**
 * @file
 * Record containers that allocate only while growing to their working
 * set, never in steady state.
 *
 * RingFifo is the simulator's one FIFO of plain records (per-core
 * request queues, the fleet's timeout queue). Unlike std::deque it
 * allocates nothing while empty. SlotPool stores things in flight
 * (fleet flights, IO-link transfer completions) that an event or a
 * table names by a 32-bit slot number.
 */

#ifndef APC_SIM_CONTAINERS_H
#define APC_SIM_CONTAINERS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace apc::sim {

/** A growable power-of-two ring queue. */
template <typename T>
class RingFifo
{
  public:
    bool empty() const { return head_ == tail_; }
    std::size_t size() const { return tail_ - head_; }
    const T &front() const { return buf_[head_ & mask_]; }
    const T &back() const { return buf_[(tail_ - 1) & mask_]; }

    void
    push(const T &v)
    {
        if (size() == buf_.size())
            grow();
        buf_[tail_++ & mask_] = v;
    }

    void pop() { ++head_; }

    /** Drop every entry; the ring keeps its capacity. */
    void clear() { head_ = tail_; }

  private:
    void
    grow()
    {
        // A small first ring: thousands of per-core queues rarely hold
        // more than a request or two each.
        std::vector<T> wider(std::max<std::size_t>(4, buf_.size() * 2));
        for (std::size_t i = head_; i != tail_; ++i)
            wider[i - head_] = buf_[i & mask_];
        tail_ -= head_;
        head_ = 0;
        buf_.swap(wider);
        mask_ = buf_.size() - 1;
    }

    std::vector<T> buf_;
    std::size_t mask_ = 0;
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
};

/**
 * Records addressed by 32-bit slot numbers, recycled through a LIFO
 * free list. A recycled slot holds whatever its last user left in it;
 * the owner resets it. acquire() invalidates references into the pool.
 */
template <typename T>
class SlotPool
{
  public:
    std::uint32_t
    acquire()
    {
        if (free_.empty()) {
            records_.emplace_back();
            return static_cast<std::uint32_t>(records_.size() - 1);
        }
        const std::uint32_t s = free_.back();
        free_.pop_back();
        return s;
    }

    void release(std::uint32_t s) { free_.push_back(s); }

    T &operator[](std::uint32_t s) { return records_[s]; }

  private:
    std::vector<T> records_;
    std::vector<std::uint32_t> free_;
};

} // namespace apc::sim

#endif // APC_SIM_CONTAINERS_H
