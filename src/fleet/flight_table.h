/**
 * @file
 * Dense containers for the fleet spine's flight bookkeeping.
 *
 * The spine hands out flight ids densely and in arrival order, and
 * flights die in roughly that order, so the live ids always lie in a
 * short window [oldest live id, next id). FlightTable indexes that
 * window with a power-of-two ring of 32-bit slot numbers; the records
 * themselves sit in a sim::SlotPool, a vector with a free list. A
 * lookup is two array reads, an erased, never-created or future id
 * reads as absent, and iteration visits the live ids in increasing
 * order.
 *
 * sim::RingFifo with takeDue() is the constant-interval timer queue of
 * Varghese & Lauck (SOSP '87): when every deadline is its push instant
 * plus one fixed interval and pushes come in time order, deadlines are
 * pushed in nondecreasing order and the due entries are a prefix.
 */

#ifndef APC_FLEET_FLIGHT_TABLE_H
#define APC_FLEET_FLIGHT_TABLE_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

#include "sim/containers.h"
#include "sim/time.h"

namespace apc::fleet {

/** Records keyed by a dense, monotone id; see the file comment. */
template <typename T>
class FlightTable
{
  public:
    /** @p window: initial ring length, a power of two; the ring
     *  doubles whenever the live window outgrows it. */
    explicit FlightTable(std::size_t window = 1024)
        : ring_(window, kNone), mask_(window - 1)
    {
        assert(window > 0 && (window & (window - 1)) == 0);
    }

    /** The id the next emplace() takes; every id below was created. */
    std::uint64_t endId() const { return end_; }
    std::size_t size() const { return live_; }
    bool empty() const { return live_ == 0; }

    /** Create a fresh record under id endId(). */
    T &
    emplace()
    {
        if (end_ - base_ == ring_.size())
            grow();
        const std::uint32_t s = pool_.acquire();
        ring_[end_++ & mask_] = s;
        ++live_;
        return pool_[s] = T{};
    }

    /** The live record of @p id, or null. */
    T *
    find(std::uint64_t id)
    {
        if (id - base_ >= end_ - base_) // below the window or past it
            return nullptr;
        const std::uint32_t s = ring_[id & mask_];
        return s == kNone ? nullptr : &pool_[s];
    }

    /** Erase live @p id; the window's base moves past dead ids. */
    void
    erase(std::uint64_t id)
    {
        assert(find(id) != nullptr);
        std::uint32_t &s = ring_[id & mask_];
        pool_.release(s);
        s = kNone;
        --live_;
        while (base_ < end_ && ring_[base_ & mask_] == kNone)
            ++base_;
    }

    /** Visit every live (id, record) in increasing id order. */
    template <typename F>
    void
    forEach(F &&f)
    {
        for (std::uint64_t id = base_; id < end_; ++id)
            if (const std::uint32_t s = ring_[id & mask_]; s != kNone)
                f(id, pool_[s]);
    }

  private:
    static constexpr std::uint32_t kNone = UINT32_MAX;

    void
    grow()
    {
        // Every ring entry outside the window is kNone, so the wider
        // ring only needs the window's entries re-placed.
        std::vector<std::uint32_t> wider(ring_.size() * 2, kNone);
        const std::size_t mask = wider.size() - 1;
        for (std::uint64_t id = base_; id < end_; ++id)
            wider[id & mask] = ring_[id & mask_];
        ring_.swap(wider);
        mask_ = mask;
    }

    std::vector<std::uint32_t> ring_; ///< slot of id at [id & mask_]
    std::size_t mask_;
    std::uint64_t base_ = 0; ///< oldest possibly-live id
    std::uint64_t end_ = 0;  ///< next id
    std::size_t live_ = 0;
    sim::SlotPool<T> pool_;
};

/**
 * Move the entries of @p fifo due by @p t1 into @p due, sorted by
 * @p key (a tuple led by the deadline). The fifo's deadlines must be
 * nondecreasing, so the due entries are its prefix and the sort only
 * settles ties.
 */
template <typename T, typename Key>
void
takeDue(sim::RingFifo<T> &fifo, sim::Tick t1, Key key, std::vector<T> &due)
{
    due.clear();
    while (!fifo.empty() && std::get<0>(key(fifo.front())) <= t1) {
        due.push_back(fifo.front());
        fifo.pop();
    }
    std::sort(due.begin(), due.end(), [&key](const T &a, const T &b) {
        return key(a) < key(b);
    });
}

} // namespace apc::fleet

#endif // APC_FLEET_FLIGHT_TABLE_H
