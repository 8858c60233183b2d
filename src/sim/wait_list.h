/**
 * @file
 * Callbacks parked until a component becomes ready (a link finishes
 * waking, a memory controller leaves self-refresh, the fabric
 * reopens), then run together in FIFO order.
 */

#ifndef APC_SIM_WAIT_LIST_H
#define APC_SIM_WAIT_LIST_H

#include <utility>
#include <vector>

#include "sim/inline_function.h"

namespace apc::sim {

/**
 * A FIFO of parked callbacks whose drain keeps its capacity. The list
 * ping-pongs between two buffers, so a component that sleeps and
 * wakes for every request reallocates neither once both have grown.
 */
class WaitList
{
  public:
    /** A parked callback: an event-sized inline callable. */
    using Fn = InplaceFunction<void()>;

    void push(Fn fn) { waiting_.push_back(std::move(fn)); }
    bool empty() const { return waiting_.empty(); }

    /**
     * Run every callback parked so far, in order. Callbacks parked
     * while the drain runs wait for the next drain. A nested drain
     * (a callback that drains this list again) runs the ones parked
     * since the outer drain began, like a move-out drain would.
     */
    void
    drain()
    {
        // Take the spare's buffer (an empty one while a drain is
        // already running), then trade it for the parked callbacks.
        std::vector<Fn> batch;
        batch.swap(spare_);
        batch.swap(waiting_);
        for (Fn &fn : batch)
            fn();
        batch.clear();
        spare_.swap(batch);
    }

  private:
    std::vector<Fn> waiting_;
    std::vector<Fn> spare_;
};

} // namespace apc::sim

#endif // APC_SIM_WAIT_LIST_H
