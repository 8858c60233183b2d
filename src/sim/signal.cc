#include "sim/signal.h"

#include <algorithm>
#include <utility>

namespace apc::sim {

void
Signal::applyEdge(bool v)
{
    if (v == value_)
        return;
    value_ = v;
    if (v)
        ++rising_;
    else
        ++falling_;
    // Dispatch in place over a snapshot of the current length — no
    // per-edge copy of the observer list. subs_ must not reallocate
    // while a callable stored inline in it is executing, so both list
    // mutations are deferred mid-dispatch: observers subscribed during
    // dispatch are parked in pendingAdds_ (they miss every edge
    // delivered before the outermost dispatch unwinds), and observers
    // unsubscribed during dispatch are tombstoned (id 0) and skipped,
    // so a self-unsubscribing callback is never destroyed mid-call.
    const std::size_t n = subs_.size();
    ++dispatchDepth_;
    for (std::size_t i = 0; i < n; ++i) {
        if (subs_[i].id != 0)
            subs_[i].fn(v);
    }
    if (--dispatchDepth_ == 0) {
        if (pendingRemoval_) {
            subs_.erase(std::remove_if(subs_.begin(), subs_.end(),
                                       [](const Sub &s) { return s.id == 0; }),
                        subs_.end());
            pendingRemoval_ = false;
        }
        if (!pendingAdds_.empty()) {
            subs_.insert(subs_.end(),
                         std::make_move_iterator(pendingAdds_.begin()),
                         std::make_move_iterator(pendingAdds_.end()));
            pendingAdds_.clear();
        }
    }
}

void
Signal::write(bool v)
{
    // Any direct write supersedes an in-flight delayed write.
    std::exchange(pendingWrite_, {}).cancel();
    applyEdge(v);
}

void
Signal::writeAfter(Tick delay, bool v)
{
    if (delay <= 0) {
        write(v);
        return;
    }
    std::exchange(pendingWrite_, {}).cancel();
    if (v != value_)
        pendingWrite_ = sim_.after(delay, [this, v] {
            pendingWrite_ = {};
            applyEdge(v);
        });
}

std::uint64_t
Signal::subscribe(SignalObserver fn)
{
    const std::uint64_t id = nextSub_++;
    // A push_back during dispatch could reallocate subs_ out from under
    // the inline callable currently executing; park the new observer
    // until the outermost dispatch unwinds.
    auto &dst = dispatchDepth_ > 0 ? pendingAdds_ : subs_;
    dst.push_back(Sub{id, std::move(fn)});
    return id;
}

void
Signal::unsubscribe(std::uint64_t id)
{
    if (id == 0)
        return;
    auto it = std::find_if(subs_.begin(), subs_.end(),
                           [id](const Sub &s) { return s.id == id; });
    if (it == subs_.end()) {
        // Not yet merged: subscribed and unsubscribed within the same
        // dispatch. pendingAdds_ is never iterated mid-dispatch, so a
        // direct erase is safe.
        auto pit = std::find_if(pendingAdds_.begin(), pendingAdds_.end(),
                                [id](const Sub &s) { return s.id == id; });
        if (pit != pendingAdds_.end())
            pendingAdds_.erase(pit);
        return;
    }
    if (dispatchDepth_ > 0) {
        it->id = 0;
        pendingRemoval_ = true;
    } else {
        subs_.erase(it);
    }
}

AndTree::AndTree(Simulation &sim, const std::string &name, Tick prop_delay)
    : propDelay_(prop_delay), out_(sim, name, false)
{}

void
AndTree::addInput(Signal &in)
{
    ++inputs_;
    if (in.read())
        ++high_;
    // Observers run only on real edges, so the count stays exact.
    in.subscribe([this](bool v) {
        v ? ++high_ : --high_;
        onInputEdge();
    });
    // Reflect the (possibly already-true) combinational value.
    onInputEdge();
}

void
AndTree::onInputEdge()
{
    out_.writeAfter(propDelay_, combinational());
}

} // namespace apc::sim
