#include "sim/signal.h"

#include <stdexcept>
#include <utility>

namespace apc::sim {

void
Signal::applyEdge(bool v)
{
    if (v == value_)
        return;
    value_ = v;
    // The count is read once: an observer subscribed by one of these
    // callbacks lands in a slot past n and first sees the next edge.
    const std::uint8_t n = numObservers_;
    for (std::uint8_t i = 0; i < n; ++i)
        observers_[i](v);
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

void
Signal::subscribe(SignalObserver fn)
{
    if (numObservers_ == kMaxObservers)
        throw std::logic_error("sim::Signal: a wire carries at most two "
                               "observers");
    observers_[numObservers_++] = std::move(fn);
}

AndTree::AndTree(Simulation &sim, Tick prop_delay)
    : propDelay_(prop_delay), out_(sim, false)
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
