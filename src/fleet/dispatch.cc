#include "fleet/dispatch.h"

#include <algorithm>
#include <cassert>

namespace apc::fleet {

// ----------------------------------------------------------------- MinIndex

void
MinIndex::assign(const std::vector<std::uint32_t> &values)
{
    n_ = values.size();
    base_ = 1;
    while (base_ < n_)
        base_ <<= 1;
    t_.assign(2 * base_, kInf); // padding leaves stay at infinity
    std::copy(values.begin(), values.end(), t_.begin() + base_);
    for (std::size_t i = base_; i-- > 1;)
        t_[i] = std::min(t_[2 * i], t_[2 * i + 1]);
}

void
MinIndex::set(std::size_t i, std::uint32_t v)
{
    i += base_;
    t_[i] = v;
    for (i >>= 1; i >= 1; i >>= 1) {
        const std::uint32_t m = std::min(t_[2 * i], t_[2 * i + 1]);
        if (t_[i] == m)
            break;
        t_[i] = m;
    }
}

std::size_t
MinIndex::argmin() const
{
    if (n_ == 0)
        return npos;
    std::size_t node = 1;
    // <= prefers the left child on ties: lowest index wins, exactly
    // like a left-to-right scan.
    while (node < base_)
        node = t_[2 * node] <= t_[2 * node + 1] ? 2 * node
                                                : 2 * node + 1;
    return node - base_;
}

std::size_t
MinIndex::firstUnder(std::uint32_t bound) const
{
    if (n_ == 0 || t_[1] >= bound)
        return npos;
    std::size_t node = 1;
    while (node < base_)
        node = t_[2 * node] < bound ? 2 * node : 2 * node + 1;
    return node - base_;
}

// ------------------------------------------------------------- Dispatcher

Dispatcher::Dispatcher(DispatchKind kind, std::size_t num_servers,
                       std::uint32_t pack_budget)
    : kind_(kind), packBudget_(pack_budget), removed_(num_servers, 0)
{
    refresh(std::vector<std::uint32_t>(num_servers, 0));
}

void
Dispatcher::refresh(const std::vector<std::uint32_t> &outstanding)
{
    assert(outstanding.size() == removed_.size());
    idx_.assign(outstanding);
    // Removals survive the epoch-boundary view reload: a Down server's
    // (possibly non-zero, still-draining) outstanding count must not
    // bring it back into the pick set.
    for (std::size_t i = 0; i < removed_.size(); ++i)
        if (removed_[i])
            idx_.set(i, MinIndex::kInf);
}

std::size_t
Dispatcher::pick()
{
    switch (kind_) {
      case DispatchKind::RoundRobin:
        // Cycles through the servers irrespective of load; the cursor
        // moves past every server it skips.
        for (std::size_t tries = 0; tries < idx_.size(); ++tries) {
            const std::size_t i = next_;
            next_ = (next_ + 1) % idx_.size();
            if (idx_.get(i) != MinIndex::kInf)
                return i;
        }
        return kNone;
      case DispatchKind::PowerAwarePacking:
        // Consolidate: the first server (by fixed index order) under
        // the budget wins; when all are at budget, join the shortest
        // queue, so overload degrades into spreading instead of
        // unbounded queueing.
        if (const std::size_t i = idx_.firstUnder(packBudget_);
            i != MinIndex::npos)
            return i;
        return shortestQueue();
      case DispatchKind::LeastOutstanding:
        break;
    }
    return shortestQueue();
}

std::size_t
Dispatcher::shortestQueue() const
{
    const std::size_t i = idx_.argmin();
    return i != MinIndex::npos && idx_.get(i) != MinIndex::kInf ? i
                                                                : kNone;
}

void
Dispatcher::onDispatch(std::size_t srv)
{
    // An excluded server's live count is parked in saved_.
    for (auto &[s, v] : saved_)
        if (s == srv) {
            ++v;
            return;
        }
    idx_.add(srv, 1);
}

void
Dispatcher::exclude(std::size_t srv)
{
    saved_.emplace_back(srv, idx_.get(srv));
    idx_.set(srv, MinIndex::kInf);
}

void
Dispatcher::clearExclusions()
{
    for (const auto &[s, v] : saved_)
        if (!removed_[s])
            idx_.set(s, v);
    saved_.clear();
}

void
Dispatcher::remove(std::size_t srv)
{
    // If the server is also excluded, its live count sits in saved_;
    // clearExclusions() skips removed servers, so parking the leaf at
    // infinity here is final either way.
    removed_[srv] = 1;
    idx_.set(srv, MinIndex::kInf);
}

void
Dispatcher::reinsert(std::size_t srv, std::uint32_t outstanding)
{
    if (!removed_[srv])
        return;
    removed_[srv] = 0;
    idx_.set(srv, outstanding);
}

} // namespace apc::fleet
