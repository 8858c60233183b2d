#include "power/clock_tree.h"

namespace apc::power {

ClockTree::ClockTree(sim::Simulation &sim, const ClockTreeConfig &cfg)
    : sim_(sim), cfg_(cfg), running_(sim, true)
{}

void
ClockTree::gate()
{
    running_.writeAfter(cfg_.gateLatency, false);
}

void
ClockTree::ungate()
{
    running_.writeAfter(cfg_.gateLatency, true);
}

} // namespace apc::power
