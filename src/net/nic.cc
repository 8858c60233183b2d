#include "net/nic.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/tracer.h"

namespace apc::net {

Nic::Nic(sim::Simulation &sim, power::EnergyMeter &meter,
         io::IoLink &link, const NicConfig &cfg)
    : sim_(sim), cfg_(cfg), link_(link),
      load_(meter, "nic-dev", power::Plane::Network, cfg.idleW)
{
    assert(cfg_.rxRingSize > 0 && cfg_.rxFrames > 0);
    ring_.reserve(cfg_.rxRingSize);
}

void
Nic::dmaBegin()
{
    if (dmaInFlight_++ == 0)
        load_.setPower(cfg_.activeW);
}

void
Nic::dmaEnd()
{
    assert(dmaInFlight_ > 0);
    if (--dmaInFlight_ == 0)
        load_.setPower(cfg_.idleW);
}

void
Nic::rxEnqueue(std::uint64_t id, sim::Tick service)
{
    if (ring_.size() >= cfg_.rxRingSize) {
        ++stats_.rxDropped;
        if (auto *tw = sim_.trace())
            tw->instant(sim_.now(), obs::Name::NicDrop, obs::Track::Nic,
                        id);
        dropFn_(id, sim_.now());
        return;
    }
    ring_.push_back({id, service, sim_.now()});
    ++stats_.rxPackets;
    if (frozen())
        return; // moderation wedged: descriptors pile up in the ring
    if (ring_.size() >= cfg_.rxFrames || cfg_.rxUsecs <= 0) {
        timer_.cancel();
        fireInterrupt();
    } else if (ring_.size() == 1) {
        // Timer runs from the oldest unsignalled descriptor.
        timer_ = sim_.after(cfg_.rxUsecs, [this] { fireInterrupt(); });
    }
}

void
Nic::freeze(sim::Tick until)
{
    if (until <= sim_.now())
        return;
    if (until <= frozenUntil_)
        return; // already frozen past that point
    frozenUntil_ = until;
    timer_.cancel();
    // Thaw events from earlier (shorter) windows fire while frozen()
    // is still true and fall through; only the final one flushes.
    sim_.at(frozenUntil_, [this] {
        if (frozen())
            return; // the window was extended; a later thaw is due
        // Flush the backlog the freeze accumulated in one interrupt;
        // an empty ring just resumes normal moderation.
        if (!ring_.empty())
            fireInterrupt();
    });
}

void
Nic::crashAbort()
{
    timer_.cancel();
    stats_.rxAborted += ring_.size();
    ring_.clear();
}

void
Nic::fireInterrupt()
{
    if (ring_.empty())
        return;
    std::vector<RxPacket> batch = std::move(ring_);
    ring_.swap(spare_);
    ring_.reserve(cfg_.rxRingSize); // allocates only without a spare

    const sim::Tick irq_at = sim_.now();
    ++stats_.interrupts;
    if (auto *tw = sim_.trace())
        tw->instant(irq_at, obs::Name::NicIrq, obs::Track::Nic, 0,
                    static_cast<double>(batch.size()));
    stats_.pktsPerIrq.record(static_cast<double>(batch.size()));
    for (const RxPacket &p : batch)
        stats_.ringWaitUs.record(sim::toMicros(irq_at - p.enqueuedAt));

    // The DMA burst is what wakes the PCIe link (L0s/L1 exit) and, via
    // the dropped InL0s wire, the package — a coalesced interrupt, not
    // the request itself, exits the C-state.
    dmaBegin();
    const sim::Tick dma =
        static_cast<sim::Tick>(batch.size()) * cfg_.dmaPerPacket;
    link_.transfer(dma, [this, irq_at, batch = std::move(batch)]() mutable {
        dmaEnd();
        deliverFn_(batch, irq_at);
        recycle(std::move(batch));
    });
}

void
Nic::txSend(TxDone done)
{
    ++stats_.txPackets;
    dmaBegin();
    link_.transfer(cfg_.dmaPerPacket,
                   [this, done = std::move(done)] {
                       dmaEnd();
                       done();
                   });
}

} // namespace apc::net
