/**
 * @file
 * NIC device model: RX/TX descriptor rings, an interrupt-moderation
 * unit, and DMA over the hosting PCIe IoLink.
 *
 * The NIC is the wake source the paper's argument hinges on: a request
 * arriving over the wire does not touch a core directly — it lands in
 * the RX descriptor ring and waits for the moderation unit to raise an
 * interrupt. Moderation mirrors the two `ethtool -C` knobs:
 *
 * - `rx-frames`: raise the interrupt once the ring holds that many
 *   unsignalled descriptors;
 * - `rx-usecs`: or once the oldest unsignalled descriptor has waited
 *   that long (0 = interrupt per packet).
 *
 * When the interrupt fires, the batch is DMA'd over the PCIe link —
 * which is what drops the link out of L0s/L1, deasserts `InL0s`, and
 * makes the APMU run the package C-state exit. The coalescing window
 * therefore trades p99 latency (packets wait in the ring) against
 * package C-state residency and joules/request (fewer wakes, shared
 * wake cost) — the trade-off `bench_net_coalescing` sweeps.
 *
 * A full ring drops the packet (tail drop); the owner may resend via
 * the drop hook. The device draws power on the `Network` plane, outside
 * the RAPL Package/DRAM domains, like a real PCIe adapter.
 */

#ifndef APC_NET_NIC_H
#define APC_NET_NIC_H

#include <cstdint>
#include <vector>

#include "io/io_link.h"
#include "power/energy_meter.h"
#include "sim/inline_function.h"
#include "sim/simulation.h"
#include "stats/summary.h"

namespace apc::net {

/** NIC device + interrupt-moderation configuration. */
struct NicConfig
{
    /** Gate for ServerSim: off = legacy direct injection path. */
    bool enabled = false;

    /** RX descriptor-ring capacity; a full ring tail-drops. */
    std::size_t rxRingSize = 256;

    /** Interrupt after this many unsignalled RX descriptors. */
    std::uint32_t rxFrames = 32;

    /** ... or once the oldest descriptor waited this long (0 = every
     *  packet raises its own interrupt immediately). */
    sim::Tick rxUsecs = 20 * sim::kUs;

    /** PCIe link occupancy per DMA'd descriptor (RX and TX). */
    sim::Tick dmaPerPacket = 200 * sim::kNs;

    /** Device power: baseline, and while a DMA burst is in flight. */
    double idleW = 4.5;
    double activeW = 7.0;
};

/** Counters over one measurement window. */
struct NicStats
{
    std::uint64_t interrupts = 0;
    std::uint64_t rxPackets = 0; ///< accepted into the ring
    std::uint64_t rxDropped = 0; ///< ring-full tail drops
    std::uint64_t rxAborted = 0; ///< ring descriptors destroyed by a crash
    std::uint64_t txPackets = 0;

    /** Batch size per interrupt. */
    stats::Summary pktsPerIrq;

    /** Descriptor wait in the ring (enqueue -> interrupt), µs. */
    stats::Summary ringWaitUs;
};

/** One NIC on a PCIe link. */
class Nic
{
  public:
    /** An RX descriptor: the request it carries and when it landed. */
    struct RxPacket
    {
        std::uint64_t id;
        sim::Tick service;
        sim::Tick enqueuedAt;
    };

    /**
     * Batch delivery after the interrupt's DMA completed. @p irq_at is
     * the instant the interrupt was raised (DMA start), so the receiver
     * can account the NIC-wake -> fabric-ready latency. The receiver
     * may move the batch out (and recycle() it later); whatever it
     * leaves behind is recycled on return.
     */
    using DeliverFn = sim::InplaceFunction<
        void(std::vector<RxPacket> &batch, sim::Tick irq_at), 16>;

    /** Ring-full tail drop of the packet carrying @p id. */
    using DropFn =
        sim::InplaceFunction<void(std::uint64_t id, sim::Tick at), 16>;

    /** A response's TX completion; it rides inside the DMA completion,
     *  so it takes a small capture. */
    using TxDone = sim::InplaceFunction<void(), 32>;

    Nic(sim::Simulation &sim, power::EnergyMeter &meter, io::IoLink &link,
        const NicConfig &cfg);

    void onDeliver(DeliverFn fn) { deliverFn_ = std::move(fn); }
    void onDrop(DropFn fn) { dropFn_ = std::move(fn); }

    /**
     * A packet arrives from the wire into the RX ring. May raise the
     * interrupt immediately (frame threshold / zero window) or arm the
     * moderation timer.
     */
    void rxEnqueue(std::uint64_t id, sim::Tick service);

    /** DMA one response to the wire; @p done when it has left the NIC. */
    void txSend(TxDone done);

    /**
     * Hand a delivered batch's buffer back once its packets are
     * admitted: the next interrupt's ring reuses it instead of
     * allocating a fresh one. Keeps one spare; a second is freed.
     */
    void
    recycle(std::vector<RxPacket> &&buf)
    {
        if (spare_.capacity() < buf.capacity()) {
            buf.clear();
            spare_ = std::move(buf);
        }
    }

    /** Unsignalled RX descriptors currently waiting. */
    std::size_t ringOccupancy() const { return ring_.size(); }

    /**
     * Freeze the moderation unit until @p until: no interrupts fire, so
     * the ring fills and eventually tail-drops — the observable symptom
     * of a wedged IRQ path. Packets keep landing in the ring; at the
     * window end the backlog flushes through one interrupt. Extending
     * an active freeze is allowed (windows merge).
     */
    void freeze(sim::Tick until);

    /** True while the moderation unit is frozen. */
    bool frozen() const { return sim_.now() < frozenUntil_; }

    /**
     * Server crash: destroy every unsignalled RX descriptor and cancel
     * the moderation timer. The owner reports the ids they carried as
     * lost (a crash never silently vanishes work). A DMA batch already
     * in flight is not recalled; the owner discards it on delivery by
     * its pre-crash enqueue time.
     */
    void crashAbort();

    const NicStats &stats() const { return stats_; }

    /** Zero the counters (start of a measurement window). */
    void resetStats() { stats_ = NicStats{}; }

    /** Device energy so far (Network plane), joules. */
    double energyJoules() const { return load_.energyJoules(); }

    const NicConfig &config() const { return cfg_; }

  private:
    void fireInterrupt();
    void dmaBegin();
    void dmaEnd();

    sim::Simulation &sim_;
    NicConfig cfg_;
    io::IoLink &link_;
    power::PowerLoad load_;
    std::vector<RxPacket> ring_;
    std::vector<RxPacket> spare_; ///< an empty recycled ring buffer
    sim::EventHandle timer_;
    sim::Tick frozenUntil_ = 0;
    int dmaInFlight_ = 0;
    NicStats stats_;
    DeliverFn deliverFn_;
    DropFn dropFn_;
};

} // namespace apc::net

#endif // APC_NET_NIC_H
