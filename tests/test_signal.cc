/**
 * @file
 * Unit tests for the wire/signal model (sim/signal.h).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/signal.h"

namespace apc::sim {
namespace {

/** Rising and falling edges one observer has seen. */
struct EdgeCount
{
    std::uint64_t rising = 0;
    std::uint64_t falling = 0;
};

/** Subscribe an observer on @p w that counts its edges into @p c. */
void
countEdges(Signal &w, EdgeCount &c)
{
    w.subscribe([&c](bool v) { v ? ++c.rising : ++c.falling; });
}

TEST(Signal, InitialValue)
{
    Simulation s;
    Signal w(s, false);
    EXPECT_FALSE(w.read());
    Signal w2(s, true);
    EXPECT_TRUE(w2.read());
}

TEST(Signal, WriteNotifiesOnEdgeOnly)
{
    Simulation s;
    Signal w(s);
    int edges = 0;
    w.subscribe([&](bool) { ++edges; });
    EdgeCount c;
    countEdges(w, c);
    w.write(true);
    w.write(true); // no edge
    w.write(false);
    EXPECT_EQ(edges, 2);
    EXPECT_EQ(c.rising, 1u);
    EXPECT_EQ(c.falling, 1u);
}

TEST(Signal, ObserverReceivesNewLevel)
{
    Simulation s;
    Signal w(s);
    std::vector<bool> seen;
    w.subscribe([&](bool v) { seen.push_back(v); });
    w.set();
    w.clear();
    EXPECT_EQ(seen, (std::vector<bool>{true, false}));
}

TEST(Signal, ThirdSubscribeThrowsAndFirstTwoStillFireInOrder)
{
    Simulation s;
    Signal w(s);
    std::vector<int> order;
    w.subscribe([&](bool) { order.push_back(1); });
    w.subscribe([&](bool) { order.push_back(2); });
    EXPECT_THROW(w.subscribe([&](bool) { order.push_back(3); }),
                 std::logic_error);
    w.set();
    w.clear();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2}));
}

TEST(Signal, SubscribeDuringDispatchMissesInFlightEdgeOnly)
{
    // The slots never move, so an observer may subscribe another one
    // mid-dispatch and still read its own captures afterwards. The
    // newcomer misses the edge in flight and sees every later edge.
    Simulation s;
    Signal w(s);
    struct
    {
        std::vector<bool> late;
        std::uint64_t captured = 0xfeedface;
        std::uint64_t seen = 0;
        bool subscribed = false;
    } st;
    w.subscribe([&w, &st](bool) {
        if (!st.subscribed) {
            st.subscribed = true;
            w.subscribe([&st](bool v) { st.late.push_back(v); });
        }
        st.seen = st.captured;
    });
    w.set();
    EXPECT_EQ(st.seen, 0xfeedfaceu);
    EXPECT_TRUE(st.late.empty());
    w.clear();
    w.set();
    EXPECT_EQ(st.late, (std::vector<bool>{false, true}));
}

TEST(Signal, WriteAfterAppliesAtDelay)
{
    Simulation s;
    Signal w(s);
    Tick seen_at = -1;
    w.subscribe([&](bool v) {
        if (v)
            seen_at = s.now();
    });
    w.writeAfter(5 * kNs, true);
    EXPECT_FALSE(w.read()); // not yet
    s.runAll();
    EXPECT_TRUE(w.read());
    EXPECT_EQ(seen_at, 5 * kNs);
}

TEST(Signal, LastWriteWinsOverInFlightDelayed)
{
    Simulation s;
    Signal w(s);
    w.writeAfter(10 * kNs, true);
    // A newer immediate write supersedes the scheduled one.
    w.write(false);
    s.runAll();
    EXPECT_FALSE(w.read());
}

TEST(Signal, NewerDelayedWriteSupersedesOlder)
{
    Simulation s;
    Signal w(s);
    EdgeCount c;
    countEdges(w, c);
    w.writeAfter(10 * kNs, true);
    w.writeAfter(2 * kNs, false); // supersedes; stays false
    s.runAll();
    EXPECT_FALSE(w.read());
    EXPECT_EQ(c.rising, 0u);
}

TEST(Signal, SameLevelDelayedWriteSchedulesNothing)
{
    // Driving the level the wire already has can never make an edge,
    // so it must not cost an event.
    Simulation s;
    Signal w(s, true);
    EdgeCount c;
    countEdges(w, c);
    w.writeAfter(10 * kNs, true);
    EXPECT_EQ(s.events().pendingEvents(), 0u);

    // It still supersedes an opposite write in flight (last write
    // wins), and that write's event is gone too.
    w.writeAfter(10 * kNs, false);
    EXPECT_EQ(s.events().pendingEvents(), 1u);
    w.writeAfter(5 * kNs, true);
    EXPECT_EQ(s.events().pendingEvents(), 0u);
    s.runAll();
    EXPECT_TRUE(w.read());
    EXPECT_EQ(c.falling, 0u);
    EXPECT_EQ(s.events().executedEvents(), 0u);
}

TEST(Signal, RedrivingPendingLevelRetimesTheEdge)
{
    // Re-driving the level already in flight is not a no-op: the edge
    // moves to the newer write's delay, later or earlier.
    Simulation s;
    Signal w(s);
    std::vector<Tick> rises;
    w.subscribe([&](bool v) {
        if (v)
            rises.push_back(s.now());
    });
    w.writeAfter(10 * kNs, true);
    s.runUntil(4 * kNs);
    w.writeAfter(10 * kNs, true); // later: lands at 14 ns, not 10
    EXPECT_EQ(s.events().pendingEvents(), 1u);
    s.runUntil(12 * kNs);
    EXPECT_FALSE(w.read());
    w.writeAfter(1 * kNs, true); // earlier: lands at 13 ns, not 14
    s.runAll();
    EXPECT_EQ(rises, (std::vector<Tick>{13 * kNs}));
}

TEST(Signal, ZeroDelayWriteAfterIsImmediate)
{
    Simulation s;
    Signal w(s);
    w.writeAfter(0, true);
    EXPECT_TRUE(w.read());
}

TEST(AndTree, EmptyTreeIsFalse)
{
    Simulation s;
    AndTree t(s, 0);
    EXPECT_FALSE(t.combinational());
    EXPECT_FALSE(t.output().read());
}

TEST(AndTree, OutputRisesWhenAllInputsHigh)
{
    Simulation s;
    Signal a(s), b(s), c(s);
    AndTree t(s, 0);
    t.addInput(a);
    t.addInput(b);
    t.addInput(c);
    a.set();
    b.set();
    s.runAll();
    EXPECT_FALSE(t.output().read());
    c.set();
    s.runAll();
    EXPECT_TRUE(t.output().read());
}

TEST(AndTree, OutputFallsWhenAnyInputDrops)
{
    Simulation s;
    Signal a(s, true), b(s, true);
    AndTree t(s, 0);
    t.addInput(a);
    t.addInput(b);
    s.runAll();
    EXPECT_TRUE(t.output().read());
    a.clear();
    s.runAll();
    EXPECT_FALSE(t.output().read());
}

TEST(AndTree, PropagationDelayApplies)
{
    Simulation s;
    Signal a(s), b(s);
    AndTree t(s, 2 * kNs);
    t.addInput(a);
    t.addInput(b);
    Tick rise_at = -1;
    t.output().subscribe([&](bool v) {
        if (v)
            rise_at = s.now();
    });
    s.runUntil(100 * kNs);
    a.set();
    b.set();
    s.runAll();
    EXPECT_EQ(rise_at, 102 * kNs);
}

TEST(AndTree, GlitchShorterThanDelayIsSwallowed)
{
    Simulation s;
    Signal a(s, true), b(s, true);
    AndTree t(s, 2 * kNs);
    t.addInput(a);
    t.addInput(b);
    s.runAll();
    ASSERT_TRUE(t.output().read());
    // Drop and re-raise within the propagation delay: last-change-wins
    // means the output never falls.
    int falls = 0;
    t.output().subscribe([&](bool v) {
        if (!v)
            ++falls;
    });
    a.clear();
    a.set();
    s.runAll();
    EXPECT_TRUE(t.output().read());
    EXPECT_EQ(falls, 0);
}

TEST(AndTree, AlreadyHighInputsReflectedAtAttach)
{
    Simulation s;
    Signal a(s, true), b(s, true);
    AndTree t(s, 0);
    t.addInput(a);
    t.addInput(b);
    s.runAll();
    EXPECT_TRUE(t.output().read());
}

/** The AND tree as specified: recompute all_of over the inputs on
 *  every input edge, and drive the output after the delay. */
class ReferenceAndTree
{
  public:
    ReferenceAndTree(Simulation &sim, Tick prop_delay)
        : propDelay_(prop_delay), out_(sim, false)
    {}

    void
    addInput(Signal &in)
    {
        inputs_.push_back(&in);
        in.subscribe([this](bool) { update(); });
        update();
    }

    Signal &output() { return out_; }

  private:
    void
    update()
    {
        out_.writeAfter(propDelay_,
                        std::all_of(inputs_.begin(), inputs_.end(),
                                    [](const Signal *s) { return s->read(); }));
    }

    Tick propDelay_;
    Signal out_;
    std::vector<Signal *> inputs_;
};

TEST(AndTree, CountingTreeMatchesRecomputingReference)
{
    // Two identical simulations take the same seeded toggle stream:
    // one drives the counting AndTree, the other the reference. After
    // every step the output levels, the edge counts an observer on each
    // output sees, and the queues' pending counts must agree.
    const Tick delay = 2 * kNs;
    std::uint64_t state = 0x5EED;
    auto next = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    };
    for (const std::size_t n : {1u, 2u, 10u, 16u}) {
        Simulation simA, simB;
        std::vector<std::unique_ptr<Signal>> inA, inB;
        AndTree tree(simA, delay);
        ReferenceAndTree ref(simB, delay);
        EdgeCount treeEdges, refEdges;
        countEdges(tree.output(), treeEdges);
        countEdges(ref.output(), refEdges);
        for (std::size_t i = 0; i < n; ++i) {
            // Most inputs start high, so the output actually toggles.
            const bool high = next() % 4 != 0;
            inA.push_back(std::make_unique<Signal>(simA, high));
            inB.push_back(std::make_unique<Signal>(simB, high));
            tree.addInput(*inA.back());
            ref.addInput(*inB.back());
        }
        for (int step = 0; step < 4000; ++step) {
            const std::uint64_t r = next();
            const std::size_t i = r % n;
            // Bias toward high levels: an AND of 16 inputs otherwise
            // almost never rises.
            const bool v = (r >> 8) % 8 != 0;
            switch ((r >> 12) % 4) {
              case 0:
                inA[i]->write(v);
                inB[i]->write(v);
                break;
              case 1:
              case 2: {
                const Tick d = static_cast<Tick>((r >> 16) % 6) * kNs;
                inA[i]->writeAfter(d, v);
                inB[i]->writeAfter(d, v);
                break;
              }
              default: {
                const Tick until =
                    simA.now() + static_cast<Tick>((r >> 16) % 5) * kNs;
                simA.runUntil(until);
                simB.runUntil(until);
                break;
              }
            }
            const std::string where =
                "n=" + std::to_string(n) + " step " + std::to_string(step);
            ASSERT_EQ(tree.output().read(), ref.output().read()) << where;
            ASSERT_EQ(treeEdges.rising, refEdges.rising) << where;
            ASSERT_EQ(treeEdges.falling, refEdges.falling) << where;
            ASSERT_EQ(simA.events().pendingEvents(),
                      simB.events().pendingEvents()) << where;
        }
        simA.runAll();
        simB.runAll();
        EXPECT_EQ(tree.output().read(), ref.output().read());
        EXPECT_GT(refEdges.rising, 0u) << "n=" << n;
        EXPECT_EQ(treeEdges.rising, refEdges.rising);
        EXPECT_EQ(treeEdges.falling, refEdges.falling);
    }
}

TEST(Signal, WriteAfterLandedEdgeSparesTheSlotsNextEvent)
{
    // Once a delayed edge lands, its pooled slot is recycled for the
    // next event scheduled. A later write or writeAfter on the wire
    // must not cancel that unrelated event.
    Simulation s;
    Signal w(s);
    w.writeAfter(10, true);
    s.runUntil(10);
    ASSERT_TRUE(w.read());
    int fired = 0;
    EventHandle other = s.after(5, [&] { ++fired; });
    w.write(false);
    EXPECT_TRUE(other.pending());
    w.writeAfter(3, true);
    EXPECT_TRUE(other.pending());
    s.runAll();
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(w.read());
}

} // namespace
} // namespace apc::sim
