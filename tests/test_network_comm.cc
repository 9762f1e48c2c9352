/**
 * @file
 * End-to-end tests for the two communication models: max-min fair
 * flows and packet-level store-and-forward, over several topologies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "network/fluid/net_model.hh"
#include "network/network.hh"
#include "network/routing.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

using namespace holdcsim;

namespace {

constexpr BitsPerSec gbps = 1e9;
constexpr Tick lat = 5 * usec;

struct NetFixture : ::testing::Test {
    Simulator sim;
    SwitchPowerProfile prof = SwitchPowerProfile::cisco2960_24();
    std::unique_ptr<Network> net;

    void
    make(Topology topo, NetworkConfig cfg = {})
    {
        net = std::make_unique<Network>(sim, std::move(topo), prof,
                                        cfg);
    }
};

} // namespace

TEST_F(NetFixture, SingleFlowFullLineRate)
{
    make(Topology::star(4, gbps, lat));
    Tick done_at = 0;
    net->startFlow(0, 1, 125'000'000, [&] { done_at = sim.curTick(); });
    sim.run();
    // 1 Gb of data at 1 Gb/s: about one second (plus negligible
    // wake-up of the two ports, which start active).
    EXPECT_NEAR(toSeconds(done_at), 1.0, 0.01);
    EXPECT_EQ(net->flows().flowsCompleted(), 1u);
}

TEST_F(NetFixture, TwoFlowsShareBottleneck)
{
    make(Topology::star(4, gbps, lat));
    // Both flows converge on server 1's link: each gets 500 Mb/s.
    std::vector<Tick> done;
    net->startFlow(0, 1, 62'500'000,
                   [&] { done.push_back(sim.curTick()); });
    net->startFlow(2, 1, 62'500'000,
                   [&] { done.push_back(sim.curTick()); });
    sim.run();
    ASSERT_EQ(done.size(), 2u);
    // 0.5 Gb each at 0.5 Gb/s share: ~1 s.
    EXPECT_NEAR(toSeconds(done[0]), 1.0, 0.02);
    EXPECT_NEAR(toSeconds(done[1]), 1.0, 0.02);
}

TEST_F(NetFixture, DisjointFlowsDontShare)
{
    make(Topology::star(4, gbps, lat));
    std::vector<Tick> done;
    net->startFlow(0, 1, 62'500'000,
                   [&] { done.push_back(sim.curTick()); });
    net->startFlow(2, 3, 62'500'000,
                   [&] { done.push_back(sim.curTick()); });
    sim.run();
    ASSERT_EQ(done.size(), 2u);
    // Each ~0.5 s: no common bottleneck in a star with distinct
    // endpoints.
    EXPECT_NEAR(toSeconds(done[0]), 0.5, 0.01);
    EXPECT_NEAR(toSeconds(done[1]), 0.5, 0.01);
}

TEST_F(NetFixture, LateFlowSlowsEarlyFlow)
{
    make(Topology::star(4, gbps, lat));
    Tick done_a = 0;
    net->startFlow(0, 1, 125'000'000, [&] { done_a = sim.curTick(); });
    // After 0.5 s, a second flow contends for server 1's link.
    EventFunctionWrapper later(
        [&] {
            net->startFlow(2, 1, 125'000'000, [] {});
        },
        "later");
    sim.schedule(later, 500 * msec);
    sim.run();
    // Flow A: 0.5 s at full rate (half done), then the remaining
    // 0.5 Gb at 0.5 Gb/s = 1 more second -> ~1.5 s total.
    EXPECT_NEAR(toSeconds(done_a), 1.5, 0.03);
}

TEST_F(NetFixture, SelfFlowCompletesImmediately)
{
    make(Topology::star(4, gbps, lat));
    Tick done_at = maxTick;
    net->startFlow(2, 2, 1'000'000, [&] { done_at = sim.curTick(); });
    sim.run();
    EXPECT_LT(done_at, 1 * msec);
}

TEST_F(NetFixture, FlowKeepsPortsOutOfLpi)
{
    make(Topology::star(4, gbps, lat));
    net->startFlow(0, 1, 125'000'000, [] {});
    sim.runUntil(500 * msec);
    auto &sw = net->switchAt(0);
    EXPECT_EQ(sw.port(0).state(), PortState::active);
    EXPECT_EQ(sw.port(1).state(), PortState::active);
    EXPECT_EQ(sw.port(2).state(), PortState::lpi);
    sim.run();
    sim.runUntil(sim.curTick() + 10 * msec);
    EXPECT_EQ(sw.port(0).state(), PortState::lpi);
}

TEST_F(NetFixture, SleepingSwitchDelaysFlow)
{
    NetworkConfig cfg;
    cfg.switchSleepDelay = 100 * msec;
    make(Topology::star(4, gbps, lat), cfg);
    sim.runUntil(1 * sec);
    ASSERT_TRUE(net->switchAt(0).asleep());
    EXPECT_EQ(net->sleepingSwitches(), 1u);
    EXPECT_EQ(net->sleepingSwitchesOnPath(0, 1), 1u);
    Tick t0 = sim.curTick();
    Tick done_at = 0;
    net->startFlow(0, 1, 1250, [&] { done_at = sim.curTick(); });
    EXPECT_FALSE(net->switchAt(0).asleep());
    sim.run();
    // 10 us of payload, but the switch wake dominates.
    EXPECT_GE(done_at - t0, prof.switchWakeLatency);
    // After the flow ends and the queue drains, the idle switch has
    // re-armed and re-entered sleep.
    EXPECT_EQ(net->sleepingSwitches(), 1u);
    EXPECT_EQ(net->switchAt(0).sleepTransitions(), 2u);
}

TEST_F(NetFixture, FatTreeCrossPodFlow)
{
    make(Topology::fatTree(4, gbps, lat));
    Tick done_at = 0;
    net->startFlow(0, 15, 12'500'000, [&] { done_at = sim.curTick(); });
    sim.run();
    EXPECT_NEAR(toSeconds(done_at), 0.1, 0.01);
    EXPECT_EQ(net->flows().flowsCompleted(), 1u);
}

TEST_F(NetFixture, ManyConcurrentFlowsAllComplete)
{
    make(Topology::fatTree(4, gbps, lat));
    int done = 0;
    for (std::size_t s = 0; s < 16; ++s) {
        net->startFlow(s, (s + 5) % 16, 1'000'000,
                       [&] { ++done; });
    }
    sim.run();
    EXPECT_EQ(done, 16);
    EXPECT_EQ(net->flows().activeFlows(), 0u);
}

// ------------------------------------------------------------- packet level

TEST_F(NetFixture, PacketEndToEndLatency)
{
    make(Topology::star(4, gbps, lat));
    Tick delivered = 0;
    net->sendPacket(0, 1, 1500, [&](const Packet &) {
        delivered = sim.curTick();
    });
    sim.run();
    // Two serializations (NIC + switch port), two link latencies and
    // one forwarding delay.
    Tick expected = 2 * 12 * usec + 2 * lat + 1 * usec;
    EXPECT_EQ(delivered, expected);
    EXPECT_EQ(net->packetsDelivered(), 1u);
}

TEST_F(NetFixture, PacketThroughFatTree)
{
    make(Topology::fatTree(4, gbps, lat));
    int got = 0;
    for (int i = 0; i < 10; ++i)
        net->sendPacket(0, 15, 1500,
                        [&](const Packet &) { ++got; });
    sim.run();
    EXPECT_EQ(got, 10);
    EXPECT_EQ(net->packetsDelivered(), 10u);
    EXPECT_GT(net->packetLatency().mean(), 0.0);
}

TEST_F(NetFixture, PacketLocalDelivery)
{
    make(Topology::star(4, gbps, lat));
    bool got = false;
    net->sendPacket(1, 1, 1500, [&](const Packet &) { got = true; });
    sim.run();
    EXPECT_TRUE(got);
}

TEST_F(NetFixture, BCubeRelayThroughServer)
{
    NetworkConfig cfg;
    make(Topology::bcube(4, 1, gbps, lat), cfg);
    Tick delivered = 0;
    net->sendPacket(0, 5, 1500, [&](const Packet &) {
        delivered = sim.curTick();
    });
    sim.run();
    // 4 links: NIC + 2 switch ports + relay server, plus the relay
    // delay; just check it arrived with a sane latency.
    EXPECT_GT(delivered, 4 * 12 * usec);
    EXPECT_LT(delivered, 1 * msec);
}

TEST_F(NetFixture, CamCubeServerOnlyForwarding)
{
    make(Topology::camCube(3, 3, 3, gbps, lat));
    int got = 0;
    net->sendPacket(0, 26, 1500, [&](const Packet &) { ++got; });
    sim.run();
    EXPECT_EQ(got, 1);
}

TEST_F(NetFixture, BulkTransferChunksAndCompletes)
{
    make(Topology::star(4, gbps, lat));
    std::uint64_t drops = 99;
    net->sendBulk(0, 1, 150'000, [&](std::uint64_t d) { drops = d; });
    sim.run();
    EXPECT_EQ(drops, 0u);
    EXPECT_EQ(net->packetsDelivered(), 100u);
}

TEST_F(NetFixture, DropsReportedOnTinyBuffers)
{
    NetworkConfig cfg;
    cfg.portBufferCapacity = 4;
    make(Topology::star(4, gbps, lat), cfg);
    std::uint64_t delivered_or_dropped = 0;
    std::uint64_t drops = 0;
    // Two senders blast one receiver faster than its 1 Gb/s egress.
    for (int i = 0; i < 50; ++i) {
        net->sendPacket(0, 1, 1500,
                        [&](const Packet &) { ++delivered_or_dropped; },
                        [&](const Packet &) {
                            ++delivered_or_dropped;
                            ++drops;
                        });
        net->sendPacket(2, 1, 1500,
                        [&](const Packet &) { ++delivered_or_dropped; },
                        [&](const Packet &) {
                            ++delivered_or_dropped;
                            ++drops;
                        });
    }
    sim.run();
    EXPECT_EQ(delivered_or_dropped, 100u);
    EXPECT_GT(drops, 0u);
    EXPECT_EQ(net->packetsDropped(), drops);
}

TEST_F(NetFixture, SwitchEnergyAccrues)
{
    make(Topology::star(4, gbps, lat));
    net->startFlow(0, 1, 12'500'000, [] {});
    sim.run();
    sim.runUntil(1 * sec);
    net->finishStats();
    EXPECT_GT(net->switchEnergy(), 0.0);
    EXPECT_GT(net->switchPower(), 0.0);
}

// --------------------------------------------- max-min fairness regression

namespace {

/** Dense directed-link index of hop @p i of @p r (link*2+forward). */
std::vector<std::size_t>
directedPath(const Topology &topo, const Route &r)
{
    std::vector<std::size_t> path;
    for (std::size_t i = 0; i < r.links.size(); ++i) {
        bool forward = topo.link(r.links[i]).a == r.nodes[i];
        path.push_back(r.links[i] * 2 + (forward ? 1 : 0));
    }
    return path;
}

/**
 * Reference max-min water-filling, recomputed from scratch every
 * round: count unfrozen users per directed link, find the minimum
 * share, freeze exactly the flows crossing a minimum-share link, and
 * repeat. Deliberately independent of the solver's incremental
 * bookkeeping.
 */
std::vector<double>
waterFill(const Topology &topo,
          const std::vector<std::vector<std::size_t>> &paths)
{
    const std::size_t n_dl = 2 * topo.numLinks();
    std::vector<double> left(n_dl);
    for (LinkId l = 0; l < topo.numLinks(); ++l)
        left[2 * l] = left[2 * l + 1] = topo.link(l).rate;

    std::vector<double> rate(paths.size(), 0.0);
    std::vector<char> frozen(paths.size(), 0);
    for (std::size_t f = 0; f < paths.size(); ++f)
        frozen[f] = paths[f].empty();

    for (;;) {
        std::vector<unsigned> users(n_dl, 0);
        for (std::size_t f = 0; f < paths.size(); ++f) {
            if (frozen[f])
                continue;
            for (std::size_t dl : paths[f])
                ++users[dl];
        }
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t dl = 0; dl < n_dl; ++dl) {
            if (users[dl] > 0)
                best = std::min(best, left[dl] / users[dl]);
        }
        if (!std::isfinite(best))
            break; // all flows frozen
        double tol = 1e-9 * std::max(1.0, best);
        std::vector<char> bottleneck(n_dl, 0);
        for (std::size_t dl = 0; dl < n_dl; ++dl) {
            bottleneck[dl] =
                users[dl] > 0 && left[dl] / users[dl] <= best + tol;
        }
        for (std::size_t f = 0; f < paths.size(); ++f) {
            if (frozen[f])
                continue;
            bool hit = false;
            for (std::size_t dl : paths[f])
                hit = hit || bottleneck[dl];
            if (!hit)
                continue;
            frozen[f] = 1;
            rate[f] = best;
            for (std::size_t dl : paths[f])
                left[dl] = std::max(0.0, left[dl] - best);
        }
    }
    return rate;
}

/**
 * Start every flow of @p routes in the exact model, activate them all
 * at tick 0 and compare each solver rate against the reference
 * water-filling allocation.
 */
void
expectMatchesReference(const Topology &topo,
                       const std::vector<Route> &routes)
{
    std::vector<std::vector<std::size_t>> paths;
    for (const Route &r : routes)
        paths.push_back(directedPath(topo, r));
    std::vector<double> expected = waterFill(topo, paths);

    Simulator sim;
    auto mgr = makeNetModel(sim, topo, {NetModelKind::exact});
    std::vector<FlowId> ids;
    for (const Route &r : routes)
        ids.push_back(mgr->startFlow(r, 1'000'000'000'000, [] {}));
    sim.runUntil(0); // activations only; completions lie far out
    for (std::size_t f = 0; f < ids.size(); ++f) {
        SCOPED_TRACE("flow " + std::to_string(f));
        double got = mgr->flowRate(ids[f]);
        ASSERT_GT(expected[f], 0.0);
        EXPECT_NEAR(got, expected[f], 1e-6 * expected[f]);
    }
    // No directed link may be oversubscribed.
    std::vector<double> load(2 * topo.numLinks(), 0.0);
    for (std::size_t f = 0; f < ids.size(); ++f) {
        for (std::size_t dl : paths[f])
            load[dl] += mgr->flowRate(ids[f]);
    }
    for (LinkId l = 0; l < topo.numLinks(); ++l) {
        double cap = topo.link(l).rate;
        EXPECT_LE(load[2 * l], cap * (1.0 + 1e-6));
        EXPECT_LE(load[2 * l + 1], cap * (1.0 + 1e-6));
    }
}

} // namespace

TEST(FlowFairness, MatchesReferenceOnSharedChain)
{
    // Two edge switches joined by a thin trunk; server access links
    // are fat so the trunk and the receivers bind at different
    // shares (multi-round water filling).
    Topology topo;
    NodeId s0 = topo.addServer(), s1 = topo.addServer();
    NodeId s2 = topo.addServer(), s3 = topo.addServer();
    NodeId sw0 = topo.addSwitch(), sw1 = topo.addSwitch();
    topo.addLink(s0, sw0, 10 * gbps, lat);
    topo.addLink(s1, sw0, 10 * gbps, lat);
    topo.addLink(sw0, sw1, 1 * gbps, lat);
    topo.addLink(s2, sw1, 2 * gbps, lat);
    topo.addLink(s3, sw1, 10 * gbps, lat);
    StaticRouting routing(topo);

    std::vector<Route> routes{
        routing.route(s0, s2), // trunk + s2 access
        routing.route(s1, s2), // trunk + s2 access
        routing.route(s1, s3), // trunk + s3 access
        routing.route(s0, s1), // stays inside sw0, never bound
    };
    expectMatchesReference(topo, routes);
}

TEST(FlowFairness, MatchesReferenceOnEpsilonTiedBottlenecks)
{
    // Two links tie for the bottleneck share at 1e9/3 where thirds
    // are not exactly representable. The mid-round-mutation bug made
    // the freeze decision depend on flow iteration order here: after
    // freezing the first flow, the debited shares of the tied link
    // drift past the comparison epsilon and its flows are deferred
    // to a later round at an inflated rate.
    Topology topo;
    std::vector<NodeId> s;
    for (int i = 0; i < 6; ++i)
        s.push_back(topo.addServer());
    NodeId sw = topo.addSwitch();
    const double third2 = 2e9 / 3.0;
    topo.addLink(s[0], sw, 100 * gbps, lat);
    topo.addLink(s[1], sw, 1 * gbps, lat);   // 3 users: share 1e9/3
    topo.addLink(s[2], sw, third2, lat);     // 2 users: same share
    topo.addLink(s[3], sw, 100 * gbps, lat);
    topo.addLink(s[4], sw, 100 * gbps, lat);
    topo.addLink(s[5], sw, 100 * gbps, lat);
    StaticRouting routing(topo);

    std::vector<Route> routes{
        routing.route(s[0], s[1]),
        routing.route(s[3], s[1]),
        routing.route(s[4], s[1]),
        routing.route(s[2], s[5]), // user 1 of the s2 access link
        routing.route(s[2], s[0]), // user 2 of the s2 access link
    };
    expectMatchesReference(topo, routes);
}

TEST(FlowFairness, MatchesReferenceOnFatTreeEcmp)
{
    auto topo = Topology::fatTree(4, gbps, lat);
    StaticRouting routing(topo);
    std::vector<Route> routes;
    for (std::size_t i = 0; i < 24; ++i) {
        NodeId src = topo.serverNode(i % 16);
        NodeId dst = topo.serverNode((i * 7 + 3) % 16);
        if (src == dst)
            dst = topo.serverNode((i * 7 + 4) % 16);
        routes.push_back(routing.route(src, dst, i));
    }
    expectMatchesReference(topo, routes);
}

TEST(FlowFairness, ReshareIsOrderIndependent)
{
    // The allocation must not depend on the order flows entered the
    // manager (equivalently, on FlowId iteration order).
    Topology topo;
    std::vector<NodeId> s;
    for (int i = 0; i < 4; ++i)
        s.push_back(topo.addServer());
    NodeId sw = topo.addSwitch();
    for (int i = 0; i < 4; ++i)
        topo.addLink(s[i], sw, gbps, lat);
    StaticRouting routing(topo);
    std::vector<Route> routes{
        routing.route(s[0], s[1]),
        routing.route(s[2], s[1]),
        routing.route(s[3], s[1]),
        routing.route(s[2], s[3]),
    };

    auto ratesFor = [&](std::vector<std::size_t> order) {
        Simulator sim;
        auto mgr = makeNetModel(sim, topo, {NetModelKind::exact});
        std::vector<FlowId> ids(order.size());
        for (std::size_t i : order)
            ids[i] = mgr->startFlow(routes[i], 1'000'000'000'000,
                                   [] {});
        sim.runUntil(0);
        std::vector<double> rates;
        for (FlowId id : ids)
            rates.push_back(mgr->flowRate(id));
        return rates;
    };

    auto a = ratesFor({0, 1, 2, 3});
    auto b = ratesFor({3, 2, 1, 0});
    auto c = ratesFor({2, 0, 3, 1});
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i], b[i]) << "flow " << i;
        EXPECT_DOUBLE_EQ(a[i], c[i]) << "flow " << i;
    }
}
