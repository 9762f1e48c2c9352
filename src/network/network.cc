#include "network.hh"

#include <algorithm>
#include <limits>

#include "sim/logging.hh"

namespace holdcsim {

Network::Network(Simulator &sim, Topology topo,
                 const SwitchPowerProfile &profile,
                 const NetworkConfig &config)
    : _sim(sim), _topo(std::move(topo)), _config(config),
      _routing(_topo),
      _flows(sim, _topo, config.netModel),
      _oneShots(sim, "net.oneShot")
{
    _topo.validateConnected();
    _portMap.resize(_topo.numNodes());
    _nicFreeAt.assign(_topo.numServers(), 0);

    // One Switch per switch node; port i of the switch drives the
    // i-th incident link of that node.
    for (std::size_t si = 0; si < _topo.numSwitches(); ++si) {
        NodeId node = _topo.switchNode(si);
        SwitchConfig sc;
        sc.id = static_cast<unsigned>(si);
        sc.portsPerLinecard = config.portsPerLinecard;
        sc.portBufferCapacity = config.portBufferCapacity;
        sc.switchSleepDelay = config.switchSleepDelay;
        const auto &links = _topo.linksAt(node);
        for (LinkId l : links)
            sc.portRates.push_back(_topo.link(l).rate);
        auto sw = std::make_unique<Switch>(sim, sc, profile);
        sw->setForwardingDelay(config.switchForwardDelay);
        for (unsigned p = 0; p < links.size(); ++p) {
            _portMap[node][links[p]] = p;
            LinkId l = links[p];
            NodeId far = _topo.otherEnd(l, node);
            Tick lat = _topo.link(l).latency;
            sw->port(p).setDeliver(
                [this, far, lat](const PacketPtr &pkt) {
                    scheduleAfterDelay(lat, [this, pkt, far] {
                        packetArrived(pkt, far);
                    });
                });
        }
        _switches.push_back(std::move(sw));
    }
}

Network::~Network() = default;

void
Network::scheduleAfterDelay(Tick delay, std::function<void()> fn)
{
    _oneShots.schedule(delay, std::move(fn));
}

unsigned
Network::portOf(NodeId n, LinkId l) const
{
    const auto &map = _portMap.at(n);
    auto it = map.find(l);
    if (it == map.end())
        HOLDCSIM_PANIC("link ", l, " not attached to node ", n);
    return it->second;
}

// --------------------------------------------------------------- flow model

FlowId
Network::startFlow(std::size_t src_server, std::size_t dst_server,
                   Bytes bytes, std::function<void()> on_done,
                   std::function<void()> on_abort)
{
    NodeId src = _topo.serverNode(src_server);
    NodeId dst = _topo.serverNode(dst_server);
    if (!_routing.reachable(src, dst)) {
        // Partitioned fabric: report the failure asynchronously so
        // the caller never re-enters itself from startFlow().
        scheduleAfterDelay(0, [cb = std::move(on_abort)] {
            if (cb)
                cb();
        });
        return invalidFlow;
    }
    std::uint64_t key = (_nextPacketId++ << 1) | 1;
    Route route = _routing.route(src, dst, key);

    // Wake everything on the path and register the flow on every
    // traversed switch port pair.
    Tick wake_delay = 0;
    struct PortUse {
        Switch *sw;
        unsigned in, out;
    };
    std::vector<PortUse> uses;
    for (std::size_t i = 1; i + 1 < route.nodes.size(); ++i) {
        NodeId n = route.nodes[i];
        if (!_topo.isSwitch(n)) {
            wake_delay += _config.serverRelayDelay;
            continue;
        }
        Switch *sw = _switches[_topo.switchIndex(n)].get();
        unsigned in = portOf(n, route.links[i - 1]);
        unsigned out = portOf(n, route.links[i]);
        wake_delay += sw->flowStarted(in, out);
        uses.push_back(PortUse{sw, in, out});
    }

    // Port bookkeeping must be released whether the flow completes
    // or dies with a failed link, so both paths share the cleanup.
    auto uses_p =
        std::make_shared<std::vector<PortUse>>(std::move(uses));
    auto release = [uses_p] {
        for (const auto &u : *uses_p)
            u.sw->flowEnded(u.in, u.out);
        uses_p->clear();
    };
    auto done = [release, cb = std::move(on_done)]() {
        release();
        if (cb)
            cb();
    };
    FlowId id = _flows.startFlow(std::move(route), bytes,
                                 std::move(done), wake_delay);
    _flows.setAbortCallback(
        id, [release, cb = std::move(on_abort)]() {
            release();
            if (cb)
                cb();
        });
    return id;
}

// ------------------------------------------------------------ fault support

std::size_t
Network::failLink(LinkId l)
{
    if (!_routing.linkHealthy(l))
        return 0;
    _routing.setLinkHealth(l, false);
    std::size_t killed = _flows.abortFlowsOn(l);
    // Fault-driven capacity changes invalidate the surrounding
    // component in the fluid scope (no-op for the whole-fabric
    // scope, which re-solved when the link's flows aborted).
    _flows.linkHealthChanged(l, false);
    return killed;
}

void
Network::repairLink(LinkId l)
{
    _routing.setLinkHealth(l, true);
    _flows.linkHealthChanged(l, true);
}

std::size_t
Network::failSwitch(std::size_t sw_idx)
{
    NodeId node = _topo.switchNode(sw_idx);
    if (!_routing.nodeHealthy(node))
        return 0;
    _routing.setNodeHealth(node, false);
    _switches.at(sw_idx)->setFailed(true);
    std::size_t killed = 0;
    for (LinkId l : _topo.linksAt(node)) {
        killed += _flows.abortFlowsOn(l);
        _flows.linkHealthChanged(l, false);
    }
    return killed;
}

void
Network::repairSwitch(std::size_t sw_idx)
{
    _routing.setNodeHealth(_topo.switchNode(sw_idx), true);
    _switches.at(sw_idx)->setFailed(false);
    for (LinkId l : _topo.linksAt(_topo.switchNode(sw_idx)))
        _flows.linkHealthChanged(l, true);
}

std::vector<LinkId>
Network::linecardLinks(std::size_t sw_idx, unsigned lc_idx) const
{
    NodeId node = _topo.switchNode(sw_idx);
    const auto &links = _topo.linksAt(node);
    std::vector<LinkId> out;
    unsigned first = lc_idx * _config.portsPerLinecard;
    for (unsigned p = first;
         p < first + _config.portsPerLinecard && p < links.size(); ++p) {
        out.push_back(links[p]);
    }
    return out;
}

std::size_t
Network::failLinecard(std::size_t sw_idx, unsigned lc_idx)
{
    std::size_t killed = 0;
    for (LinkId l : linecardLinks(sw_idx, lc_idx))
        killed += failLink(l);
    return killed;
}

void
Network::repairLinecard(std::size_t sw_idx, unsigned lc_idx)
{
    for (LinkId l : linecardLinks(sw_idx, lc_idx))
        repairLink(l);
}

bool
Network::serversReachable(std::size_t src_server, std::size_t dst_server)
{
    return _routing.reachable(_topo.serverNode(src_server),
                              _topo.serverNode(dst_server));
}

// ------------------------------------------------------------- packet model

void
Network::sendPacket(std::size_t src_server, std::size_t dst_server,
                    Bytes bytes,
                    std::function<void(const Packet &)> on_delivered,
                    std::function<void(const Packet &)> on_dropped)
{
    NodeId src = _topo.serverNode(src_server);
    NodeId dst = _topo.serverNode(dst_server);
    auto pkt = std::make_shared<Packet>();
    pkt->id = _nextPacketId++;
    pkt->src = src;
    pkt->dst = dst;
    pkt->bytes = bytes;
    pkt->sentAt = _sim.curTick();
    pkt->onDelivered = std::move(on_delivered);
    pkt->onDropped = std::move(on_dropped);

    if (src != dst && !_routing.reachable(src, dst)) {
        // No healthy path: the packet is lost (asynchronously, so
        // the caller sees uniform callback timing).
        scheduleAfterDelay(0, [this, pkt] { dropPacket(pkt); });
        return;
    }
    pkt->route = _routing.route(src, dst, pkt->id);

    if (src == dst) {
        // Local delivery.
        scheduleAfterDelay(0, [this, pkt] { packetArrived(pkt, pkt->dst); });
        return;
    }
    // Source server NIC: packets serialize one after another onto
    // the first link (FIFO NIC queue), then cross it.
    const LinkInfo &l0 = _topo.link(pkt->route.links[0]);
    Tick ser = serializationDelay(bytes, l0.rate);
    Tick &nic_free = _nicFreeAt[src_server];
    Tick start = std::max(nic_free, _sim.curTick());
    nic_free = start + ser;
    NodeId next = pkt->route.nodes[1];
    pkt->hop = 1;
    scheduleAfterDelay(nic_free - _sim.curTick() + l0.latency,
                       [this, pkt, next] { packetArrived(pkt, next); });
}

void
Network::packetArrived(const PacketPtr &pkt, NodeId at)
{
    if (at == pkt->dst) {
        ++_packetsDelivered;
        _packetLatency.sample(toSeconds(_sim.curTick() - pkt->sentAt));
        if (pkt->onDelivered)
            pkt->onDelivered(*pkt);
        return;
    }
    // Relay: a switch queues on the egress port; a relay server
    // store-and-forwards with its own fixed delay.
    if (_topo.isSwitch(at)) {
        forwardFrom(pkt, at, 0);
    } else {
        forwardFrom(pkt, at, _config.serverRelayDelay);
    }
}

void
Network::forwardFrom(const PacketPtr &pkt, NodeId at, Tick extra)
{
    if (pkt->hop >= pkt->route.links.size())
        HOLDCSIM_PANIC("packet ", pkt->id, " ran past its route");
    LinkId next_link = pkt->route.links[pkt->hop];
    ++pkt->hop;
    if (!_routing.linkHealthy(next_link)) {
        // The link died while the packet was in flight.
        dropPacket(pkt);
        return;
    }
    if (_topo.isSwitch(at)) {
        Switch *sw = _switches[_topo.switchIndex(at)].get();
        unsigned out = portOf(at, next_link);
        if (!sw->forwardPacket(pkt, out))
            dropPacket(pkt);
        return;
    }
    // Relay server: serialize onto the next link after the relay
    // delay (no queuing model at relay servers).
    const LinkInfo &li = _topo.link(next_link);
    NodeId next = _topo.otherEnd(next_link, at);
    Tick ser = serializationDelay(pkt->bytes, li.rate);
    scheduleAfterDelay(extra + ser + li.latency, [this, pkt, next] {
        packetArrived(pkt, next);
    });
}

void
Network::dropPacket(const PacketPtr &pkt)
{
    ++_packetsDropped;
    if (pkt->onDropped)
        pkt->onDropped(*pkt);
}

void
Network::sendBulk(std::size_t src_server, std::size_t dst_server,
                  Bytes bytes,
                  std::function<void(std::uint64_t)> on_done)
{
    Bytes mtu = _config.mtuBytes;
    std::uint64_t n_packets = bytes == 0 ? 1 : (bytes + mtu - 1) / mtu;
    auto state = std::make_shared<std::pair<std::uint64_t,
                                            std::uint64_t>>(0, 0);
    auto step = [state, n_packets, cb = std::move(on_done)](
                    bool dropped) {
        state->first += 1;
        state->second += dropped ? 1 : 0;
        if (state->first == n_packets && cb)
            cb(state->second);
    };
    for (std::uint64_t i = 0; i < n_packets; ++i) {
        Bytes chunk = std::min<Bytes>(mtu, bytes - i * mtu);
        if (bytes == 0)
            chunk = 0;
        sendPacket(src_server, dst_server, chunk,
                   [step](const Packet &) { step(false); },
                   [step](const Packet &) { step(true); });
    }
}

// ---------------------------------------------------------- policy support

unsigned
Network::sleepingSwitchesOnPath(std::size_t src_server,
                                std::size_t dst_server)
{
    NodeId src = _topo.serverNode(src_server);
    NodeId dst = _topo.serverNode(dst_server);
    if (!_routing.reachable(src, dst)) {
        // Prohibitive cost: policies weighing wake cost must never
        // pick a destination they cannot reach.
        return std::numeric_limits<unsigned>::max();
    }
    Route route = _routing.route(src, dst, 0);
    unsigned count = 0;
    for (NodeId n : route.nodes) {
        if (_topo.isSwitch(n) &&
            _switches[_topo.switchIndex(n)]->asleep()) {
            ++count;
        }
    }
    return count;
}

unsigned
Network::sleepingSwitches() const
{
    unsigned count = 0;
    for (const auto &sw : _switches)
        count += sw->asleep();
    return count;
}

// ------------------------------------------------------------ power & stats

Watts
Network::switchPower() const
{
    Watts total = 0.0;
    for (const auto &sw : _switches)
        total += sw->power();
    return total;
}

Joules
Network::switchEnergy() const
{
    Joules total = 0.0;
    for (const auto &sw : _switches)
        total += sw->energy();
    return total;
}

void
Network::accrue()
{
    for (auto &sw : _switches)
        sw->accrue();
}

void
Network::finishStats()
{
    for (auto &sw : _switches)
        sw->finishStats();
}

} // namespace holdcsim
