/**
 * @file
 * The network facade: instantiates one Switch per topology switch
 * node, wires ports to links, and offers both communication models
 * the paper describes -- flow-based transfers with max-min fair
 * bandwidth sharing and packet-level store-and-forward -- plus the
 * introspection hooks the server/network cooperative policies need
 * (how many sleeping switches a path would wake).
 */

#ifndef HOLDCSIM_NETWORK_NETWORK_HH
#define HOLDCSIM_NETWORK_NETWORK_HH

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fluid/net_model.hh"
#include "packet.hh"
#include "routing.hh"
#include "sim/one_shot.hh"
#include "sim/simulator.hh"
#include "switch.hh"
#include "switch_power.hh"
#include "topology.hh"

namespace holdcsim {

/** Network-wide configuration. */
struct NetworkConfig {
    /** Egress buffer capacity per switch port, in packets. */
    std::size_t portBufferCapacity = 128;
    /** Ports per line card. */
    unsigned portsPerLinecard = 24;
    /** Per-hop forwarding delay through a switch. */
    Tick switchForwardDelay = 1 * usec;
    /**
     * Store-and-forward delay through a relay *server* (server-based
     * and hybrid topologies where servers do the switching).
     */
    Tick serverRelayDelay = 10 * usec;
    /** Whole-switch sleep threshold; maxTick disables. */
    Tick switchSleepDelay = maxTick;
    /** MTU used when a bulk transfer is sent packet-by-packet. */
    Bytes mtuBytes = 1500;
    /**
     * Flow-level model tier (exact | fluid | hybrid) and fast-path
     * threshold; see net_model.hh for the accuracy/cost trade-off.
     */
    NetModelConfig netModel;
};

/** A complete simulated data center fabric. */
class Network
{
  public:
    Network(Simulator &sim, Topology topo,
            const SwitchPowerProfile &profile,
            const NetworkConfig &config = {});
    ~Network();
    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    const Topology &topology() const { return _topo; }
    StaticRouting &routing() { return _routing; }
    /** The flow-level model, in the configured tier. */
    NetModel &flows() { return _flows; }

    std::size_t numSwitches() const { return _switches.size(); }
    Switch &switchAt(std::size_t i) { return *_switches.at(i); }

    /**
     * Returned by startFlow() when no healthy path exists; the
     * abort callback still fires (asynchronously).
     */
    static constexpr FlowId invalidFlow = ~static_cast<FlowId>(0);

    /** @name Flow-based communication */
    ///@{
    /**
     * Transfer @p bytes from server @p src_server to @p dst_server
     * (server ordinals, not node ids) as one flow. Sleeping
     * switches/line cards/ports on the path wake first; their wake
     * latency delays the transfer start. @p on_done fires when the
     * last byte arrives. Transfers between a server and itself
     * complete immediately. @p on_abort (optional) fires instead of
     * @p on_done if the flow is killed by a fault on its path; when
     * the fabric is already partitioned it fires on the next tick
     * and invalidFlow is returned.
     */
    FlowId startFlow(std::size_t src_server, std::size_t dst_server,
                     Bytes bytes, std::function<void()> on_done,
                     std::function<void()> on_abort = {});
    ///@}

    /** @name Fault injection (driven by the fault subsystem) */
    ///@{
    /**
     * Take link @p l out of service: in-flight flows crossing it are
     * aborted, packets reaching it are dropped, and new routes avoid
     * it. Returns the number of flows killed. Idempotent.
     */
    std::size_t failLink(LinkId l);
    void repairLink(LinkId l);

    /** Crash/repair switch @p sw_idx (switch ordinal). */
    std::size_t failSwitch(std::size_t sw_idx);
    void repairSwitch(std::size_t sw_idx);

    /**
     * Fail/repair one line card of a switch: every link driven by
     * the card's ports goes down, the rest of the switch keeps
     * forwarding. Returns the number of flows killed.
     */
    std::size_t failLinecard(std::size_t sw_idx, unsigned lc_idx);
    void repairLinecard(std::size_t sw_idx, unsigned lc_idx);

    /** Whether healthy links connect the two servers right now. */
    bool serversReachable(std::size_t src_server,
                          std::size_t dst_server);
    ///@}

    /** @name Packet-level communication */
    ///@{
    /**
     * Inject one packet of @p bytes from @p src_server to
     * @p dst_server. @p on_delivered fires at arrival;
     * @p on_dropped (optional) fires if an egress buffer overflows.
     */
    void sendPacket(std::size_t src_server, std::size_t dst_server,
                    Bytes bytes,
                    std::function<void(const Packet &)> on_delivered,
                    std::function<void(const Packet &)> on_dropped = {});

    /**
     * Send @p bytes as a train of MTU-sized packets; @p on_done
     * fires when every packet has been delivered or dropped, with
     * the number of drops.
     */
    void sendBulk(std::size_t src_server, std::size_t dst_server,
                  Bytes bytes,
                  std::function<void(std::uint64_t dropped)> on_done);
    ///@}

    /** @name Policy introspection (paper section IV-D) */
    ///@{
    /**
     * Network cost of reaching @p dst_server from @p src_server:
     * the number of currently sleeping switches the shortest path
     * would have to wake. Unreachable pairs (fabric partitioned by
     * faults) report a prohibitively large cost.
     */
    unsigned sleepingSwitchesOnPath(std::size_t src_server,
                                    std::size_t dst_server);

    /** Number of switches currently asleep. */
    unsigned sleepingSwitches() const;
    ///@}

    /** @name Power, energy and stats */
    ///@{
    Watts switchPower() const;
    Joules switchEnergy() const;
    void accrue();
    void finishStats();
    std::uint64_t packetsDelivered() const { return _packetsDelivered; }
    std::uint64_t packetsDropped() const { return _packetsDropped; }
    /** End-to-end packet latency distribution (seconds). */
    const Percentile &packetLatency() const { return _packetLatency; }
    ///@}

  private:
    /** Port ordinal of link @p l on switch node @p n. */
    unsigned portOf(NodeId n, LinkId l) const;
    /** Links driven by line card @p lc_idx of switch @p sw_idx. */
    std::vector<LinkId> linecardLinks(std::size_t sw_idx,
                                      unsigned lc_idx) const;
    /** Continue @p pkt after it crossed the link at hop - 1. */
    void packetArrived(const PacketPtr &pkt, NodeId at);
    /** Queue @p pkt at node @p at for its next hop. */
    void forwardFrom(const PacketPtr &pkt, NodeId at, Tick extra);
    void dropPacket(const PacketPtr &pkt);

    Simulator &_sim;
    Topology _topo;
    NetworkConfig _config;
    StaticRouting _routing;
    NetModel _flows;

    std::vector<std::unique_ptr<Switch>> _switches;
    /** node id -> (link id -> port ordinal) for switch nodes. */
    std::vector<std::unordered_map<LinkId, unsigned>> _portMap;

    /** Per-server NIC: when each server's uplink frees up. */
    std::vector<Tick> _nicFreeAt;

    std::uint64_t _nextPacketId = 0;
    std::uint64_t _packetsDelivered = 0;
    std::uint64_t _packetsDropped = 0;
    Percentile _packetLatency;

    /** Fire-and-forget event helper (self-cleaning one-shots). */
    void scheduleAfterDelay(Tick delay, std::function<void()> fn);
    /** Owns fire-and-forget events; frees stragglers at teardown. */
    OneShotPool _oneShots;
};

} // namespace holdcsim

#endif // HOLDCSIM_NETWORK_NETWORK_HH
