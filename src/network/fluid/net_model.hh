/**
 * @file
 * The flow-level network model (paper section III-B): dependent
 * tasks exchange data as flows that share link bandwidth max-min
 * fairly. "Multiple flows or packets can simultaneously travel along
 * a link if it has not yet been saturated" -- whenever a flow starts,
 * finishes or aborts, the model recomputes the max-min allocation by
 * progressive filling and reschedules the completion events of the
 * flows whose rates it recomputed.
 *
 * One solver serves the three `[network] model` values; they differ
 * only in the *scope* of each re-solve and in the fast path:
 *
 *  - exact:  whole-fabric scope -- every change re-solves every
 *            active flow, in FlowId order. The fast path is off
 *            even when a config sets a threshold.
 *  - hybrid: exact plus the fast path.
 *  - fluid:  component scope, after SimGrid's surf layer (lazy
 *            partial invalidation). The max-min solution decomposes
 *            over connected components of the "shares a link"
 *            relation, so a change re-solves only the flows
 *            reachable from the changed flow through shared links:
 *
 *             1. seed a dirty set with the changed flow's directed
 *                links,
 *             2. expand it to a fixed point over per-link membership
 *                lists (dirty link -> its flows are dirty; dirty
 *                flow -> its links are dirty), using epoch marks so
 *                nothing is ever cleared,
 *             3. settle transferred bits for the dirty flows only
 *                (clean flows keep progressing linearly at their
 *                unchanged rates),
 *             4. run progressive filling restricted to the dirty
 *                component,
 *             5. reschedule completion events for the dirty flows
 *                only.
 *
 *            Rates outside the component are untouched and remain
 *            exact, so an update costs O(component size), not
 *            O(population). Completion ticks agree with `exact`
 *            within floating-point rounding: remainingBits is
 *            settled through a different sequence of subtractions.
 *
 * Progressive filling itself does not depend on the order flows or
 * links are visited: each round's share is a minimum over links, and
 * every link then has that same share subtracted once per frozen
 * flow. What the whole-fabric scope must hold fixed, because exact
 * outputs are pinned by golden digests, is the order completions are
 * rescheduled in (same-tick ties follow insertion order) and the set
 * of events that trigger a re-solve.
 *
 * Transfers of at most `fast_path_bytes` (fluid and hybrid) never
 * enter the solver: they complete after path latency plus
 * serialization at the bottleneck link rate (constant-latency model,
 * SimGrid's network_constant).
 */

#ifndef HOLDCSIM_NETWORK_FLUID_NET_MODEL_HH
#define HOLDCSIM_NETWORK_FLUID_NET_MODEL_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "network/routing.hh"
#include "network/topology.hh"
#include "sim/event.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "telemetry/trace_manager.hh"

namespace holdcsim {

class Simulator;

/** Identifier of an in-flight flow. */
using FlowId = std::uint64_t;

/** Selectable flow-level network model (accuracy/cost tiers). */
enum class NetModelKind { exact, fluid, hybrid };

/** Canonical config-file spelling of @p kind. */
const char *toString(NetModelKind kind);

/** Parse "exact" | "fluid" | "hybrid"; throws FatalError otherwise. */
NetModelKind parseNetModelKind(const std::string &s);

/** Flow-model selection and tuning. */
struct NetModelConfig {
    NetModelKind kind = NetModelKind::exact;
    /**
     * Transfers of at most this many bytes bypass the solver and
     * complete analytically (fluid/hybrid models only; the exact
     * model ignores it). 0 disables the fast path.
     */
    Bytes fastPathBytes = 0;
};

/**
 * Solver cost counters, surfaced as `network.solver_*` stats so
 * model tiers can be compared on the same run.
 */
struct NetSolverStats {
    /** Bandwidth-share solver invocations. */
    std::uint64_t resolves = 0;
    /** Flows whose rate was recomputed, summed over all resolves. */
    std::uint64_t resolvedFlows = 0;
    /** Directed links visited by the solver, summed. */
    std::uint64_t dirtyLinks = 0;
    /** Largest single resolve, in flows (dirty-set high-water). */
    std::uint64_t maxDirtyFlows = 0;
    /** Transfers completed analytically, never entering the solver. */
    std::uint64_t fastPathHits = 0;

    /** Mean dirty-set size per resolve (the invalidation win). */
    double
    meanDirtyFlows() const
    {
        return resolves == 0
                   ? 0.0
                   : static_cast<double>(resolvedFlows) /
                         static_cast<double>(resolves);
    }
};

/**
 * The max-min fair flow model: flows join, share bandwidth, and
 * complete (or abort on faults).
 */
class NetModel
{
  public:
    using FlowDoneFn = std::function<void()>;

    NetModel(Simulator &sim, const Topology &topo,
             const NetModelConfig &cfg = {});
    ~NetModel();
    NetModel(const NetModel &) = delete;
    NetModel &operator=(const NetModel &) = delete;

    /**
     * Start a flow of @p bytes along @p route. The flow joins the
     * bandwidth competition after @p start_delay (switch wake time)
     * and @p on_done fires when the last byte is delivered.
     * A zero-hop route (local communication) completes after
     * start_delay alone.
     */
    FlowId startFlow(Route route, Bytes bytes, FlowDoneFn on_done,
                     Tick start_delay = 0);

    /**
     * Abort flow @p flow: its completion never fires and @p on_abort
     * (if set at start) is invoked. Returns whether the flow existed.
     */
    bool abortFlow(FlowId flow);

    /**
     * Abort every flow (active or pending) whose route traverses
     * link @p l -- the link just failed. Returns how many died.
     */
    std::size_t abortFlowsOn(LinkId l);

    /** Register the abort callback for flow @p flow. */
    void setAbortCallback(FlowId flow, FlowDoneFn on_abort);

    /**
     * Link @p l just changed health (fault injected or repaired).
     * The fluid scope re-solves the component of flows touching the
     * link; the whole-fabric scope, which re-solves everything on
     * every flow change anyway, leaves its schedule alone. Flows
     * crossing a failed link must be aborted separately (and first)
     * via abortFlowsOn().
     */
    void linkHealthChanged(LinkId l, bool healthy);

    /** Number of flows currently transferring or pending start. */
    std::size_t activeFlows() const { return _flows.size(); }

    /** Current fair-share rate of @p flow (0 if pending/unknown). */
    BitsPerSec flowRate(FlowId flow) const;

    /**
     * Current utilization of link @p l in [0, 1]: the busier
     * direction's allocated share over capacity.
     */
    double linkUtilization(LinkId l) const;

    /**
     * @name Bulk load (warm-start)
     * Between beginBulkLoad() and endBulkLoad(), flow activations
     * skip the per-change re-solve; endBulkLoad() settles and
     * re-solves once. Intended for installing a large standing flow
     * population at a single simulated instant (benchmarks, campaign
     * warm starts): when no simulated time elapses inside the bulk
     * window the resulting rates are identical to per-flow
     * activation, at O(population) instead of O(population^2) cost.
     */
    ///@{
    void beginBulkLoad() { _bulk = true; }
    void endBulkLoad();
    ///@}

    /** Completed-flow count and transfer-latency statistics. */
    std::uint64_t flowsCompleted() const { return _flowsCompleted; }
    /** Flows killed by faults/cancellation. */
    std::uint64_t flowsAborted() const { return _flowsAborted; }
    const Percentile &flowLatency() const { return _flowLatency; }

    /** Solver cost counters (resolves, dirty sets, fast-path hits). */
    const NetSolverStats &solverStats() const { return _solverStats; }

    /** The model tier this instance implements ("exact"/...). */
    const char *modelName() const { return toString(_kind); }

  private:
    struct Flow {
        FlowId id;
        /** Dense directed-link indices (link * 2 + forward). */
        std::vector<std::uint32_t> pathIdx;
        /** This flow's slot in _linkFlows[pathIdx[i]] while active. */
        std::vector<std::uint32_t> linkPos;
        double remainingBits = 0.0;
        BitsPerSec rate = 0.0;
        Tick lastUpdate = 0;
        Tick startedAt = 0;
        bool active = false;
        bool fastPath = false;
        /** Dirty-set visit mark (epoch counter, never cleared). */
        std::uint64_t visitEpoch = 0;
        FlowDoneFn onDone;
        FlowDoneFn onAbort;
        std::unique_ptr<EventFunctionWrapper> completion;
        std::unique_ptr<EventFunctionWrapper> activation;
    };

    void activate(FlowId id);
    void finish(FlowId id);
    /** Tracer (and shared flows track) if flow tracing is on. */
    TraceManager *flowTracer();

    /** Insert @p flow into the membership list of every path link. */
    void enroll(Flow &flow);
    /** Swap-remove @p flow from its membership lists. */
    void unenroll(Flow &flow);

    /**
     * Re-solve the current scope: every active flow (whole-fabric),
     * or the connected component(s) reachable from the links in
     * _seedLinks (fluid; a no-op without seeds). Settles, water-fills
     * and reschedules the dirty flows. Clears _seedLinks.
     */
    void resolve();
    /** Add @p dl to this resolve's dirty links (idempotent). */
    void markLink(std::uint32_t dl);
    /** Structured post-mortem + SimAbortError (solver got stuck). */
    [[noreturn]] void abortSolve(const std::string &what);

    Simulator &_sim;
    const Topology &_topo;
    const NetModelKind _kind;
    /** exact/hybrid: every change re-solves every active flow. */
    const bool _wholeFabric;
    const Bytes _fastPathBytes;
    /** Ordered: the whole-fabric scope reschedules in FlowId order. */
    std::map<FlowId, Flow> _flows;
    FlowId _nextId = 0;
    /** Inside a beginBulkLoad()/endBulkLoad() window. */
    bool _bulk = false;

    /** Active flows crossing each directed link (swap-removal). */
    std::vector<std::vector<Flow *>> _linkFlows;

    /** @name resolve() scratch (epoch-marked, never cleared) */
    ///@{
    std::uint64_t _epoch = 0;
    std::vector<std::uint64_t> _linkEpoch; // per directed link
    std::vector<std::uint32_t> _seedLinks; // fluid seeds, deduped
    std::vector<std::uint32_t> _dirtyLinks;
    std::vector<Flow *> _dirtyFlows;
    std::vector<double> _capLeft;
    std::vector<unsigned> _usersLeft;
    std::vector<std::uint8_t> _isBottleneck;
    std::vector<Flow *> _unfrozen;
    ///@}

    std::uint64_t _flowsCompleted = 0;
    std::uint64_t _flowsAborted = 0;
    Percentile _flowLatency;
    NetSolverStats _solverStats;

    TraceTrackId _traceTrack = noTraceTrack;
};

/** Instantiate the model tier selected by @p cfg. */
std::unique_ptr<NetModel> makeNetModel(Simulator &sim,
                                       const Topology &topo,
                                       const NetModelConfig &cfg);

/**
 * Analytic completion time of a fast-path transfer along @p route:
 * the sum of per-hop propagation latencies plus serialization of
 * @p bytes at the slowest link on the path.
 */
Tick fastPathDuration(const Topology &topo, const Route &route,
                      Bytes bytes);

} // namespace holdcsim

#endif // HOLDCSIM_NETWORK_FLUID_NET_MODEL_HH
