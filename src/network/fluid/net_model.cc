#include "net_model.hh"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>

#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace holdcsim {

const char *
toString(NetModelKind kind)
{
    switch (kind) {
      case NetModelKind::exact:
        return "exact";
      case NetModelKind::fluid:
        return "fluid";
      case NetModelKind::hybrid:
        return "hybrid";
    }
    return "?";
}

NetModelKind
parseNetModelKind(const std::string &s)
{
    if (s == "exact")
        return NetModelKind::exact;
    if (s == "fluid")
        return NetModelKind::fluid;
    if (s == "hybrid")
        return NetModelKind::hybrid;
    fatal("unknown network model '", s,
          "' (expected exact, fluid or hybrid)");
}

Tick
fastPathDuration(const Topology &topo, const Route &route, Bytes bytes)
{
    Tick latency = 0;
    BitsPerSec bottleneck = std::numeric_limits<BitsPerSec>::infinity();
    for (LinkId l : route.links) {
        const LinkInfo &li = topo.link(l);
        latency += li.latency;
        bottleneck = std::min(bottleneck, li.rate);
    }
    if (route.links.empty() || bytes == 0)
        return latency;
    return latency + serializationDelay(bytes, bottleneck);
}

std::unique_ptr<NetModel>
makeNetModel(Simulator &sim, const Topology &topo,
             const NetModelConfig &cfg)
{
    return std::make_unique<NetModel>(sim, topo, cfg);
}

NetModel::NetModel(Simulator &sim, const Topology &topo,
                   const NetModelConfig &cfg)
    : _sim(sim), _topo(topo), _kind(cfg.kind),
      _wholeFabric(cfg.kind != NetModelKind::fluid),
      // The exact tier never takes the analytic shortcut: with the
      // threshold forced to 0, "exact" means exact even when a
      // config sets fast_path_bytes for the other tiers.
      _fastPathBytes(cfg.kind == NetModelKind::exact ? 0
                                                     : cfg.fastPathBytes)
{
    _linkFlows.resize(2 * _topo.numLinks());
    _linkEpoch.assign(2 * _topo.numLinks(), 0);
}

NetModel::~NetModel()
{
    for (auto &[id, flow] : _flows) {
        if (flow.completion && flow.completion->scheduled())
            _sim.deschedule(*flow.completion);
        if (flow.activation && flow.activation->scheduled())
            _sim.deschedule(*flow.activation);
    }
}

TraceManager *
NetModel::flowTracer()
{
    TraceManager *tr = _sim.tracer();
    if (!tr || !tr->wants(TraceCategory::flow))
        return nullptr;
    if (_traceTrack == noTraceTrack)
        _traceTrack = tr->track("network", "flows");
    return tr;
}

FlowId
NetModel::startFlow(Route route, Bytes bytes, FlowDoneFn on_done,
                    Tick start_delay)
{
    FlowId id = _nextId++;
    Flow flow;
    flow.id = id;
    flow.remainingBits = static_cast<double>(bytes) * 8.0;
    flow.onDone = std::move(on_done);
    flow.startedAt = _sim.curTick();

    for (std::size_t i = 0; i < route.links.size(); ++i) {
        LinkId l = route.links[i];
        bool forward = _topo.link(l).a == route.nodes[i];
        flow.pathIdx.push_back(l * 2 + (forward ? 1 : 0));
    }
    flow.linkPos.resize(flow.pathIdx.size());

    flow.completion = std::make_unique<EventFunctionWrapper>(
        [this, id] { finish(id); }, "flow.completion");

    bool fast = _fastPathBytes > 0 && bytes <= _fastPathBytes &&
                !route.links.empty();
    if (fast) {
        // Constant-latency model: a short transfer completes after
        // path latency + serialization at the bottleneck rate,
        // without ever contending in the solver.
        flow.fastPath = true;
        ++_solverStats.fastPathHits;
        Tick eta = start_delay + fastPathDuration(_topo, route, bytes);
        auto [it, inserted] = _flows.emplace(id, std::move(flow));
        (void)inserted;
        if (TraceManager *tr = flowTracer()) {
            tr->asyncBegin(_traceTrack, TraceCategory::flow, "flow",
                           id, _sim.curTick());
        }
        _sim.scheduleAfter(*it->second.completion, eta);
        return id;
    }

    flow.activation = std::make_unique<EventFunctionWrapper>(
        [this, id] { activate(id); }, "flow.activation");

    auto [it, inserted] = _flows.emplace(id, std::move(flow));
    (void)inserted;
    if (TraceManager *tr = flowTracer()) {
        tr->asyncBegin(_traceTrack, TraceCategory::flow, "flow", id,
                       _sim.curTick());
    }
    _sim.scheduleAfter(*it->second.activation, start_delay);
    return id;
}

void
NetModel::enroll(Flow &flow)
{
    for (std::size_t i = 0; i < flow.pathIdx.size(); ++i) {
        auto &members = _linkFlows[flow.pathIdx[i]];
        flow.linkPos[i] = static_cast<std::uint32_t>(members.size());
        members.push_back(&flow);
    }
}

void
NetModel::unenroll(Flow &flow)
{
    for (std::size_t i = 0; i < flow.pathIdx.size(); ++i) {
        std::uint32_t dl = flow.pathIdx[i];
        auto &members = _linkFlows[dl];
        std::uint32_t pos = flow.linkPos[i];
        Flow *moved = members.back();
        members[pos] = moved;
        members.pop_back();
        if (moved == &flow)
            continue;
        // Tell the flow that slid into our slot where it now lives.
        // Shortest-path routes never repeat a directed link, so the
        // first match is the right hop.
        for (std::size_t j = 0; j < moved->pathIdx.size(); ++j) {
            if (moved->pathIdx[j] == dl) {
                moved->linkPos[j] = pos;
                break;
            }
        }
    }
}

void
NetModel::activate(FlowId id)
{
    auto it = _flows.find(id);
    if (it == _flows.end())
        HOLDCSIM_PANIC("activation of unknown flow ", id);
    Flow &flow = it->second;
    if (flow.pathIdx.empty() || flow.remainingBits <= 0.0) {
        // Local or empty transfer: complete immediately.
        finish(id);
        return;
    }
    flow.active = true;
    flow.lastUpdate = _sim.curTick();
    enroll(flow);
    if (_bulk)
        return; // endBulkLoad() solves once for everyone
    for (std::uint32_t dl : flow.pathIdx)
        _seedLinks.push_back(dl);
    resolve();
}

void
NetModel::finish(FlowId id)
{
    auto it = _flows.find(id);
    if (it == _flows.end())
        HOLDCSIM_PANIC("completion of unknown flow ", id);
    Flow &flow = it->second;
    bool was_active = flow.active;
    FlowDoneFn done = std::move(flow.onDone);
    _flowLatency.sample(toSeconds(_sim.curTick() - flow.startedAt));
    ++_flowsCompleted;
    if (TraceManager *tr = flowTracer()) {
        tr->asyncEnd(_traceTrack, TraceCategory::flow, "flow", id,
                     _sim.curTick());
    }
    if (was_active) {
        unenroll(flow);
        // The freed bandwidth can only move flows in this
        // component; everyone else keeps their exact rates.
        for (std::uint32_t dl : flow.pathIdx)
            _seedLinks.push_back(dl);
    }
    _flows.erase(it);
    if (was_active)
        resolve();
    if (done)
        done();
}

void
NetModel::endBulkLoad()
{
    _bulk = false;
    for (std::uint32_t dl = 0; dl < _linkFlows.size(); ++dl) {
        if (!_linkFlows[dl].empty())
            _seedLinks.push_back(dl);
    }
    resolve();
}

void
NetModel::markLink(std::uint32_t dl)
{
    if (_linkEpoch[dl] != _epoch) {
        _linkEpoch[dl] = _epoch;
        _dirtyLinks.push_back(dl);
    }
}

void
NetModel::abortSolve(const std::string &what)
{
    // The solver wedged: an internal inconsistency, not a user
    // error. Name the flows and links still in play so the
    // post-mortem pinpoints the offending state, then hand the
    // run to the campaign quarantine machinery.
    std::ostringstream detail;
    detail << what << "; " << _unfrozen.size()
           << " unfrozen flow(s):";
    std::size_t shown = 0;
    for (Flow *flow : _unfrozen) {
        if (++shown > 4) {
            detail << " ...";
            break;
        }
        detail << " flow " << flow->id << " links[";
        for (std::size_t i = 0; i < flow->pathIdx.size(); ++i) {
            std::uint32_t dl = flow->pathIdx[i];
            detail << (i ? " " : "") << dl / 2
                   << (dl & 1 ? "f" : "r") << ":cap="
                   << _capLeft[dl] << "/users=" << _usersLeft[dl];
        }
        detail << "]";
    }
    std::string reason = detail.str();
    _sim.abortDump(std::cerr, reason);
    throw SimAbortError(reason);
}

void
NetModel::resolve()
{
    if (!_wholeFabric && _seedLinks.empty())
        return;

    // 1/2: collect the dirty flows and the directed links they
    // cross. Epoch marks make visits O(1) with no clearing pass.
    ++_epoch;
    _dirtyLinks.clear();
    _dirtyFlows.clear();
    if (_wholeFabric) {
        // Every active flow, in FlowId order: completions are
        // rescheduled in this order and same-tick ties follow
        // insertion order, so the event sequence is reproducible.
        for (auto &[id, f] : _flows) {
            if (!f.active)
                continue;
            _dirtyFlows.push_back(&f);
            for (std::uint32_t dl : f.pathIdx)
                markLink(dl);
        }
    } else {
        // Expand the seeds to the full connected component over
        // the membership lists.
        for (std::uint32_t dl : _seedLinks)
            markLink(dl);
        for (std::size_t i = 0; i < _dirtyLinks.size(); ++i) {
            for (Flow *f : _linkFlows[_dirtyLinks[i]]) {
                if (f->visitEpoch == _epoch)
                    continue;
                f->visitEpoch = _epoch;
                _dirtyFlows.push_back(f);
                for (std::uint32_t dl : f->pathIdx)
                    markLink(dl);
            }
        }
    }
    _seedLinks.clear();

    ++_solverStats.resolves;
    _solverStats.resolvedFlows += _dirtyFlows.size();
    _solverStats.dirtyLinks += _dirtyLinks.size();
    _solverStats.maxDirtyFlows = std::max(
        _solverStats.maxDirtyFlows,
        static_cast<std::uint64_t>(_dirtyFlows.size()));

    if (_dirtyFlows.empty())
        return; // e.g. a repaired link with no traffic near it

    // 3: settle transferred bits for the dirty flows, whose rates
    // are about to change. Clean flows keep progressing linearly at
    // their unchanged rates, so their books stay correct untouched.
    Tick now = _sim.curTick();
    for (Flow *f : _dirtyFlows) {
        double transferred = f->rate * toSeconds(now - f->lastUpdate);
        f->remainingBits =
            std::max(0.0, f->remainingBits - transferred);
        f->lastUpdate = now;
    }

    // 4: progressive filling over the dirty flows: repeatedly
    // saturate the most contended directed link and freeze its
    // flows at the bottleneck share. Every active flow on a dirty
    // link is dirty (whole fabric, or the BFS fixed point), so the
    // problem is self-contained and its solution equals the global
    // max-min allocation on these flows.
    const std::size_t n_dl = 2 * _topo.numLinks();
    if (_capLeft.size() != n_dl) {
        _capLeft.resize(n_dl);
        _usersLeft.resize(n_dl);
        _isBottleneck.assign(n_dl, 0);
    }
    for (std::uint32_t dl : _dirtyLinks) {
        _capLeft[dl] = _topo.link(dl / 2).rate;
        _usersLeft[dl] = 0;
    }
    for (Flow *f : _dirtyFlows) {
        for (std::uint32_t dl : f->pathIdx)
            ++_usersLeft[dl];
    }

    _unfrozen = _dirtyFlows;
    while (!_unfrozen.empty()) {
        double best_share = std::numeric_limits<double>::infinity();
        for (std::uint32_t dl : _dirtyLinks) {
            if (_usersLeft[dl] == 0)
                continue;
            double share = _capLeft[dl] / _usersLeft[dl];
            best_share = std::min(best_share, share);
        }
        if (!std::isfinite(best_share))
            abortSolve("flow solve found no bottleneck");

        // Snapshot the bottleneck link set for this round *before*
        // freezing anything: freezing a flow debits the links it
        // crosses, and comparing later flows against those mutated
        // shares mis-classifies links that were epsilon-tied at the
        // round's start (flows frozen above or below their true
        // max-min rate).
        double tolerance = 1e-9 * std::max(1.0, best_share);
        for (std::uint32_t dl : _dirtyLinks) {
            _isBottleneck[dl] =
                _usersLeft[dl] > 0 &&
                _capLeft[dl] / _usersLeft[dl] <=
                    best_share + tolerance;
        }

        std::size_t kept = 0;
        for (Flow *flow : _unfrozen) {
            bool frozen = false;
            for (std::uint32_t dl : flow->pathIdx) {
                if (_isBottleneck[dl]) {
                    frozen = true;
                    break;
                }
            }
            if (frozen) {
                flow->rate = best_share;
                for (std::uint32_t dl : flow->pathIdx) {
                    _capLeft[dl] =
                        std::max(0.0, _capLeft[dl] - best_share);
                    --_usersLeft[dl];
                }
            } else {
                _unfrozen[kept++] = flow;
            }
        }
        if (kept == _unfrozen.size()) {
            _unfrozen.resize(kept);
            abortSolve(detail::format(
                "flow solve made no progress at share ",
                best_share));
        }
        _unfrozen.resize(kept);
    }

    // 5: reschedule completions for the dirty flows only.
    for (Flow *f : _dirtyFlows) {
        if (f->completion->scheduled())
            _sim.deschedule(*f->completion);
        if (f->rate <= 0.0)
            HOLDCSIM_PANIC("active flow ", f->id, " got zero rate");
        double seconds = f->remainingBits / f->rate;
        Tick eta = fromSeconds(seconds);
        _sim.schedule(*f->completion, now + (eta > 0 ? eta : 1));
    }
}

bool
NetModel::abortFlow(FlowId flow_id)
{
    auto it = _flows.find(flow_id);
    if (it == _flows.end())
        return false;
    Flow &f = it->second;
    bool was_active = f.active;
    FlowDoneFn aborted = std::move(f.onAbort);
    if (f.completion && f.completion->scheduled())
        _sim.deschedule(*f.completion);
    if (f.activation && f.activation->scheduled())
        _sim.deschedule(*f.activation);
    if (was_active) {
        unenroll(f);
        for (std::uint32_t dl : f.pathIdx)
            _seedLinks.push_back(dl);
    }
    _flows.erase(it);
    ++_flowsAborted;
    if (TraceManager *tr = flowTracer()) {
        tr->instant(_traceTrack, TraceCategory::flow, "flow.abort",
                    _sim.curTick());
        tr->asyncEnd(_traceTrack, TraceCategory::flow, "flow",
                     flow_id, _sim.curTick());
    }
    if (was_active)
        resolve(); // survivors inherit the freed bandwidth
    if (aborted)
        aborted();
    return true;
}

std::size_t
NetModel::abortFlowsOn(LinkId l)
{
    // Active flows come straight off the membership lists; pending
    // and fast-path flows (not enrolled) need the full scan, but
    // this only runs on fault events, never on the churn hot path.
    std::vector<FlowId> doomed;
    for (Flow *f : _linkFlows[2 * l])
        doomed.push_back(f->id);
    for (Flow *f : _linkFlows[2 * l + 1])
        doomed.push_back(f->id);
    for (const auto &[id, flow] : _flows) {
        if (flow.active)
            continue;
        for (std::uint32_t dl : flow.pathIdx) {
            if (dl / 2 == l) {
                doomed.push_back(id);
                break;
            }
        }
    }
    // Deterministic (FlowId) kill order whatever the membership
    // lists' order.
    std::sort(doomed.begin(), doomed.end());
    doomed.erase(std::unique(doomed.begin(), doomed.end()),
                 doomed.end());
    for (FlowId id : doomed)
        abortFlow(id);
    return doomed.size();
}

void
NetModel::linkHealthChanged(LinkId l, bool healthy)
{
    (void)healthy;
    // The whole-fabric scope re-solved every survivor when
    // abortFlowsOn() removed the failed link's flows; re-solving
    // again here would only re-sequence same-tick completions.
    if (_wholeFabric)
        return;
    // A capacity boundary moved (fault injected or repaired):
    // invalidate the component touching the link. After a failure
    // the flows crossing it were already aborted, so this usually
    // resolves a small or empty set -- but it keeps the fluid
    // state honest if a future capacity model makes health affect
    // surviving flows.
    _seedLinks.push_back(2 * l);
    _seedLinks.push_back(2 * l + 1);
    resolve();
}

void
NetModel::setAbortCallback(FlowId flow, FlowDoneFn on_abort)
{
    auto it = _flows.find(flow);
    if (it == _flows.end())
        HOLDCSIM_PANIC("abort callback for unknown flow ", flow);
    it->second.onAbort = std::move(on_abort);
}

BitsPerSec
NetModel::flowRate(FlowId flow) const
{
    auto it = _flows.find(flow);
    if (it == _flows.end() || !it->second.active)
        return 0.0;
    return it->second.rate;
}

double
NetModel::linkUtilization(LinkId l) const
{
    double fwd = 0.0, rev = 0.0;
    for (const Flow *f : _linkFlows[2 * l + 1])
        fwd += f->rate;
    for (const Flow *f : _linkFlows[2 * l])
        rev += f->rate;
    return std::max(fwd, rev) / _topo.link(l).rate;
}

} // namespace holdcsim
