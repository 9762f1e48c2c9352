/**
 * @file
 * Acceptance bench for the parallel experiment engine and the dense
 * flow-reshare rewrite.
 *
 * Part 1 runs the same (tau sweep x 8 replica) farm grid twice --
 * sequentially (jobs=1) and on the work-stealing pool (jobs=N) --
 * and REQUIRES every per-replica metric to be bit-identical between
 * the two runs (exit 1 otherwise; CI runs this). The wall-clock
 * ratio of the two runs is the engine speedup.
 *
 * Part 2 replays the same flow-activation churn through the current
 * dense-indexed exact-tier solver and through a reference
 * re-implementation of the previous algorithm (per-round std::map
 * lookups for capacity/users/bottleneck membership), and reports
 * microseconds per reshare for both.
 *
 * Part 3 is the network-model-tier scaling point: a standing
 * population of rack-local flows (10k / 100k / 1M concurrent) is
 * bulk-loaded on a fat tree, then a churn of abort+start updates is
 * replayed under the exact tier (whole-fabric re-solve scope) and
 * the fluid tier (component scope), reporting microseconds per
 * update for each. Rack-local traffic keeps the fluid model's dirty component
 * at one rack while the exact model re-solves (and reschedules) the
 * whole population, so the gap is the lazy-invalidation win.
 *
 * Usage: bench_engine_parallel [--json=FILE] [--jobs=N]
 *                              [--churn-max=FLOWS] [--churn-only]
 *
 * --churn-only skips parts 1 and 2 (and JSON output) for quick
 * iteration on the model-tier comparison.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "exp/experiment.hh"
#include "exp/thread_pool.hh"
#include "network/fluid/net_model.hh"
#include "network/routing.hh"
#include "network/topology.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

using namespace holdcsim;

namespace {

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ------------------------------------------------- part 1: the engine

const Tick taus[] = {250 * msec, 1000 * msec};
constexpr std::size_t n_replicas = 8;

MetricRow
farmCell(std::size_t point, std::uint64_t seed)
{
    bench::FarmParams p;
    p.nServers = 50;
    p.nCores = 4;
    p.duration = 20 * sec;
    p.tau = taus[point];
    p.seed = seed;
    bench::FarmResult r = bench::runFarm(p);
    return {
        {"energy_j", r.energy},
        {"mean_latency_s", r.meanLatencySec},
        {"p95_s", r.p95Sec},
        {"p99_s", r.p99Sec},
        {"jobs", static_cast<double>(r.jobs)},
        {"sim_seconds", r.simSeconds},
    };
}

/** Bitwise comparison: even sign-of-zero or NaN payloads must agree. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool
recordsIdentical(const std::vector<ReplicaRecord> &a,
                 const std::vector<ReplicaRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].point != b[i].point || a[i].replica != b[i].replica ||
            a[i].seed != b[i].seed ||
            a[i].metrics.size() != b[i].metrics.size())
            return false;
        for (std::size_t m = 0; m < a[i].metrics.size(); ++m) {
            if (a[i].metrics[m].first != b[i].metrics[m].first ||
                !sameBits(a[i].metrics[m].second,
                          b[i].metrics[m].second))
                return false;
        }
    }
    return true;
}

// ---------------------------------------- part 2: reshare before/after

/**
 * The pre-rewrite reshare data layout: capacity, user counts and the
 * per-round bottleneck set all live in ordered maps keyed by the
 * directed-link id, so every flow-hop visit pays three tree lookups.
 * Same water-filling algorithm (and same bottleneck-snapshot fix) as
 * the production code -- only the containers differ.
 */
double
mapReshare(const Topology &topo,
           const std::vector<std::vector<std::uint32_t>> &paths,
           std::size_t n_active)
{
    std::map<std::uint32_t, double> cap;
    std::map<std::uint32_t, unsigned> users;
    std::vector<std::size_t> unfrozen;
    for (std::size_t f = 0; f < n_active; ++f) {
        unfrozen.push_back(f);
        for (std::uint32_t dl : paths[f]) {
            auto [it, fresh] = cap.emplace(dl, 0.0);
            if (fresh)
                it->second = topo.link(dl / 2).rate;
            ++users[dl];
        }
    }

    double checksum = 0.0;
    while (!unfrozen.empty()) {
        double best = -1.0;
        for (std::size_t f : unfrozen) {
            for (std::uint32_t dl : paths[f]) {
                double share = cap[dl] / users[dl];
                if (best < 0.0 || share < best)
                    best = share;
            }
        }
        double tol = 1e-9 * std::max(1.0, best);
        std::set<std::uint32_t> bottleneck;
        for (std::size_t f : unfrozen) {
            for (std::uint32_t dl : paths[f]) {
                if (cap[dl] / users[dl] <= best + tol)
                    bottleneck.insert(dl);
            }
        }
        std::vector<std::size_t> next;
        for (std::size_t f : unfrozen) {
            bool frozen = false;
            for (std::uint32_t dl : paths[f]) {
                if (bottleneck.count(dl)) {
                    frozen = true;
                    break;
                }
            }
            if (!frozen) {
                next.push_back(f);
                continue;
            }
            checksum += best;
            for (std::uint32_t dl : paths[f]) {
                cap[dl] = std::max(0.0, cap[dl] - best);
                --users[dl];
            }
        }
        if (next.size() == unfrozen.size())
            break; // no progress; cannot happen with the snapshot fix
        unfrozen.swap(next);
    }
    return checksum;
}

struct ReshareTimings {
    std::size_t flows = 0;
    double dense_us = 0.0;
    double map_us = 0.0;
};

ReshareTimings
reshareChurn(std::size_t n_flows)
{
    auto topo = Topology::fatTree(8, 1e9, 5 * usec);
    StaticRouting routing(topo);

    // The same route set feeds both implementations.
    std::vector<Route> routes;
    for (std::size_t i = 0; i < n_flows; ++i)
        routes.push_back(routing.route(
            topo.serverNode(i % 128),
            topo.serverNode((i * 7 + 3) % 128), i));
    std::vector<std::vector<std::uint32_t>> paths(n_flows);
    for (std::size_t i = 0; i < n_flows; ++i) {
        for (std::size_t h = 0; h < routes[i].links.size(); ++h) {
            LinkId l = routes[i].links[h];
            bool forward = topo.link(l).a == routes[i].nodes[h];
            paths[i].push_back(static_cast<std::uint32_t>(
                l * 2 + (forward ? 1 : 0)));
        }
    }

    ReshareTimings t;
    t.flows = n_flows;

    // Dense path: every activation event triggers one production
    // reshare over the flows admitted so far.
    {
        Simulator sim;
        auto mgr = makeNetModel(sim, topo, {NetModelKind::exact});
        double t0 = now_s();
        for (std::size_t i = 0; i < n_flows; ++i) {
            mgr->startFlow(routes[i], 1'000'000'000'000, [] {});
            sim.runUntil(0);
        }
        t.dense_us = (now_s() - t0) * 1e6 / n_flows;
    }

    // Map-based reference on the identical churn pattern.
    {
        double acc = 0.0;
        double t0 = now_s();
        for (std::size_t i = 1; i <= n_flows; ++i)
            acc += mapReshare(topo, paths, i);
        t.map_us = (now_s() - t0) * 1e6 / n_flows;
        if (acc < 0.0)
            std::printf("%f\n", acc); // keep acc observable
    }
    return t;
}

// --------------------------- part 3: flow-churn scaling (model tiers)

struct ChurnPoint {
    std::size_t flows = 0;
    std::size_t racks = 0;
    std::size_t ops = 0;
    double exact_us = 0.0;
    double fluid_us = 0.0;
    std::uint64_t fluid_mean_dirty = 0;
};

/**
 * Rack-local routes on an Al-Fares fat tree of parameter @p k:
 * flow j connects two servers under the same edge switch, cycling
 * through all racks and intra-rack partners. The fluid model's
 * connected component for any one update is therefore a single
 * rack's flow set.
 */
std::vector<Route>
rackLocalRoutes(const Topology &topo, StaticRouting &routing,
                unsigned k, std::size_t n_flows)
{
    const std::size_t per_rack = k / 2;
    const std::size_t n_srv = topo.numServers();
    std::vector<Route> routes;
    routes.reserve(n_flows);
    for (std::size_t j = 0; j < n_flows; ++j) {
        std::size_t src = j % n_srv;
        std::size_t rack_base = src - src % per_rack;
        std::size_t offset =
            1 + (j / n_srv) % (per_rack - 1); // never 0: dst != src
        std::size_t dst =
            rack_base + (src - rack_base + offset) % per_rack;
        routes.push_back(routing.route(topo.serverNode(src),
                                       topo.serverNode(dst), j));
    }
    return routes;
}

/**
 * Bulk-load the standing population, then replay @p ops abort+start
 * updates and return microseconds per update. @p dirty_out receives
 * the backend's mean dirty-set size per resolve during the churn.
 */
double
churnRun(NetModelKind kind, const Topology &topo,
         const std::vector<Route> &routes, std::size_t ops,
         std::uint64_t *dirty_out = nullptr)
{
    Simulator sim;
    NetModelConfig cfg;
    cfg.kind = kind;
    auto model = makeNetModel(sim, topo, cfg);

    constexpr Bytes huge = 1'000'000'000'000'000; // completions far out
    std::vector<FlowId> ids(routes.size());
    double t_load = now_s();
    model->beginBulkLoad();
    for (std::size_t i = 0; i < routes.size(); ++i)
        ids[i] = model->startFlow(routes[i], huge, [] {});
    sim.runUntil(0);
    model->endBulkLoad();
    std::printf("    %s: %zu flows bulk-loaded in %.1f s\n",
                toString(kind), routes.size(), now_s() - t_load);
    std::fflush(stdout);

    NetSolverStats before = model->solverStats();
    double t0 = now_s();
    for (std::size_t op = 0; op < ops; ++op) {
        std::size_t i = op % ids.size();
        model->abortFlow(ids[i]);
        ids[i] = model->startFlow(routes[i], huge, [] {});
        sim.runUntil(sim.curTick());
    }
    double us = (now_s() - t0) * 1e6 / ops;
    std::printf("    %s: %zu updates in %.1f s\n", toString(kind),
                ops, (now_s() - t0));
    std::fflush(stdout);
    if (dirty_out) {
        const NetSolverStats &after = model->solverStats();
        std::uint64_t resolves = after.resolves - before.resolves;
        *dirty_out = resolves == 0
                         ? 0
                         : (after.resolvedFlows -
                            before.resolvedFlows) /
                               resolves;
    }
    return us;
}

ChurnPoint
churnPoint(std::size_t n_flows)
{
    // 1M concurrent flows get the bigger fabric (1024 servers, 128
    // racks); the smaller points use fatTree(8) (128 servers, 32
    // racks).
    const unsigned k = n_flows >= 1'000'000 ? 16 : 8;
    auto topo = Topology::fatTree(k, 1e9, 5 * usec);
    StaticRouting routing(topo);
    auto routes = rackLocalRoutes(topo, routing, k, n_flows);

    ChurnPoint p;
    p.flows = n_flows;
    p.racks = topo.numServers() / (k / 2);
    p.ops = n_flows >= 1'000'000 ? 4 : n_flows >= 100'000 ? 16 : 64;
    p.fluid_us = churnRun(NetModelKind::fluid, topo, routes, p.ops,
                          &p.fluid_mean_dirty);
    p.exact_us = churnRun(NetModelKind::exact, topo, routes, p.ops);
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    std::string json_path;
    unsigned jobs = ThreadPool::defaultWorkers();
    std::size_t churn_max = 1'000'000;
    bool churn_only = false; // debug: skip parts 1+2, no JSON
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--json=", 0) == 0)
            json_path = arg.substr(7);
        else if (arg.rfind("--jobs=", 0) == 0)
            jobs = static_cast<unsigned>(
                std::strtoul(arg.c_str() + 7, nullptr, 10));
        else if (arg.rfind("--churn-max=", 0) == 0)
            churn_max = static_cast<std::size_t>(
                std::strtoul(arg.c_str() + 12, nullptr, 10));
        else if (arg == "--churn-only")
            churn_only = true;
    }
    if (jobs == 0)
        jobs = ThreadPool::defaultWorkers();

    const std::size_t points = std::size(taus);
    bool identical = true;
    double seq_s = 0.0, par_s = 0.0, speedup = 0.0;
    ReshareTimings rt;
    if (!churn_only) {
        std::printf(
            "== experiment engine: %zu points x %zu replicas ==\n",
            points, n_replicas);

        auto cell = [](std::size_t point, std::size_t,
                       std::uint64_t seed) {
            return farmCell(point, seed);
        };

        double t0 = now_s();
        auto seq =
            ExperimentEngine(1).run(points, n_replicas, 1, cell);
        seq_s = now_s() - t0;

        t0 = now_s();
        auto par =
            ExperimentEngine(jobs).run(points, n_replicas, 1, cell);
        par_s = now_s() - t0;

        identical = recordsIdentical(seq, par);
        speedup = seq_s / par_s;
        std::printf("sequential %.2f s, parallel (%u jobs) %.2f s: "
                    "%.2fx speedup, stats %s\n",
                    seq_s, jobs, par_s, speedup,
                    identical ? "bit-identical" : "MISMATCH");

        std::printf(
            "== flow reshare: dense vs map (512-flow churn) ==\n");
        rt = reshareChurn(512);
        std::printf("dense %.1f us/reshare, map %.1f us/reshare: "
                    "%.2fx faster\n",
                    rt.dense_us, rt.map_us, rt.map_us / rt.dense_us);
    }

    std::printf("== flow churn: exact vs fluid model tier ==\n");
    std::vector<ChurnPoint> churn;
    for (std::size_t n : {std::size_t{10'000}, std::size_t{100'000},
                          std::size_t{1'000'000}}) {
        if (n > churn_max)
            continue;
        churn.push_back(churnPoint(n));
        const ChurnPoint &p = churn.back();
        std::printf("%8zu flows (%zu racks): exact %.1f us/update, "
                    "fluid %.1f us/update (%.1fx, mean dirty set "
                    "%llu flows)\n",
                    p.flows, p.racks, p.exact_us, p.fluid_us,
                    p.exact_us / p.fluid_us,
                    static_cast<unsigned long long>(
                        p.fluid_mean_dirty));
    }

    if (!json_path.empty() && !churn_only) {
        std::ofstream os(json_path);
        // Timings only mean something next to the host they ran on.
        os << "{\n"
           << "  \"host_cpus\": " << std::thread::hardware_concurrency()
           << ",\n"
           << "  \"engine\": {\n"
           << "    \"points\": " << points << ",\n"
           << "    \"replicas\": " << n_replicas << ",\n"
           << "    \"jobs\": " << jobs << ",\n"
           << "    \"sequential_s\": " << seq_s << ",\n"
           << "    \"parallel_s\": " << par_s << ",\n"
           << "    \"speedup\": " << speedup << ",\n"
           << "    \"stats_bit_identical\": "
           << (identical ? "true" : "false") << "\n"
           << "  },\n"
           << "  \"reshare\": {\n"
           << "    \"flows\": " << rt.flows << ",\n"
           << "    \"dense_us_per_reshare\": " << rt.dense_us << ",\n"
           << "    \"map_us_per_reshare\": " << rt.map_us << ",\n"
           << "    \"speedup\": " << rt.map_us / rt.dense_us << "\n"
           << "  },\n"
           << "  \"flow_churn\": [\n";
        for (std::size_t i = 0; i < churn.size(); ++i) {
            const ChurnPoint &p = churn[i];
            os << "    {\n"
               << "      \"concurrent_flows\": " << p.flows << ",\n"
               << "      \"racks\": " << p.racks << ",\n"
               << "      \"updates\": " << p.ops << ",\n"
               << "      \"exact_us_per_update\": " << p.exact_us
               << ",\n"
               << "      \"fluid_us_per_update\": " << p.fluid_us
               << ",\n"
               << "      \"fluid_mean_dirty_flows\": "
               << p.fluid_mean_dirty << ",\n"
               << "      \"speedup\": " << p.exact_us / p.fluid_us
               << "\n"
               << "    }" << (i + 1 < churn.size() ? "," : "")
               << "\n";
        }
        os << "  ]\n"
           << "}\n";
        std::printf("results written to %s\n", json_path.c_str());
    }

    if (!identical) {
        std::fprintf(stderr, "FAIL: parallel replica stats differ "
                             "from sequential\n");
        return 1;
    }
    return 0;
}
