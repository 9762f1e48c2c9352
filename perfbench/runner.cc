/**
 * @file
 * Workload runner of the paper-workload benchmark (see README.md).
 *
 *   perfbench_runner --workload NAME --seed N [--trace]
 *
 * Runs one workload once, through the public DataCenter and
 * ExperimentEngine API only, and prints one JSON record on stdout:
 * host time per phase, job counts, event-queue and solver counters,
 * peak RSS and an FNV-1a digest of the dumpStats text. run.py turns
 * the records into metrics and checks them.
 *
 * With --trace the runner also times calls into each layer from the
 * outside: a KernelProbe times every event by Event::name(), and
 * decorators time ArrivalProcess::nextArrival, JobGenerator::makeJob
 * and DispatchPolicy::pick. Spans nest on a stack, so every span name
 * gets self and inclusive host time; totals are kept in memory, per
 * top-level phase, and written once at the end.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "dc/datacenter.hh"
#include "exp/experiment.hh"
#include "network/fluid/net_model.hh"
#include "sched/dispatch_policy.hh"
#include "sim/logging.hh"
#include "workload/service.hh"
#include "workload/trace.hh"

using namespace holdcsim;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Host-time spans on a stack, totalled per (top-level phase, name). */
class SpanRecorder
{
  public:
    struct Totals {
        std::uint64_t calls = 0;
        std::int64_t selfNs = 0;
        std::int64_t inclNs = 0;
    };

    /** Intern @p name; the id is stable for the recorder's life. */
    std::size_t
    key(const std::string &name)
    {
        auto [it, fresh] = _ids.try_emplace(name, _names.size());
        if (fresh)
            _names.push_back(name);
        return it->second;
    }

    void
    begin(std::size_t key)
    {
        std::size_t root = _stack.empty() ? key : _stack.front().key;
        _stack.push_back(Frame{key, root, Clock::now(), 0});
    }

    void
    end()
    {
        auto now = Clock::now();
        Frame f = _stack.back();
        _stack.pop_back();
        std::int64_t incl =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - f.start)
                .count();
        Totals &t = slot(f.root, f.key);
        ++t.calls;
        t.inclNs += incl;
        t.selfNs += incl - f.childNs;
        if (!_stack.empty())
            _stack.back().childNs += incl;
    }

    /** Add every total of @p other into this recorder. */
    void
    merge(const SpanRecorder &other)
    {
        for (std::size_t r = 0; r < other._rows.size(); ++r) {
            for (std::size_t k = 0; k < other._rows[r].size(); ++k) {
                const Totals &src = other._rows[r][k];
                if (src.calls == 0)
                    continue;
                Totals &dst = slot(key(other._names[r]),
                                   key(other._names[k]));
                dst.calls += src.calls;
                dst.selfNs += src.selfNs;
                dst.inclNs += src.inclNs;
            }
        }
    }

    /** {"phase": {"name": [calls, self_ns, incl_ns], ...}, ...} */
    std::string
    json() const
    {
        std::ostringstream os;
        os << '{';
        bool first_row = true;
        for (std::size_t r = 0; r < _rows.size(); ++r) {
            bool any = false;
            for (std::size_t k = 0; k < _rows[r].size(); ++k) {
                const Totals &t = _rows[r][k];
                if (t.calls == 0)
                    continue;
                os << (any ? "," : (first_row ? "" : ","));
                if (!any)
                    os << '"' << _names[r] << "\":{";
                os << '"' << _names[k] << "\":[" << t.calls << ','
                   << t.selfNs << ',' << t.inclNs << ']';
                any = true;
                first_row = false;
            }
            if (any)
                os << '}';
        }
        os << '}';
        return os.str();
    }

  private:
    struct Frame {
        std::size_t key;
        std::size_t root;
        Clock::time_point start;
        std::int64_t childNs;
    };

    Totals &
    slot(std::size_t root, std::size_t key)
    {
        if (_rows.size() <= root)
            _rows.resize(root + 1);
        auto &row = _rows[root];
        if (row.size() <= key)
            row.resize(key + 1);
        return row[key];
    }

    std::unordered_map<std::string, std::size_t> _ids;
    std::vector<std::string> _names;
    std::vector<Frame> _stack;
    std::vector<std::vector<Totals>> _rows;
};

/** RAII span; a null recorder makes it free. */
class Span
{
  public:
    Span(SpanRecorder *spans, std::size_t key) : _spans(spans)
    {
        if (_spans)
            _spans->begin(key);
    }
    ~Span()
    {
        if (_spans)
            _spans->end();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanRecorder *_spans;
};

/** Times every event by name; tracks the queue depth high-water. */
class LayerProbe : public KernelProbe
{
  public:
    explicit LayerProbe(SpanRecorder &spans) : _spans(spans) {}

    void
    beginEvent(const Event &ev, std::size_t queued) override
    {
        if (queued > peakDepth)
            peakDepth = queued;
        _spans.begin(_spans.key(ev.name()));
    }

    void endEvent() override { _spans.end(); }

    std::size_t peakDepth = 0;

  private:
    SpanRecorder &_spans;
};

class TimedArrivals : public ArrivalProcess
{
  public:
    TimedArrivals(std::unique_ptr<ArrivalProcess> inner,
                  SpanRecorder &spans)
        : _inner(std::move(inner)), _spans(spans),
          _key(spans.key("call:nextArrival"))
    {}

    Tick
    nextArrival() override
    {
        Span s(&_spans, _key);
        return _inner->nextArrival();
    }

    bool exhausted() const override { return _inner->exhausted(); }

  private:
    std::unique_ptr<ArrivalProcess> _inner;
    SpanRecorder &_spans;
    std::size_t _key;
};

/**
 * Forwards to the workload's generator with run-local job ids (so a
 * sweep's cells are independent of thread interleaving), counts the
 * jobs injected and, when traced, times each makeJob call.
 */
class CountingJobs : public JobGenerator
{
  public:
    CountingJobs(JobGenerator &inner, SpanRecorder *spans)
        : _inner(inner), _spans(spans),
          _key(spans ? spans->key("call:makeJob") : 0)
    {}

    Job
    buildJob(JobId, Tick arrival) override
    {
        Span s(_spans, _key);
        return _inner.makeJob(arrival, ++injected);
    }

    std::uint64_t injected = 0;

  private:
    JobGenerator &_inner;
    SpanRecorder *_spans;
    std::size_t _key;
};

class TimedPolicy : public DispatchPolicy
{
  public:
    TimedPolicy(std::unique_ptr<DispatchPolicy> inner,
                SpanRecorder &spans)
        : _inner(std::move(inner)), _spans(spans),
          _key(spans.key("call:pick"))
    {}

    std::size_t
    pick(const std::vector<std::size_t> &candidates,
         const std::vector<Server *> &servers,
         const DispatchContext &ctx) override
    {
        Span s(&_spans, _key);
        candidatesSeen += candidates.size();
        return _inner->pick(candidates, servers, ctx);
    }

    std::uint64_t candidatesSeen = 0;

  private:
    std::unique_ptr<DispatchPolicy> _inner;
    SpanRecorder &_spans;
    std::size_t _key;
};

/** A fresh instance of the dispatch policy @p dc was configured with. */
std::unique_ptr<DispatchPolicy>
samePolicy(DataCenter &dc)
{
    switch (dc.config().dispatch) {
      case DataCenterConfig::Dispatch::roundRobin:
        return std::make_unique<RoundRobinPolicy>();
      case DataCenterConfig::Dispatch::leastLoaded:
        return std::make_unique<LeastLoadedPolicy>();
      case DataCenterConfig::Dispatch::random:
        return std::make_unique<RandomPolicy>(
            dc.makeRng("dispatch.random"));
      case DataCenterConfig::Dispatch::networkAware:
        return std::make_unique<NetworkAwarePolicy>(*dc.network());
    }
    return nullptr;
}

/** One DataCenter run of a workload. */
struct CellSpec {
    DataCenterConfig cfg;
    /** Diurnal Wikipedia-like trace over `duration`, else Poisson. */
    bool diurnalTrace = false;
    std::uint64_t traceSeed = 0;
    Tick duration = 0;
    /** Poisson arrivals: jobs injected. */
    std::size_t maxJobs = 0;
    double rho = 0.0;
    Tick meanService = 5 * msec;
    /** Random 3-layer DAG jobs with 100 MB edges, else single-task. */
    bool dagJobs = false;

    /** Canonical text of everything that shapes the run. */
    std::string
    describe() const
    {
        std::ostringstream os;
        os << "servers=" << cfg.nServers << " cores=" << cfg.nCores
           << " controller=" << static_cast<int>(cfg.controller)
           << " tau_ns=" << cfg.delayTimerTau
           << " dispatch=" << static_cast<int>(cfg.dispatch)
           << " fabric=" << static_cast<int>(cfg.fabric)
           << " k=" << cfg.fabricParam << " link_bps=" << cfg.linkRate
           << " switch_sleep_ns=" << cfg.netConfig.switchSleepDelay
           << " anti_affinity=" << cfg.taskAntiAffinity
           << " diurnal=" << diurnalTrace << " trace_seed=" << traceSeed
           << " duration_ns=" << duration
           << " max_jobs=" << maxJobs << " rho=" << rho
           << " service_ns=" << meanService << " dag=" << dagJobs;
        return os.str();
    }
};

struct CellResult {
    double setupS = 0, runS = 0;
    std::uint64_t injected = 0, submitted = 0, completed = 0;
    std::uint64_t events = 0;
    bool drained = false;
    std::string dump;
    EventQueue::Counters queue;
    std::size_t probePeakDepth = 0;
    NetSolverStats solver;
    std::uint64_t pickCandidates = 0;
};

/**
 * Build, run to drain and dump one cell. @p spans (may be null)
 * receives the phase spans and, through the probe and decorators,
 * every call into the model during the run.
 */
CellResult
runCell(const CellSpec &spec, SpanRecorder *spans)
{
    CellResult r;
    auto phase = [spans](const char *name) {
        return spans ? spans->key(name) : 0;
    };
    auto t0 = Clock::now();

    std::vector<Tick> trace;
    if (spec.diurnalTrace) {
        Span s(spans, phase("phase:trace"));
        WikipediaTraceParams wp;
        wp.duration = spec.duration;
        wp.baseRate = PoissonArrival::rateForUtilization(
            spec.rho, spec.cfg.nServers, spec.cfg.nCores,
            toSeconds(spec.meanService));
        wp.diurnalAmplitude = 1.1;
        wp.diurnalPeriod = spec.duration / 2;
        wp.noiseLevel = 0.1;
        wp.burstProbability = 0.0;
        trace = makeWikipediaTrace(wp, Rng(spec.traceSeed, "diurnal"));
    }

    std::unique_ptr<DataCenter> dc;
    {
        Span s(spans, phase("phase:build"));
        dc = std::make_unique<DataCenter>(spec.cfg);
    }

    auto service = std::make_shared<ExponentialService>(
        spec.meanService, dc->makeRng("service"));
    std::unique_ptr<JobGenerator> model;
    if (spec.dagJobs) {
        model = std::make_unique<RandomDagGenerator>(
            service, /*layers=*/3, /*width=*/2,
            /*edge_probability=*/0.5, /*transfer_bytes=*/100ull << 20,
            dc->makeRng("dag"));
    } else {
        model = std::make_unique<SingleTaskGenerator>(service);
    }
    CountingJobs jobs(*model, spans);

    std::unique_ptr<LayerProbe> probe;
    TimedPolicy *policy = nullptr;
    {
        Span s(spans, phase("phase:pump"));
        std::unique_ptr<ArrivalProcess> arrivals;
        std::size_t max_jobs = static_cast<std::size_t>(-1);
        if (spec.diurnalTrace) {
            arrivals = std::make_unique<TraceArrival>(std::move(trace));
        } else {
            double lambda = PoissonArrival::rateForUtilization(
                spec.rho, static_cast<unsigned>(dc->numServers()),
                spec.cfg.nCores, toSeconds(spec.meanService));
            // A DAG job carries ~4 tasks on average.
            if (spec.dagJobs)
                lambda /= 4.0;
            arrivals = std::make_unique<PoissonArrival>(
                lambda, dc->makeRng("arrivals"));
            max_jobs = spec.maxJobs;
        }
        if (spans) {
            arrivals = std::make_unique<TimedArrivals>(std::move(arrivals),
                                                       *spans);
            auto timed =
                std::make_unique<TimedPolicy>(samePolicy(*dc), *spans);
            policy = timed.get();
            dc->scheduler().setPolicy(std::move(timed));
            probe = std::make_unique<LayerProbe>(*spans);
            dc->sim().setProbe(probe.get());
        }
        dc->pump(std::move(arrivals), jobs, max_jobs);
    }
    r.setupS = secondsSince(t0);

    {
        Span s(spans, phase("phase:run"));
        auto t = Clock::now();
        dc->run();
        r.runS = secondsSince(t);
    }
    dc->sim().setProbe(nullptr);

    {
        Span s(spans, phase("phase:stats"));
        std::ostringstream os;
        dc->dumpStats(os); // finishStats() first, then every stat
        r.dump = os.str();
    }

    r.injected = jobs.injected;
    r.submitted = dc->scheduler().jobsSubmitted();
    r.completed = dc->scheduler().jobsCompleted();
    r.events = dc->sim().eventsProcessed();
    r.drained = dc->sim().eventQueue().foregroundCount() == 0;
    r.queue = dc->sim().eventQueue().counters();
    if (probe)
        r.probePeakDepth = probe->peakDepth;
    if (Network *net = dc->network())
        r.solver = net->flows().solverStats();
    if (policy)
        r.pickCandidates = policy->candidatesSeen;
    return r;
}

/*
 * The workloads. Why each was chosen, and which layer metric should
 * move which end-to-end metric on it, is recorded in README.md
 * ("Workloads" and "Predictions"); the notes below are the short form.
 */

/**
 * farm_diurnal -- the Fig. 5 delay-timer case study: 50 x 4 cores, no
 * fabric, least-loaded dispatch, tau = 200 ms, diurnal Wikipedia-like
 * trace at rho = 0.6 with 5 ms exponential service. The per-job
 * lifecycle dominates (core.completion, pump.arrival, least-loaded
 * pick over 50 candidates, job build); the queue stays shallow and
 * there is no fabric, so network changes must not move it.
 *
 * The trace is drawn from a fixed seed: its AR(1) rate noise has
 * persistence 0.8 over 1 s windows, so the job count of a trace tens
 * of seconds long (and the backlog built up in the rho > 1 peaks)
 * moves by 5% or more from seed to seed, and host time by several
 * times that. The
 * workload seed drives service times, so every seed replays the
 * same Fig. 5 trace on a different sample of work.
 */
constexpr std::uint64_t diurnalTraceSeed = 1;

CellSpec
farmDiurnal(std::uint64_t seed, Tick duration, Tick tau)
{
    CellSpec c;
    c.cfg.nServers = 50;
    c.cfg.nCores = 4;
    c.cfg.controller = DataCenterConfig::Controller::delayTimer;
    c.cfg.delayTimerTau = tau;
    c.cfg.dispatch = DataCenterConfig::Dispatch::leastLoaded;
    c.cfg.seed = seed;
    c.diurnalTrace = true;
    c.traceSeed = diurnalTraceSeed;
    c.duration = duration;
    c.rho = 0.6;
    c.meanService = 5 * msec;
    return c;
}

/**
 * fleet_scale -- Table I's 20,480-server row: round-robin dispatch,
 * tau = 500 ms, Poisson rho = 0.3, 5 ms service. Exposes costs that
 * grow with fleet size: per-arrival dispatch over 20k candidates
 * (the by-value candidate copy), a ~100k-deep event queue, hundreds
 * of thousands of core-demotion timers and an 8 MB stats dump.
 */
CellSpec
fleetScale(std::uint64_t seed)
{
    CellSpec c;
    c.cfg.nServers = 20'480;
    c.cfg.nCores = 4;
    c.cfg.controller = DataCenterConfig::Controller::delayTimer;
    c.cfg.delayTimerTau = 500 * msec;
    c.cfg.dispatch = DataCenterConfig::Dispatch::roundRobin;
    c.cfg.seed = seed;
    c.maxJobs = 80'000;
    c.rho = 0.3;
    c.meanService = 5 * msec;
    return c;
}

/**
 * fabric_dag -- Fig. 11 scaled up: fat-tree k = 8 (128 servers) at
 * 10 GbE, 3-layer random-DAG jobs with 100 MB edge flows and task
 * anti-affinity, network-aware dispatch, tau = 2 s, switch sleep 1 s.
 * Flow activation/completion (max-min re-share) dominate. rho = 0.15
 * keeps the fabric out of saturation, so host cost per job is flat in
 * run length.
 */
CellSpec
fabricDag(std::uint64_t seed)
{
    CellSpec c;
    c.cfg.nCores = 4;
    c.cfg.fabric = DataCenterConfig::Fabric::fatTree;
    c.cfg.fabricParam = 8;
    c.cfg.linkRate = 1e10;
    c.cfg.dispatch = DataCenterConfig::Dispatch::networkAware;
    c.cfg.controller = DataCenterConfig::Controller::delayTimer;
    c.cfg.delayTimerTau = 2 * sec;
    c.cfg.netConfig.switchSleepDelay = 1 * sec;
    c.cfg.taskAntiAffinity = true;
    c.cfg.seed = seed;
    c.maxJobs = 2'000;
    c.rho = 0.15;
    c.meanService = 300 * msec;
    c.dagJobs = true;
    return c;
}

/**
 * tau_sweep -- the Fig. 5a tau sweep: the farm_diurnal model on one
 * trace at eight tau values, run as ExperimentEngine cells with two
 * workers (the waiting caller runs cells too: three threads). The
 * only workload that exercises src/exp, including the contention of
 * cells that share the host.
 */
const double sweepTaus[] = {0.0, 0.1, 0.2, 0.4, 0.8, 1.6, 3.0, 5.0};
constexpr unsigned sweepWorkers = 2;
constexpr unsigned sweepThreads = sweepWorkers + 1;
constexpr Tick sweepDuration = 4 * sec;

std::uint64_t
fnv1a(const std::string &text, std::uint64_t h = 14695981039346656037ull)
{
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

const char *
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload "
                 "farm_diurnal|fleet_scale|fabric_dag|tau_sweep "
                 "--seed N [--trace]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    bool have_seed = false;
    bool traced = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--workload" && i + 1 < argc) {
            workload = argv[++i];
        } else if (a == "--seed" && i + 1 < argc) {
            char *end = nullptr;
            seed = std::strtoull(argv[++i], &end, 10);
            have_seed = end && *end == '\0';
        } else if (a == "--trace") {
            traced = true;
        } else {
            usage();
            return 2;
        }
    }
    if (!have_seed) {
        usage();
        return 2;
    }
    setQuiet(true);

    std::vector<CellSpec> cells;
    if (workload == "farm_diurnal") {
        cells.push_back(farmDiurnal(seed, 12 * sec, 200 * msec));
    } else if (workload == "fleet_scale") {
        cells.push_back(fleetScale(seed));
    } else if (workload == "fabric_dag") {
        cells.push_back(fabricDag(seed));
    } else if (workload == "tau_sweep") {
        for (double tau : sweepTaus)
            cells.push_back(
                farmDiurnal(seed, sweepDuration, fromSeconds(tau)));
    } else {
        usage();
        return 2;
    }
    std::string config = workload;
    for (const CellSpec &c : cells)
        config += "; " + c.describe();

    const bool sweep = workload == "tau_sweep";
    std::vector<CellResult> results(cells.size());
    std::vector<SpanRecorder> recorders(traced ? cells.size() : 0);
    std::vector<double> cellS(cells.size(), 0.0);
    auto t0 = Clock::now();
    if (sweep) {
        ExperimentEngine engine(sweepWorkers);
        auto records = engine.run(
            cells.size(), 1, seed,
            [&](std::size_t point, std::size_t, std::uint64_t) {
                auto c0 = Clock::now();
                results[point] = runCell(
                    cells[point], traced ? &recorders[point] : nullptr);
                cellS[point] = secondsSince(c0);
                return MetricRow{};
            });
        for (const ReplicaRecord &rec : records) {
            if (rec.failed) {
                std::fprintf(stderr, "cell %zu failed: %s\n", rec.point,
                             rec.error.c_str());
                return 1;
            }
        }
    } else {
        results[0] = runCell(cells[0], traced ? &recorders[0] : nullptr);
        cellS[0] = secondsSince(t0);
    }
    double wall = secondsSince(t0);

    // Aggregate cells: sums of host time and counts, grid-order digest.
    CellResult total;
    std::uint64_t digest = 14695981039346656037ull;
    bool drained = true;
    for (const CellResult &r : results) {
        total.setupS += r.setupS;
        total.runS += r.runS;
        total.injected += r.injected;
        total.submitted += r.submitted;
        total.completed += r.completed;
        total.events += r.events;
        drained = drained && r.drained;
        digest = fnv1a(r.dump, digest);
        total.queue.heapSchedules += r.queue.heapSchedules;
        total.queue.rebases += r.queue.rebases;
        total.queue.migratedEntries += r.queue.migratedEntries;
        if (r.probePeakDepth > total.probePeakDepth)
            total.probePeakDepth = r.probePeakDepth;
        total.solver.resolves += r.solver.resolves;
        total.solver.resolvedFlows += r.solver.resolvedFlows;
        total.solver.fastPathHits += r.solver.fastPathHits;
        total.pickCandidates += r.pickCandidates;
    }
    SpanRecorder spans;
    for (const SpanRecorder &rec : recorders)
        spans.merge(rec);
    double cell_sum = 0.0;
    for (double s : cellS)
        cell_sum += s;

    std::printf(
        "{\"workload\":\"%s\",\"seed\":%llu,\"traced\":%s,"
        "\"config\":\"%s\",\"digest\":\"%016llx\","
        "\"cells\":%zu,\"threads\":%u,"
        "\"wall_s\":%.9f,\"setup_s\":%.9f,\"run_s\":%.9f,"
        "\"cell_sum_s\":%.9f,"
        "\"jobs_injected\":%llu,\"jobs_submitted\":%llu,"
        "\"jobs_completed\":%llu,\"drained\":%s,\"events\":%llu,"
        "\"probe_peak_depth\":%zu,"
        "\"queue_heap_schedules\":%llu,\"queue_rebases\":%llu,"
        "\"queue_migrated_entries\":%llu,"
        "\"solver_resolves\":%llu,\"solver_resolved_flows\":%llu,"
        "\"solver_fast_path_hits\":%llu,\"pick_candidates\":%llu,"
        "\"peak_rss_mb\":%.3f,\"compiler\":\"%s\","
        "\"build_type\":\"%s\",\"cxx_flags\":\"%s\",\"spans\":%s}\n",
        workload.c_str(), static_cast<unsigned long long>(seed),
        traced ? "true" : "false", config.c_str(),
        static_cast<unsigned long long>(digest), cells.size(),
        sweep ? sweepThreads : 1u, wall, total.setupS, total.runS,
        cell_sum,
        static_cast<unsigned long long>(total.injected),
        static_cast<unsigned long long>(total.submitted),
        static_cast<unsigned long long>(total.completed),
        drained ? "true" : "false",
        static_cast<unsigned long long>(total.events),
        total.probePeakDepth,
        static_cast<unsigned long long>(total.queue.heapSchedules),
        static_cast<unsigned long long>(total.queue.rebases),
        static_cast<unsigned long long>(total.queue.migratedEntries),
        static_cast<unsigned long long>(total.solver.resolves),
        static_cast<unsigned long long>(total.solver.resolvedFlows),
        static_cast<unsigned long long>(total.solver.fastPathHits),
        static_cast<unsigned long long>(total.pickCandidates),
        peakRssMb(), compilerName(), PERFBENCH_BUILD_TYPE,
        PERFBENCH_CXX_FLAGS, spans.json().c_str());
    return 0;
}
