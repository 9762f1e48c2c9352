/**
 * @file
 * The assembled data center (paper Figure 1): workload in, servers +
 * network + global scheduler in the middle, runtime statistics out.
 *
 * DataCenter owns the Simulator, the server fleet (with their power
 * controllers), the optional network fabric and the global
 * scheduler, and provides workload pumps that inject jobs from an
 * arrival process / trace through a JobGenerator.
 */

#ifndef HOLDCSIM_DC_DATACENTER_HH
#define HOLDCSIM_DC_DATACENTER_HH

#include <iosfwd>
#include <memory>
#include <vector>

#include "dc_config.hh"
#include "fault/fault_manager.hh"
#include "metrics.hh"
#include "network/network.hh"
#include "orch/orchestrator.hh"
#include "sched/global_scheduler.hh"
#include "server/power_controller.hh"
#include "server/server.hh"
#include "sim/auditor.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/timer_wheel.hh"
#include "telemetry/profiler.hh"
#include "telemetry/sampler.hh"
#include "telemetry/trace_manager.hh"
#include "workload/arrival.hh"
#include "workload/job_generator.hh"

namespace holdcsim {

/** A complete simulated data center instance. */
class DataCenter
{
  public:
    explicit DataCenter(const DataCenterConfig &config);
    ~DataCenter();
    DataCenter(const DataCenter &) = delete;
    DataCenter &operator=(const DataCenter &) = delete;

    /** @name Component access */
    ///@{
    Simulator &sim() { return _sim; }
    GlobalScheduler &scheduler() { return *_sched; }
    std::size_t numServers() const { return _servers.size(); }
    Server &server(std::size_t i) { return *_servers.at(i); }
    const std::vector<Server *> &serverPtrs() const
    {
        return _serverPtrs;
    }
    /** Null when the config has no fabric. */
    Network *network() { return _net.get(); }
    /** Null unless config.fault.enabled. */
    FaultManager *faults() { return _faults.get(); }
    /** Null unless config.orch.enabled. */
    Orchestrator *orchestrator() { return _orch.get(); }
    /** Null unless telemetry tracing is configured. */
    TraceManager *tracer() { return _tracer.get(); }
    /** Null unless telemetry sampling is configured. */
    Sampler *sampler() { return _sampler.get(); }
    /** Null unless telemetry profiling is configured. */
    KernelProfiler *profiler() { return _profiler.get(); }
    /** Null unless config.audit.enabled. */
    InvariantAuditor *auditor() { return _auditor.get(); }
    /** Null unless config.timerMode == TimerMode::wheel. */
    TimerWheel *timerWheel() { return _wheel.get(); }
    const DataCenterConfig &config() const { return _config; }
    ///@}

    /** Derive a named random stream from the experiment seed. */
    Rng makeRng(const std::string &stream) const
    {
        return Rng(_config.seed, stream);
    }

    /** @name Workload pumps
     * The JobGenerator must outlive the simulation run. Several
     * pumps may be active at once (multi-workload experiments).
     */
    ///@{
    /**
     * Inject jobs at the arrival instants of @p process (which the
     * pump takes ownership of), at most @p max_jobs jobs, with no
     * arrivals after @p until.
     */
    void pump(std::unique_ptr<ArrivalProcess> process,
              JobGenerator &gen,
              std::size_t max_jobs = static_cast<std::size_t>(-1),
              Tick until = maxTick);

    /** Inject one job per trace timestamp. */
    void pumpTrace(std::vector<Tick> arrivals, JobGenerator &gen);
    ///@}

    /** @name Running */
    ///@{
    /** Run until all events drain (arrivals exhausted, jobs done). */
    Tick run() { return _sim.run(); }
    Tick runUntil(Tick limit) { return _sim.runUntil(limit); }
    ///@}

    /** @name Fleet metrics */
    ///@{
    /** Aggregate + per-server energy (accrued to the current tick). */
    FleetEnergy energy();
    /** Fleet residency fractions over the five observable states. */
    std::vector<double> residency();
    /** Total switch energy (0 without a fabric). */
    Joules switchEnergy();
    /** Instantaneous total server power. */
    Watts serverPower() const;
    /** Instantaneous total switch power (0 without a fabric). */
    Watts switchPower() const;
    /** Servers not in S3/S5 (awake or waking). */
    std::size_t awakeServers() const;
    /** Close all books (end of measurement). */
    void finishStats();
    /** Zero all statistics (end of warmup). */
    void resetStats();
    /**
     * Dump every runtime statistic the paper's Figure 1 lists
     * (power/energy, network delays, job latency, state
     * transitions) as gem5-style "component.stat value" lines.
     * Calls finishStats() first.
     */
    void dumpStats(std::ostream &os);
    ///@}

  private:
    struct Pump;

    DataCenterConfig _config;
    Simulator _sim;
    /**
     * Shared governor timer wheel (timer_mode=wheel only). Declared
     * directly after the engine: every pool/card/switch latches the
     * pointer at construction and cancels its handles before this
     * dtor runs.
     */
    std::unique_ptr<TimerWheel> _wheel;
    /**
     * Telemetry sits between the engine and the plant: constructed
     * before (destroyed after) every component that may emit trace
     * records in its state machinery.
     */
    std::unique_ptr<TraceManager> _tracer;
    std::unique_ptr<KernelProfiler> _profiler;
    std::unique_ptr<Sampler> _sampler;
    std::unique_ptr<Network> _net;
    std::vector<std::unique_ptr<Server>> _servers;
    std::vector<Server *> _serverPtrs;
    /** Jitter stream handed to the scheduler; must outlive it. */
    std::unique_ptr<Rng> _retryJitter;
    std::unique_ptr<GlobalScheduler> _sched;
    std::unique_ptr<FaultManager> _faults;
    /** Declared after the scheduler and fault manager: its dtor
     *  uninstalls the hooks it placed into both. */
    std::unique_ptr<Orchestrator> _orch;
    std::unique_ptr<InvariantAuditor> _auditor;
    std::vector<std::unique_ptr<Pump>> _pumps;
};

} // namespace holdcsim

#endif // HOLDCSIM_DC_DATACENTER_HH
