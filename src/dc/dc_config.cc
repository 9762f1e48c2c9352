#include "dc_config.hh"

#include <algorithm>
#include <vector>

#include "sim/logging.hh"
#include "telemetry/trace_manager.hh"

namespace holdcsim {

void
DataCenterConfig::validate() const
{
    if (fabric == Fabric::none && nServers == 0)
        fatal("data center needs at least one server");
    if (nCores == 0)
        fatal("servers need at least one core");
    if (dispatch == Dispatch::networkAware && fabric == Fabric::none)
        fatal("network-aware dispatch requires a fabric");
    if (fault.enabled) {
        if ((fault.faultSwitches || fault.faultLinecards ||
             fault.faultLinks) &&
            fabric == Fabric::none) {
            fatal("network faults require a fabric");
        }
        if (fault.faultTrace.empty() &&
            (fault.mttfHours <= 0.0 || fault.mttrMinutes <= 0.0)) {
            fatal("stochastic faults need positive MTTF and MTTR");
        }
        if (fault.distribution != "exponential" &&
            fault.distribution != "weibull") {
            fatal("unknown fault.distribution '", fault.distribution,
                  "'");
        }
        if (!fault.faultServers && !fault.faultSwitches &&
            !fault.faultLinecards && !fault.faultLinks) {
            fatal("fault injection enabled but no component class "
                  "selected");
        }
    }
    if (telemetry.enabled) {
        if (telemetry.traceFormat != "json" &&
            telemetry.traceFormat != "csv") {
            fatal("unknown telemetry.trace_format '",
                  telemetry.traceFormat, "'");
        }
        if (telemetry.samplePeriod == 0)
            fatal("telemetry.sample_period_ms must be positive");
        // Fail on bad category lists at config time, not mid-run.
        parseTraceCategories(telemetry.traceCategories);
    }
    if (orch.enabled) {
        if (orch.placement != "bin_pack" && orch.placement != "spread" &&
            orch.placement != "affinity") {
            fatal("unknown orch.placement '", orch.placement, "'");
        }
        if (orch.reconcilePeriod == 0)
            fatal("orch.reconcile_ms must be positive");
        if (orch.overcommit < 1.0)
            fatal("orch.overcommit must be >= 1");
        if (orch.interference < 0.0)
            fatal("orch.interference must be non-negative");
        if (orch.remoteMemPenaltyPerUs < 0.0)
            fatal("orch.remote_mem_penalty_per_us must be "
                  "non-negative");
        if (orch.autoscaleLow >= orch.autoscaleHigh)
            fatal("orch.autoscale_low must be below "
                  "orch.autoscale_high");
        if (orch.migrationDirtyFrac < 0.0 ||
            orch.migrationDirtyFrac >= 1.0) {
            fatal("orch.migration_dirty_frac must be in [0, 1)");
        }
        if (orch.migrationMaxRounds == 0)
            fatal("orch.migration_max_rounds must be positive");
        if (orch.replicas == 0 || orch.minReplicas == 0 ||
            orch.minReplicas > orch.maxReplicas) {
            fatal("orch needs 1 <= min_replicas <= max_replicas and "
                  "a positive replica count");
        }
        if (orch.containerCores <= 0.0)
            fatal("orch.container_cores must be positive");
        if (orch.remoteMemFrac < 0.0 || orch.remoteMemFrac > 1.0)
            fatal("orch.remote_mem_frac must be in [0, 1]");
        if (orch.remoteMemPenaltyPerUs > 0.0 &&
            orch.remoteMemFrac > 0.0 && fabric == Fabric::none) {
            fatal("remote-memory penalties require a fabric");
        }
    }
    if (audit.enabled) {
        if (audit.period == 0)
            fatal("audit.period_ms must be positive");
        if (audit.energyTolerance < 0.0)
            fatal("audit.energy_tolerance must be non-negative");
    }
    if (wheelGranularity == 0)
        fatal("datacenter.wheel_granularity_us must be positive");
    if (mc.strategy != "boundary" && mc.strategy != "pairwise" &&
        mc.strategy != "exhaustive" && mc.strategy != "random") {
        fatal("unknown mc.strategy '", mc.strategy, "'");
    }
    if (mc.horizon == 0)
        fatal("mc.horizon_ms must be positive");
    if (mc.repair == 0)
        fatal("mc.repair_ms must be positive");
    if (mc.maxFaults == 0)
        fatal("mc.max_faults must be at least 1");
    if (campaign.maxAttempts == 0)
        fatal("campaign.max_attempts must be at least 1");
    if (campaign.watchdogSec < 0.0)
        fatal("campaign.watchdog_sec must be non-negative");
    serverProfile.validate();
    if (fabric != Fabric::none)
        switchProfile.validate();
}

DataCenterConfig
DataCenterConfig::fromConfig(const Config &cfg)
{
    DataCenterConfig out;
    out.nServers = static_cast<unsigned>(
        cfg.getInt("datacenter.servers", out.nServers));
    out.nCores = static_cast<unsigned>(
        cfg.getInt("datacenter.cores", out.nCores));
    out.seed = static_cast<std::uint64_t>(
        cfg.getInt("datacenter.seed", static_cast<std::int64_t>(out.seed)));

    std::string tm = cfg.getString("datacenter.timer_mode", "events");
    if (tm == "events")
        out.timerMode = TimerMode::events;
    else if (tm == "wheel")
        out.timerMode = TimerMode::wheel;
    else
        fatal("unknown datacenter.timer_mode '", tm, "'");
    if (cfg.has("datacenter.wheel_granularity_us")) {
        out.wheelGranularity = static_cast<Tick>(
            cfg.getDouble("datacenter.wheel_granularity_us") *
            static_cast<double>(usec));
    }

    // The DataCenter plant runs on one sequential kernel; only the
    // pod-cluster harness executes a partitioned run.
    for (const char *key :
         {"datacenter.pdes_mode", "datacenter.pdes_lookahead_us"}) {
        if (cfg.has(key)) {
            std::string where = cfg.origin(key);
            fatal(key, where.empty() ? "" : " (" + where + ")",
                  " is PodCluster-only: a DataCenter always runs "
                  "sequentially (see src/dc/pod_cluster.hh)");
        }
    }

    std::string qm = cfg.getString("server.queue_mode", "unified");
    if (qm == "unified")
        out.queueMode = LocalQueueMode::unified;
    else if (qm == "per_core")
        out.queueMode = LocalQueueMode::perCore;
    else
        fatal("unknown server.queue_mode '", qm, "'");

    std::string cp = cfg.getString("server.core_pick", "round_robin");
    if (cp == "round_robin")
        out.corePick = CorePickPolicy::roundRobin;
    else if (cp == "least_loaded")
        out.corePick = CorePickPolicy::leastLoaded;
    else
        fatal("unknown server.core_pick '", cp, "'");

    out.allowPkgC6 = cfg.getBool("server.allow_pkg_c6", out.allowPkgC6);

    std::string ctrl = cfg.getString("server.controller", "always_on");
    if (ctrl == "always_on")
        out.controller = Controller::alwaysOn;
    else if (ctrl == "delay_timer")
        out.controller = Controller::delayTimer;
    else
        fatal("unknown server.controller '", ctrl, "'");
    if (cfg.has("server.tau_ms")) {
        out.delayTimerTau = static_cast<Tick>(
            cfg.getDouble("server.tau_ms") * static_cast<double>(msec));
    }

    std::string pol = cfg.getString("scheduler.policy", "least_loaded");
    if (pol == "round_robin")
        out.dispatch = Dispatch::roundRobin;
    else if (pol == "least_loaded")
        out.dispatch = Dispatch::leastLoaded;
    else if (pol == "random")
        out.dispatch = Dispatch::random;
    else if (pol == "network_aware")
        out.dispatch = Dispatch::networkAware;
    else
        fatal("unknown scheduler.policy '", pol, "'");
    out.useGlobalQueue =
        cfg.getBool("scheduler.global_queue", out.useGlobalQueue);
    out.taskAntiAffinity =
        cfg.getBool("scheduler.anti_affinity", out.taskAntiAffinity);

    std::string fab = cfg.getString("network.fabric", "none");
    if (fab == "none")
        out.fabric = Fabric::none;
    else if (fab == "star")
        out.fabric = Fabric::star;
    else if (fab == "fat_tree")
        out.fabric = Fabric::fatTree;
    else if (fab == "flattened_butterfly")
        out.fabric = Fabric::flattenedButterfly;
    else if (fab == "bcube")
        out.fabric = Fabric::bcube;
    else if (fab == "camcube")
        out.fabric = Fabric::camCube;
    else
        fatal("unknown network.fabric '", fab, "'");
    out.fabricParam = static_cast<unsigned>(
        cfg.getInt("network.param", out.fabricParam));
    out.fabricParam2 = static_cast<unsigned>(
        cfg.getInt("network.param2", out.fabricParam2));
    if (cfg.has("network.link_rate_gbps"))
        out.linkRate = cfg.getDouble("network.link_rate_gbps") * 1e9;
    if (cfg.has("network.link_latency_us")) {
        out.linkLatency = static_cast<Tick>(
            cfg.getDouble("network.link_latency_us") *
            static_cast<double>(usec));
    }
    if (cfg.has("network.switch_sleep_ms")) {
        out.netConfig.switchSleepDelay = static_cast<Tick>(
            cfg.getDouble("network.switch_sleep_ms") *
            static_cast<double>(msec));
    }
    out.netConfig.netModel.kind = parseNetModelKind(
        cfg.getString("network.model", "exact"));
    if (cfg.has("network.fast_path_kb")) {
        double kb = cfg.getDouble("network.fast_path_kb");
        if (kb < 0.0)
            fatal("network.fast_path_kb must be non-negative");
        out.netConfig.netModel.fastPathBytes =
            static_cast<Bytes>(kb * 1024.0);
    }

    out.fault.enabled = cfg.getBool("fault.enabled", out.fault.enabled);
    out.fault.mttfHours =
        cfg.getDouble("fault.mttf_hours", out.fault.mttfHours);
    out.fault.mttrMinutes =
        cfg.getDouble("fault.mttr_minutes", out.fault.mttrMinutes);
    out.fault.distribution =
        cfg.getString("fault.distribution", out.fault.distribution);
    out.fault.weibullShape =
        cfg.getDouble("fault.weibull_shape", out.fault.weibullShape);
    out.fault.faultTrace =
        cfg.getString("fault.fault_trace", out.fault.faultTrace);
    out.fault.faultServers =
        cfg.getBool("fault.fault_servers", out.fault.faultServers);
    out.fault.faultSwitches =
        cfg.getBool("fault.fault_switches", out.fault.faultSwitches);
    out.fault.faultLinecards =
        cfg.getBool("fault.fault_linecards", out.fault.faultLinecards);
    out.fault.faultLinks =
        cfg.getBool("fault.fault_links", out.fault.faultLinks);
    out.fault.maxRetries = static_cast<unsigned>(cfg.getInt(
        "fault.max_retries",
        static_cast<std::int64_t>(out.fault.maxRetries)));
    if (cfg.has("fault.retry_backoff_base_ms")) {
        out.fault.retryBackoffBase = static_cast<Tick>(
            cfg.getDouble("fault.retry_backoff_base_ms") *
            static_cast<double>(msec));
    }
    if (cfg.has("fault.retry_backoff_max_ms")) {
        out.fault.retryBackoffMax = static_cast<Tick>(
            cfg.getDouble("fault.retry_backoff_max_ms") *
            static_cast<double>(msec));
    }
    if (cfg.has("fault.task_timeout_ms")) {
        out.fault.taskTimeout = static_cast<Tick>(
            cfg.getDouble("fault.task_timeout_ms") *
            static_cast<double>(msec));
    }

    out.orch.placement =
        cfg.getString("orch.placement", out.orch.placement);
    if (cfg.has("orch.reconcile_ms")) {
        out.orch.reconcilePeriod = static_cast<Tick>(
            cfg.getDouble("orch.reconcile_ms") *
            static_cast<double>(msec));
    }
    out.orch.overcommit =
        cfg.getDouble("orch.overcommit", out.orch.overcommit);
    out.orch.interference =
        cfg.getDouble("orch.interference", out.orch.interference);
    out.orch.remoteMemPenaltyPerUs =
        cfg.getDouble("orch.remote_mem_penalty_per_us",
                      out.orch.remoteMemPenaltyPerUs);
    if (cfg.has("orch.server_mem_mb")) {
        out.orch.serverMemBytes = static_cast<Bytes>(
            cfg.getDouble("orch.server_mem_mb") * 1024.0 * 1024.0);
    }
    out.orch.autoscale =
        cfg.getBool("orch.autoscale", out.orch.autoscale);
    out.orch.autoscaleHigh =
        cfg.getDouble("orch.autoscale_high", out.orch.autoscaleHigh);
    out.orch.autoscaleLow =
        cfg.getDouble("orch.autoscale_low", out.orch.autoscaleLow);
    out.orch.rebalance =
        cfg.getBool("orch.rebalance", out.orch.rebalance);
    out.orch.migrationDirtyFrac = cfg.getDouble(
        "orch.migration_dirty_frac", out.orch.migrationDirtyFrac);
    if (cfg.has("orch.migration_stop_copy_mb")) {
        out.orch.migrationStopCopyBytes = static_cast<Bytes>(
            cfg.getDouble("orch.migration_stop_copy_mb") * 1024.0 *
            1024.0);
    }
    out.orch.migrationMaxRounds = static_cast<unsigned>(cfg.getInt(
        "orch.migration_max_rounds",
        static_cast<std::int64_t>(out.orch.migrationMaxRounds)));
    out.orch.tagJobs = cfg.getBool("orch.tag_jobs", out.orch.tagJobs);
    out.orch.replicas = static_cast<unsigned>(cfg.getInt(
        "orch.replicas", static_cast<std::int64_t>(out.orch.replicas)));
    out.orch.minReplicas = static_cast<unsigned>(cfg.getInt(
        "orch.min_replicas",
        static_cast<std::int64_t>(out.orch.minReplicas)));
    out.orch.maxReplicas = static_cast<unsigned>(cfg.getInt(
        "orch.max_replicas",
        static_cast<std::int64_t>(out.orch.maxReplicas)));
    out.orch.containerCores = cfg.getDouble("orch.container_cores",
                                            out.orch.containerCores);
    if (cfg.has("orch.container_mem_mb")) {
        out.orch.containerMemBytes = static_cast<Bytes>(
            cfg.getDouble("orch.container_mem_mb") * 1024.0 * 1024.0);
    }
    out.orch.remoteMemFrac = cfg.getDouble("orch.remote_mem_frac",
                                           out.orch.remoteMemFrac);
    out.orch.antiAffinity =
        cfg.getBool("orch.anti_affinity", out.orch.antiAffinity);
    // Any orch.* key opts the layer in unless an explicit
    // enabled=false vetoes it; no section at all stays fully off
    // (and default behavior byte-identical).
    bool anyOrchKey = false;
    for (const std::string &key : cfg.keys()) {
        if (key.rfind("orch.", 0) == 0) {
            anyOrchKey = true;
            break;
        }
    }
    out.orch.enabled = cfg.getBool("orch.enabled", anyOrchKey);

    out.telemetry.traceOut =
        cfg.getString("telemetry.trace_out", out.telemetry.traceOut);
    out.telemetry.traceFormat = cfg.getString(
        "telemetry.trace_format", out.telemetry.traceFormat);
    out.telemetry.traceCategories = cfg.getString(
        "telemetry.trace_categories", out.telemetry.traceCategories);
    out.telemetry.sampleOut =
        cfg.getString("telemetry.sample_out", out.telemetry.sampleOut);
    if (cfg.has("telemetry.sample_period_ms")) {
        out.telemetry.samplePeriod = static_cast<Tick>(
            cfg.getDouble("telemetry.sample_period_ms") *
            static_cast<double>(msec));
    }
    out.telemetry.profile =
        cfg.getBool("telemetry.profile", out.telemetry.profile);
    // Any configured output turns telemetry on unless an explicit
    // enabled=false vetoes it; no section at all stays fully off.
    out.telemetry.enabled = cfg.getBool(
        "telemetry.enabled", !out.telemetry.traceOut.empty() ||
                                 !out.telemetry.sampleOut.empty() ||
                                 out.telemetry.profile);

    out.audit.enabled = cfg.getBool("audit.enabled", out.audit.enabled);
    if (cfg.has("audit.period_ms")) {
        out.audit.period = static_cast<Tick>(
            cfg.getDouble("audit.period_ms") *
            static_cast<double>(msec));
    }
    out.audit.fatal = cfg.getBool("audit.fatal", out.audit.fatal);
    out.audit.energyTolerance = cfg.getDouble(
        "audit.energy_tolerance", out.audit.energyTolerance);

    out.mc.strategy = cfg.getString("mc.strategy", out.mc.strategy);
    if (cfg.has("mc.horizon_ms")) {
        out.mc.horizon = static_cast<Tick>(
            cfg.getDouble("mc.horizon_ms") * static_cast<double>(msec));
    }
    out.mc.budget = static_cast<std::uint64_t>(cfg.getInt(
        "mc.budget", static_cast<std::int64_t>(out.mc.budget)));
    out.mc.eventBudget = static_cast<std::uint64_t>(cfg.getInt(
        "mc.event_budget",
        static_cast<std::int64_t>(out.mc.eventBudget)));
    if (cfg.has("mc.repair_ms")) {
        out.mc.repair = static_cast<Tick>(
            cfg.getDouble("mc.repair_ms") * static_cast<double>(msec));
    }
    out.mc.maxFaults = static_cast<unsigned>(cfg.getInt(
        "mc.max_faults", static_cast<std::int64_t>(out.mc.maxFaults)));
    out.mc.seedBug = cfg.getBool("mc.seed_bug", out.mc.seedBug);

    out.campaign.journal =
        cfg.getString("campaign.journal", out.campaign.journal);
    out.campaign.watchdogSec = cfg.getDouble(
        "campaign.watchdog_sec", out.campaign.watchdogSec);
    out.campaign.maxEvents = static_cast<std::uint64_t>(cfg.getInt(
        "campaign.max_events",
        static_cast<std::int64_t>(out.campaign.maxEvents)));
    out.campaign.maxAttempts = static_cast<unsigned>(cfg.getInt(
        "campaign.max_attempts",
        static_cast<std::int64_t>(out.campaign.maxAttempts)));
    if (cfg.has("campaign.retry_backoff_base_ms")) {
        out.campaign.retryBackoffBase = static_cast<Tick>(
            cfg.getDouble("campaign.retry_backoff_base_ms") *
            static_cast<double>(msec));
    }
    if (cfg.has("campaign.retry_backoff_max_ms")) {
        out.campaign.retryBackoffMax = static_cast<Tick>(
            cfg.getDouble("campaign.retry_backoff_max_ms") *
            static_cast<double>(msec));
    }

    out.validate();
    return out;
}

namespace {

/** Every key any HolDCSim config parser reads, by section. */
const char *const knownConfigKeys[] = {
    // clang-format off
    "datacenter.servers", "datacenter.cores", "datacenter.seed",
    "datacenter.timer_mode", "datacenter.wheel_granularity_us",
    // Rejected by fromConfig() with a PodCluster-only error.
    "datacenter.pdes_mode", "datacenter.pdes_lookahead_us",
    "server.queue_mode", "server.core_pick", "server.allow_pkg_c6",
    "server.controller", "server.tau_ms",
    "scheduler.policy", "scheduler.global_queue",
    "scheduler.anti_affinity",
    "network.fabric", "network.param", "network.param2",
    "network.link_rate_gbps", "network.link_latency_us",
    "network.switch_sleep_ms", "network.model",
    "network.fast_path_kb",
    "fault.enabled", "fault.mttf_hours", "fault.mttr_minutes",
    "fault.distribution", "fault.weibull_shape", "fault.fault_trace",
    "fault.fault_servers", "fault.fault_switches",
    "fault.fault_linecards", "fault.fault_links", "fault.max_retries",
    "fault.retry_backoff_base_ms", "fault.retry_backoff_max_ms",
    "fault.task_timeout_ms",
    "orch.enabled", "orch.placement", "orch.reconcile_ms",
    "orch.overcommit", "orch.interference",
    "orch.remote_mem_penalty_per_us", "orch.server_mem_mb",
    "orch.autoscale", "orch.autoscale_high", "orch.autoscale_low",
    "orch.rebalance", "orch.migration_dirty_frac",
    "orch.migration_stop_copy_mb", "orch.migration_max_rounds",
    "orch.tag_jobs", "orch.replicas", "orch.min_replicas",
    "orch.max_replicas", "orch.container_cores",
    "orch.container_mem_mb", "orch.remote_mem_frac",
    "orch.anti_affinity",
    "telemetry.enabled", "telemetry.trace_out",
    "telemetry.trace_format", "telemetry.trace_categories",
    "telemetry.sample_out", "telemetry.sample_period_ms",
    "telemetry.profile",
    "audit.enabled", "audit.period_ms", "audit.fatal",
    "audit.energy_tolerance",
    "mc.strategy", "mc.horizon_ms", "mc.budget", "mc.event_budget",
    "mc.repair_ms", "mc.max_faults", "mc.seed_bug",
    "campaign.journal", "campaign.watchdog_sec",
    "campaign.max_events", "campaign.max_attempts",
    "campaign.retry_backoff_base_ms", "campaign.retry_backoff_max_ms",
    "workload.arrival", "workload.rate", "workload.utilization",
    "workload.duration_s", "workload.max_jobs", "workload.service",
    "workload.service_mean_ms", "workload.service_max_ms",
    "workload.job", "workload.stages", "workload.transfer_kb",
    "workload.burst_ratio", "workload.burst_fraction",
    "workload.trace_file",
    "server_power.core_active_w", "server_power.core_c0_idle_w",
    "server_power.core_c1_w", "server_power.core_c3_w",
    "server_power.core_c6_w", "server_power.pkg_pc0_w",
    "server_power.pkg_pc2_w", "server_power.pkg_pc6_w",
    "server_power.dram_active_w", "server_power.dram_idle_w",
    "server_power.dram_self_refresh_w", "server_power.platform_s0_w",
    "server_power.platform_s3_w", "server_power.platform_s5_w",
    "server_power.s3_wake_ms", "server_power.s3_entry_ms",
    "switch_power.chassis_base_w", "switch_power.switch_sleep_w",
    "switch_power.linecard_active_w", "switch_power.linecard_sleep_w",
    "switch_power.port_active_w", "switch_power.port_lpi_w",
    "switch_power.switch_wake_ms", "switch_power.linecard_wake_ms",
    // clang-format on
};

/**
 * Levenshtein distance of @p a and @p b, capped at @p limit + 1
 * (band-pruned: anything farther reports limit + 1).
 */
std::size_t
editDistance(const std::string &a, const std::string &b,
             std::size_t limit)
{
    if (a.size() > b.size())
        return editDistance(b, a, limit);
    if (b.size() - a.size() > limit)
        return limit + 1;
    std::vector<std::size_t> prev(a.size() + 1);
    std::vector<std::size_t> cur(a.size() + 1);
    for (std::size_t i = 0; i <= a.size(); ++i)
        prev[i] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
        cur[0] = j;
        std::size_t rowMin = cur[0];
        for (std::size_t i = 1; i <= a.size(); ++i) {
            std::size_t sub = prev[i - 1] + (a[i - 1] != b[j - 1]);
            cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, sub});
            rowMin = std::min(rowMin, cur[i]);
        }
        if (rowMin > limit)
            return limit + 1;
        prev.swap(cur);
    }
    return prev[a.size()];
}

/** Closest known key within edit distance 2, or empty. */
std::string
nearestKnownKey(const std::string &key)
{
    constexpr std::size_t limit = 2;
    std::string best;
    std::size_t bestDist = limit + 1;
    for (const char *k : knownConfigKeys) {
        std::size_t d = editDistance(key, k, limit);
        if (d < bestDist) {
            bestDist = d;
            best = k;
        }
    }
    return best;
}

} // namespace

void
warnUnknownConfigKeys(const Config &cfg)
{
    for (const std::string &key : cfg.keys()) {
        // Sweep keys name other config keys; SweepSpec validates
        // them when the sweep is applied.
        if (key.rfind("sweep.", 0) == 0)
            continue;
        bool known = false;
        for (const char *k : knownConfigKeys) {
            if (key == k) {
                known = true;
                break;
            }
        }
        if (!known) {
            std::string where = cfg.origin(key);
            std::string near = nearestKnownKey(key);
            warn("unknown config key '", key, "'",
                 where.empty() ? "" : " (" + where + ")", " ignored",
                 near.empty() ? "" : "; did you mean '" + near + "'?");
        }
    }
}

} // namespace holdcsim
