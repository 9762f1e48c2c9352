/**
 * @file
 * Pod-partitioned data center: the execution harness for the
 * conservative parallel kernel (src/sim/pdes).
 *
 * The monolithic DataCenter owns a single Simulator and always runs
 * sequentially (it rejects the pdes_* config keys). A PodCluster
 * executes a partitioned run: it builds K identical pods --
 * each a star fabric, a 3-tier server group (web/app/db), a
 * least-loaded scheduler and a Poisson request pump -- and groups
 * them onto N partitions, one Simulator per partition, advanced in
 * lookahead windows by a WindowScheduler. Completed requests forward
 * to a random other pod with configurable probability, so pods
 * genuinely interact across partition boundaries.
 *
 * The central design property is statistics identity: for a fixed
 * seed, dumpStats() produces byte-identical output whether the
 * cluster runs on the sequential kernel (n_partitions = 0), on one
 * partition (exactly Simulator::run()) or on any partition count.
 * Three mechanisms make that hold:
 *
 *  - All cross-pod interactions are timestamped messages delivered
 *    at Event::mailboxPriority. The sequential build schedules them
 *    directly at send time; the parallel build routes them through
 *    the partition outbox and the barrier drain inserts them in
 *    (when, sentAt, src, seq) order -- the same total order the
 *    sequential calendar produces, because the per-source-pod
 *    latency skew (+pod ticks) makes cross-pod (when, sentAt) ties
 *    impossible and same-pod ties are FIFO in both builds.
 *  - Every random stream, job-id namespace and statistic is per-pod.
 *    Job ids are (pod << 40) | seq, not the process-global counter,
 *    whose handout order is wall-clock-dependent.
 *  - Measurement closes at a fixed simulated horizon via a per-pod
 *    close event, never at "end of run" (whose wall-clock shape
 *    differs between kernels). Wall-clock numbers (worker timings)
 *    live only in pdesStats(), outside the determinism-checked dump.
 */

#ifndef HOLDCSIM_DC_POD_CLUSTER_HH
#define HOLDCSIM_DC_POD_CLUSTER_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <vector>

#include "network/network.hh"
#include "sched/global_scheduler.hh"
#include "server/server.hh"
#include "sim/auditor.hh"
#include "sim/event.hh"
#include "sim/one_shot.hh"
#include "sim/pdes/partition.hh"
#include "sim/pdes/window_scheduler.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "workload/arrival.hh"
#include "workload/job_generator.hh"
#include "workload/service.hh"

namespace holdcsim {

/**
 * One scripted pod outage: the pod refuses new work in
 * [downAt, upAt) and announces both transitions to every peer.
 */
struct PodFaultEpisode {
    unsigned pod = 0;
    Tick downAt = 0;
    Tick upAt = 0;
};

/** Workload/plant shape of a PodCluster (all pods identical). */
struct PodClusterConfig {
    /** Pod count (>= 2; forwards need somewhere to go). */
    unsigned pods = 8;
    /** Requests injected per pod before its pump stops. */
    std::size_t requestsPerPod = 200;
    /** Poisson arrival rate per pod (requests/sec). */
    double arrivalRate = 600.0;
    /** P(completed request forwards to another pod). */
    double forwardProbability = 0.3;
    /** Forward-chain length cap per originating request. */
    unsigned maxForwards = 2;
    /**
     * Base inter-pod latency: the lookahead. The actual latency of a
     * forward from pod p is interPodLatency + p ticks -- the skew
     * that makes the cross-pod merge order seed-deterministic (see
     * file comment).
     */
    Tick interPodLatency = 20 * usec;
    /** Intra-pod (star) link latency. */
    Tick intraPodLatency = 5 * usec;
    /** Fixed simulated instant at which statistics close. */
    Tick statsHorizon = 2 * sec;
    /** Root seed; every stream is pod-scoped under it. */
    std::uint64_t seed = 1;
    /**
     * Scripted pod outages. A down pod drains in-flight work but
     * refuses new injections and incoming forwards, and every
     * transition is broadcast to the other pods as a timestamped
     * health message -- through the partition mailbox in parallel
     * mode, so remote peer-health state is never touched directly
     * from another shard's timeline. Senders consult their local
     * (delivery-delayed) view of peer health before forwarding.
     */
    std::vector<PodFaultEpisode> podFaults;
};

/** Per-pod statistics snapshot, taken at the horizon close event. */
struct PodStats {
    std::uint64_t injected = 0;
    std::uint64_t forwardedOut = 0;
    std::uint64_t forwardedIn = 0;
    std::uint64_t jobsSubmitted = 0;
    std::uint64_t jobsCompleted = 0;
    std::uint64_t tasksDispatched = 0;
    std::uint64_t transfersStarted = 0;
    std::uint64_t tasksCompleted = 0;
    std::uint64_t latencyCount = 0;
    double latencyMean = 0.0;
    double latencyP50 = 0.0;
    double latencyP95 = 0.0;
    double latencyP99 = 0.0;
    Joules serverEnergy = 0.0;
    Joules switchEnergy = 0.0;
    GlobalScheduler::TaskCensus census;
    /** Injection attempts refused because the pod was down. */
    std::uint64_t refusedInjections = 0;
    /** Forwards dropped at the source (self or peer believed down). */
    std::uint64_t forwardsDropped = 0;
    /** Forwards refused on arrival (destination down at delivery). */
    std::uint64_t forwardsRefused = 0;
    /** Peer health broadcasts applied at this pod. */
    std::uint64_t healthUpdates = 0;
};

/** K interacting pods executable on 0 (sequential) or N partitions. */
class PodCluster
{
  public:
    /**
     * @param cfg          cluster shape
     * @param n_partitions 0 = sequential kernel (one Simulator, no
     *                     pdes involvement at all); 1 = one partition
     *                     (WindowScheduler fast path, still exactly
     *                     Simulator::run()); >= 2 = parallel windows.
     *                     Must be <= cfg.pods.
     */
    PodCluster(const PodClusterConfig &cfg, unsigned n_partitions);
    ~PodCluster();
    PodCluster(const PodCluster &) = delete;
    PodCluster &operator=(const PodCluster &) = delete;

    /** Run to completion. @return max final tick over partitions. */
    Tick run();

    /**
     * Register the cross-partition invariant checks (per-shard
     * event-queue audits, global task conservation, the mailbox
     * floor bound) on a manually-driven auditor and -- in parallel
     * mode -- arrange for auditNow() at every window boundary.
     * Sequential runs audit once at the end of run(). Call before
     * run().
     */
    void enableBoundaryAudits();

    /** Cooperative interrupt (forwarded to every shard). */
    void setInterruptFlag(const std::atomic<bool> *flag);

    /** Deterministic "component.stat value" dump (see file doc). */
    void dumpStats(std::ostream &os) const;

    unsigned pods() const { return _cfg.pods; }
    unsigned partitions() const { return _nPartitions; }
    const PodStats &podStats(unsigned pod) const;
    /** Scheduler of @p pod (tests: debugInjectTaskLeak). */
    GlobalScheduler &scheduler(unsigned pod);
    /** Null until enableBoundaryAudits(). */
    InvariantAuditor *auditor() { return _auditor.get(); }
    /** Window-protocol counters; zeroed until run(), and only
     *  populated by parallel runs (n_partitions >= 2). */
    const pdes::WindowScheduler::Stats &pdesStats() const
    {
        return _pdesStats;
    }
    /** Events processed, summed over shards (set by run()). */
    std::uint64_t eventsTotal() const { return _eventsTotal; }

  private:
    struct Pod;

    /** Partition index of @p pod (contiguous blocks). */
    unsigned partitionOf(unsigned pod) const;
    void injectOne(Pod &pod);
    void onJobDone(Pod &pod, JobId id);
    /** Runs at the destination, at the message delivery tick. */
    void deliverForward(unsigned dst_pod, unsigned hops_left);
    /** Flip @p pod's health locally and broadcast it to peers. */
    void applyPodFault(Pod &pod, bool down);
    /** Runs at @p dst_pod, at the broadcast delivery tick. */
    void deliverHealth(unsigned dst_pod, unsigned src_pod, bool up);
    void closeStats(Pod &pod);
    std::string checkTaskConservation() const;
    std::string checkMailboxFloor() const;

    PodClusterConfig _cfg;
    unsigned _nPartitions;

    // Engine state outlives everything scheduled into it: shards
    // first, then the adapters, then the plant, then the auditor.
    std::vector<std::unique_ptr<Simulator>> _sims;
    std::vector<std::unique_ptr<pdes::Partition>> _partitions;
    /** Sequential-mode delivery pool (single shard only). */
    std::unique_ptr<OneShotPool> _direct;
    std::vector<std::unique_ptr<Pod>> _podv;
    std::unique_ptr<InvariantAuditor> _auditor;

    /** Floor of the last executed window (mailbox-floor check). */
    Tick _auditFloor = 0;
    bool _boundaryAudits = false;
    const std::atomic<bool> *_interrupt = nullptr;

    pdes::WindowScheduler::Stats _pdesStats;
    std::uint64_t _eventsTotal = 0;
};

} // namespace holdcsim

#endif // HOLDCSIM_DC_POD_CLUSTER_HH
