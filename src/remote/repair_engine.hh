/**
 * @file
 * RepairEngine: anti-entropy repair and integrity scrubbing for the
 * replicated remote tier — the cluster heals itself.
 *
 * PR 6 left "repair debt": a crashed shard degrades every replica
 * set it belonged to, and the debt was paid only at the next
 * joinShard()/rebalance(). Until then each victim stream ran one
 * failure away from losing its evidence — against the paper's core
 * promise that post-attack analysis always has an intact trusted
 * history. The repair engine converges the cluster back to full
 * replication health without operator action:
 *
 *  - A repair queue keyed by stream, fed by the cluster's
 *    RepairObserver hook the moment crashShard() (or a scrub
 *    quarantine) degrades a set. Suspicion-held (detector-alarmed)
 *    streams repair first — they are the evidence under attack.
 *
 *  - Background re-replication under a modeled per-shard bandwidth
 *    budget (token bucket, bytes moved — the AutoLALA lens: repair
 *    cost is data movement, so the budget is bytes, not operations).
 *    Copies are verbatim sealed segments from a chain-verifying
 *    source replica, re-anchored via the source's signed PruneRecord
 *    exactly like migration — but routed through the target shard's
 *    ingest queue, so repair traffic and foreground quorum writes
 *    contend deterministically on the same worker.
 *
 *  - Periodic integrity scrubbing: a low-rate scan that HMAC-
 *    verifies stored copies segment by segment and tail-votes each
 *    copy against its replica peers. A silently corrupted copy
 *    (bit-rot never touches the chain metadata, so nothing else
 *    catches it) is quarantined — readers fail over, and the copy is
 *    enqueued for rebuild from a healthy replica.
 *
 * Repair copies are invisible to foreground quorum writes until they
 * have caught up to the source's tail: only then does the engine
 * commit the repaired replica set. A concurrent joinShard() simply
 * wins — migration drops any partial repair copy on its target, and
 * the engine finds the stream healthy and dequeues it.
 */

#ifndef RSSD_REMOTE_REPAIR_ENGINE_HH
#define RSSD_REMOTE_REPAIR_ENGINE_HH

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "remote/backup_cluster.hh"

namespace rssd::remote {

struct RepairEngineConfig
{
    /** Master switch; a disabled engine ignores notifications. */
    bool enabled = false;

    /** Per-target-shard repair bandwidth budget (token bucket). */
    std::uint64_t bandwidthBytesPerSec = 200 * units::MiB;

    /** Token-bucket burst cap in bytes; 0 means the default of
     *  max(bandwidthBytesPerSec, 8 MiB). A small burst makes a
     *  throttled repair proceed at the steady rate instead of
     *  absorbing the whole copy in the first wakeup — how the
     *  health campaigns keep repair debt observable. */
    std::uint64_t burstBytes = 0;

    /** Engine wakeup cadence on the fleet DES spine. */
    Tick tickInterval = 1 * units::MS;

    /** Integrity scrub cadence; 0 disables scrubbing. */
    Tick scrubInterval = 0;

    /** Segments HMAC-verified per scrub step (the "low-rate"). */
    std::uint32_t scrubSegmentsPerStep = 4;
};

struct RepairStats
{
    std::uint64_t enqueues = 0;        ///< degradation notifications
    std::uint64_t streamsRepaired = 0; ///< streams converged healthy
    std::uint64_t segmentsCopied = 0;  ///< verbatim repair copies
    std::uint64_t bytesCopied = 0;     ///< wire bytes moved
    std::uint64_t reanchors = 0;       ///< prune records adopted
    std::uint64_t copyRestarts = 0;    ///< prune overtook a copy
    std::uint64_t repairRejects = 0;   ///< target refused a segment
    std::uint64_t irreparable = 0;     ///< no healthy source at all

    // -- Scrub ----------------------------------------------------------
    std::uint64_t scrubbedSegments = 0;
    std::uint64_t scrubPasses = 0;
    std::uint64_t scrubCorruptions = 0;    ///< HMAC-failed copies
    std::uint64_t tailVoteQuarantines = 0; ///< minority-tail copies
    std::uint64_t quarantines = 0;         ///< total copies quarantined

    /** Tick at which the repair queue last drained to empty. */
    Tick lastRepairDoneAt = 0;
};

/** The counters reported as "repair.<key>" metrics and in the
 *  FleetReport "repair" block, in emission order. */
inline constexpr U64Field<RepairStats> kRepairStatsFields[] = {
    {"enqueues", &RepairStats::enqueues},
    {"streamsRepaired", &RepairStats::streamsRepaired},
    {"segmentsCopied", &RepairStats::segmentsCopied},
    {"bytesCopied", &RepairStats::bytesCopied},
    {"reanchors", &RepairStats::reanchors},
    {"copyRestarts", &RepairStats::copyRestarts},
    {"repairRejects", &RepairStats::repairRejects},
    {"irreparable", &RepairStats::irreparable},
    {"scrubbedSegments", &RepairStats::scrubbedSegments},
    {"scrubPasses", &RepairStats::scrubPasses},
    {"scrubCorruptions", &RepairStats::scrubCorruptions},
    {"tailVoteQuarantines", &RepairStats::tailVoteQuarantines},
    {"quarantines", &RepairStats::quarantines},
};

class RepairEngine : public RepairObserver
{
  public:
    /** Registers itself as @p cluster's repair observer. */
    RepairEngine(BackupCluster &cluster,
                 const RepairEngineConfig &config);
    ~RepairEngine() override;

    RepairEngine(const RepairEngine &) = delete;
    RepairEngine &operator=(const RepairEngine &) = delete;

    // -- RepairObserver ---------------------------------------------------

    void streamDegraded(DeviceId device) override;

    // -- DES spine --------------------------------------------------------

    /**
     * One engine wakeup at time @p now: run a scrub chunk if the
     * scrub interval elapsed, then work the repair queue as far as
     * the bandwidth budgets allow. Deterministic: queue order is
     * held-first then ascending device id.
     */
    void tick(Tick now);

    /**
     * Converge completely: starting at @p now, keep ticking (in
     * virtual time, fleet quiet) until the repair queue is empty and
     * — with scrubbing enabled — one full scrub pass found nothing
     * new. @return the tick at which the cluster converged.
     */
    Tick drainAll(Tick now);

    /** Nothing queued (scrub settling is judged by drainAll). */
    bool idle() const { return queue_.empty(); }

    /** True if @p device is awaiting repair. */
    bool queued(DeviceId device) const
    {
        return queue_.count(device) != 0;
    }

    std::size_t queueDepth() const { return queue_.size(); }

    /**
     * Age of the oldest unpaid repair debt: sim time since the
     * oldest still-queued stream was first seen by a tick(), 0 when
     * the queue is empty. Streams degraded since the last wakeup
     * count as age 0 (stamping happens at tick time — the observer
     * hook carries no tick). This is the health layer's
     * "repair_debt" signal: debt older than the bandwidth budget
     * should have paid it off means repair is losing.
     */
    Tick oldestDebtAgeNs() const;

    const RepairStats &stats() const { return stats_; }
    const RepairEngineConfig &config() const { return config_; }

    // -- Observability ----------------------------------------------------

    /** Repair-copy stage latency: ingest arrival to shard ack, one
     *  sample per verbatim segment copied. */
    const LatencyHistogram &copyLatency() const
    {
        return copyLatency_;
    }

    /** Repair/scrub lifecycle events land on the repair track; a
     *  null sink detaches. Tracing is read-only — attached or not,
     *  the repair schedule is identical. */
    void attachTrace(obs::TraceSink *sink) { trace_ = sink; }

    /** Register repair counters and the copy-latency histogram under
     *  @p prefix (e.g. "repair."). */
    void registerMetrics(obs::MetricsRegistry &registry,
                         const std::string &prefix) const;

  private:
    /** Per-target-shard token bucket (bytes). */
    struct Bucket
    {
        std::uint64_t bytes = 0;
        Tick lastAt = 0;
        bool init = false;
    };

    /** Scrub position: index into the pass plan + segment offset. */
    struct ScrubCursor
    {
        std::size_t entry = 0;
        std::uint64_t pos = 0;
    };

    bool streamHeld(DeviceId device) const;
    bool takeBudget(ShardId target, Tick now, std::uint64_t wire);

    /** Work the queue at @p now; dequeues streams that converged. */
    void repairStep(Tick now);

    /** Converge one stream toward its ring target set. @return true
     *  when every target holds a healthy copy at the source's tail
     *  (the set was committed) or the stream is irreparable. */
    bool repairStream(DeviceId device, Tick now);

    /** Copy segments from @p source onto @p target until caught up,
     *  budget allowing. @return true when tails match. */
    bool copyStep(DeviceId device, ShardId source, ShardId target,
                  Tick now);

    void scrubChunk(Tick now);
    void scrubFinishStream(ShardId shard, DeviceId device, Tick now);

    bool scrubOn() const { return config_.scrubInterval != 0; }

    BackupCluster &cluster_;
    RepairEngineConfig config_;
    RepairStats stats_;
    LatencyHistogram copyLatency_;
    obs::TraceSink *trace_ = nullptr;

    /** Degraded streams awaiting repair (dedup by design). */
    std::set<DeviceId> queue_;

    /** First tick() that saw each queued stream (debt-age stamps;
     *  erased on dequeue). */
    std::map<DeviceId, Tick> queuedAt_;
    Tick lastNowAt_ = 0; ///< most recent tick() time

    std::map<ShardId, Bucket> buckets_;

    /** One scrub pass = a snapshot of (shard, stream) pairs walked
     *  in order; entries are revalidated when reached, so membership
     *  churn and prunes mid-pass skip instead of faulting. */
    std::vector<std::pair<ShardId, DeviceId>> scrubPlan_;
    ScrubCursor scrubCursor_;
    bool scrubPlanValid_ = false;
    std::uint64_t passCorruptions_ = 0;
    Tick nextScrubAt_ = 0;

    bool draining_ = false;
    bool scrubSettled_ = false;
};

} // namespace rssd::remote

#endif // RSSD_REMOTE_REPAIR_ENGINE_HH
