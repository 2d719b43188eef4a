/**
 * @file
 * BackupCluster: the fleet-scale remote end of the NVMe-oE path — M
 * BackupStore shards behind a consistent-hash shard map, fed through
 * per-shard ingest queues with batching and bounded backpressure.
 *
 * Placement: each device stream hashes onto the ring once, at
 * attach time, and is pinned to its R ring successors (the replica
 * set) — segment chains are per stream and must stay verifiable on
 * every copy. Plain addShard() only affects devices attached
 * afterwards; the *membership* operations (joinShard / leaveShard)
 * rebalance attached streams by stream-granular migration, and a
 * migrated prefix is just a re-anchored chain (the source's signed
 * PruneRecord substitutes for anything the source itself pruned).
 *
 * Replication (ASPIS-style systematic duplication): every sealed
 * segment is offered to all live members of its stream's replica
 * set, and the device's ack fires at the write quorum
 * ceil((R+1)/2) — the quorum-th fastest replica ack. Below quorum
 * nothing is offered at all: the capsule stalls at the initiator
 * and is re-offered (never dropped, never half-written into a
 * minority), and a replica that already stored a re-offered tail
 * acks it idempotently, so partial writes converge on retry.
 *
 * Ingest model (virtual time, deterministic):
 *  - Each shard is a serial worker (BusyResource). A segment joins
 *    the shard's current ingest batch; a batch closes when the
 *    worker goes idle or the batch reaches batchSegments, and every
 *    batch pays batchOverhead once — so under backlog the effective
 *    batch grows and the per-segment cost amortizes, exactly the
 *    group-commit behavior of a real ingest tier.
 *  - Backpressure is bounded: at most maxPending segments may be
 *    queued per shard; an arrival beyond that is not admitted — the
 *    initiator holds the capsule and re-offers it every
 *    backpressureRetryDelay until a queue slot is free (credit-based
 *    flow control), so service starts only on a poll that finds a
 *    slot. Nothing is ever dropped, but a full queue genuinely
 *    delays the segment (the re-offer can land after the worker
 *    drained, leaving an idle gap), and the stall is visible to the
 *    device as ack latency — which is what turns shard hotspots into
 *    device-side offload backpressure.
 */

#ifndef RSSD_REMOTE_BACKUP_CLUSTER_HH
#define RSSD_REMOTE_BACKUP_CLUSTER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "remote/backup_store.hh"
#include "remote/shard_map.hh"
#include "sim/clock.hh"
#include "sim/stats.hh"

namespace rssd::remote {

/** A device's identity within the cluster (also its StreamId). */
using DeviceId = std::uint64_t;

struct BackupClusterConfig
{
    /** Initial shard count (shard ids 0..shards-1). */
    std::uint32_t shards = 4;

    /** Ring points per shard (placement smoothness). */
    std::uint32_t vnodesPerShard = 64;

    /** Per-shard store configuration (capacity is per shard). */
    BackupStoreConfig shard;

    /** Shard-worker verify+persist time per segment. */
    Tick perSegmentProcessing = 50 * units::US;

    /** Per-batch dispatch/group-commit overhead. */
    Tick batchOverhead = 200 * units::US;

    /** Segments per ingest batch before a new batch must open. */
    std::uint32_t batchSegments = 8;

    /** Bounded backpressure: max queued segments per shard. */
    std::uint32_t maxPending = 64;

    /** Re-offer interval while the shard queue is full. */
    Tick backpressureRetryDelay = 200 * units::US;

    /** Replica-set size R per device stream (1 = unreplicated).
     *  Write quorum is ceil((R+1)/2) = R/2 + 1. */
    std::uint32_t replication = 1;
};

/** Membership state of one shard. */
enum class ShardStatus : std::uint8_t {
    Live,     ///< on the ring, serving ingest and reads
    Departed, ///< left gracefully; streams migrated off first
    Crashed,  ///< failed; its replica copies are lost
};

const char *shardStatusName(ShardStatus s);

/** Cluster-wide replication and membership counters. */
struct ReplicationStats
{
    std::uint64_t quorumWrites = 0;  ///< acked at >= write quorum
    /** Quorum acks with at least one set member dead or refusing —
     *  the writes a later repair (rebalance) must reconcile. */
    std::uint64_t partialWrites = 0;
    /** Below-quorum arrivals: the capsule stalled at the initiator
     *  without being offered anywhere (never dropped). */
    std::uint64_t quorumStalls = 0;
    /** Offered but fewer than quorum replicas accepted. */
    std::uint64_t quorumFailures = 0;
    std::uint64_t streamsMigrated = 0;  ///< replica copies created
    std::uint64_t segmentsMigrated = 0;
    std::uint64_t bytesMigrated = 0;
    std::uint64_t migrationRejects = 0; ///< target refused a segment
};

/** The counters reported both as "cluster.<key>" metrics and in the
 *  FleetReport "totals" block, in emission order. quorumFailures is
 *  a metric only; migrationRejects is reported nowhere. */
inline constexpr U64Field<ReplicationStats>
    kReplicationStatsFields[] = {
        {"quorumWrites", &ReplicationStats::quorumWrites},
        {"quorumStalls", &ReplicationStats::quorumStalls},
        {"partialWrites", &ReplicationStats::partialWrites},
        {"streamsMigrated", &ReplicationStats::streamsMigrated},
        {"segmentsMigrated", &ReplicationStats::segmentsMigrated},
        {"bytesMigrated", &ReplicationStats::bytesMigrated},
};

/** Per-shard ingest statistics (the FleetReport's cluster view). */
struct ShardIngestStats
{
    std::uint64_t segmentsAccepted = 0;
    std::uint64_t segmentsRejected = 0;
    /** Wire bytes of refused segments — rejected work is accounted
     *  apart from the ingest pipeline, never inside it. */
    std::uint64_t rejectedBytes = 0;
    std::uint64_t batches = 0;
    std::uint64_t backpressureStalls = 0;
    std::uint32_t maxBatchFill = 0;
    LatencyHistogram backlog; ///< ack_ready - arrival, accepted only
    LatencyHistogram rejectBacklog; ///< same, refused segments
    /** Queue-wait stage: service start - arrival, accepted only
     *  (admission stalls and worker backlog, before any verify or
     *  batch work). */
    LatencyHistogram queueWait;

    double
    meanBatchSegments() const
    {
        if (batches == 0)
            return 0.0;
        // Accepted only: refused segments never join a batch.
        return static_cast<double>(segmentsAccepted) /
               static_cast<double>(batches);
    }
};

/**
 * Anti-entropy hook: whoever registers as the cluster's repair
 * observer is told the moment a stream's replica set degrades — a
 * member crashed, or a scrub quarantined one of its copies. The
 * RepairEngine uses this to keep its repair queue exact instead of
 * rediscovering degradation by polling.
 */
class RepairObserver
{
  public:
    virtual ~RepairObserver() = default;
    virtual void streamDegraded(DeviceId device) = 0;
};

/** Per-stream replication health (degraded-set observability). */
struct StreamHealth
{
    std::uint32_t replicas = 0;    ///< configured R
    std::uint32_t live = 0;        ///< live members holding a copy
    std::uint32_t quarantined = 0; ///< live copies under quarantine
};

class BackupCluster
{
  public:
    explicit BackupCluster(const BackupClusterConfig &config);

    BackupCluster(const BackupCluster &) = delete;
    BackupCluster &operator=(const BackupCluster &) = delete;

    /**
     * Register @p device's stream (keyed by its codec) on its R
     * consistent-hash successor shards. @return the primary (first
     * replica) the stream is pinned to.
     */
    ShardId attachDevice(DeviceId device,
                         const log::SegmentCodec &codec);

    /** Primary shard of a device's replica set (panics if
     *  unattached). */
    ShardId shardOfDevice(DeviceId device) const;

    /** Pinned replica set of @p device, ring order (may include
     *  crashed members until the next rebalance repairs them). */
    const std::vector<ShardId> &replicaSetOf(DeviceId device) const;

    /** Live members of @p device's replica set, set order. */
    std::vector<ShardId> liveReplicasOf(DeviceId device) const;

    /** All attached devices, ascending id (deterministic). */
    std::vector<DeviceId> attachedDevices() const;

    /** Where a fresh (unpinned) key would land on the current ring. */
    ShardId placementOf(DeviceId device) const
    {
        return map_.shardOf(device);
    }

    /** Write quorum: R/2 + 1 acks before the device's ack fires. */
    std::uint32_t writeQuorum() const
    {
        return config_.replication / 2 + 1;
    }

    /**
     * Ingest one sealed segment from @p device into its replica
     * set.
     * @param arrive_at     wire delivery time at the cluster
     * @param ack_ready_at  out: when the write quorum was reached
     *                      (the quorum-th fastest replica ack), or
     *                      the retry horizon on a stall/failure
     * @return false if fewer than quorum replicas accepted — the
     *         initiator holds the capsule and re-offers it.
     */
    bool ingest(DeviceId device, const log::SealedSegment &segment,
                Tick arrive_at, Tick &ack_ready_at);

    /** Grow the cluster; affects only devices attached afterwards. */
    ShardId addShard();

    // -- Live membership --------------------------------------------------

    /**
     * Grow the cluster *and* rebalance attached streams onto the new
     * ring at time @p now: any stream whose replica set now includes
     * the joiner gets a migrated copy (chain re-anchored via the
     * source's PruneRecord when the source pruned), and replicas the
     * ring walk no longer names release their copy.
     */
    ShardId joinShard(Tick now);

    /**
     * Graceful departure: @p shard is taken off the ring, every
     * stream it replicates is migrated to the ring's replacement
     * members (the leaver itself serves as a migration source), and
     * the shard is marked Departed.
     */
    void leaveShard(ShardId shard, Tick now);

    /**
     * Fail-stop crash: @p shard drops off the ring with *no*
     * migration — its replica copies are lost. Replica sets keep
     * the dead member until a rebalance()/joinShard() repairs them;
     * until then quorum is counted against the surviving members.
     */
    void crashShard(ShardId shard);

    /** Re-pin every attached stream to its R successors on the
     *  current ring, migrating copies as needed (membership repair). */
    void rebalance(Tick now);

    ShardStatus shardStatus(ShardId shard) const;
    bool shardAlive(ShardId shard) const
    {
        return shardStatus(shard) == ShardStatus::Live;
    }
    std::uint32_t liveShardCount() const;

    /**
     * First live replica of @p device whose stored chain verifies
     * end to end — the read-side vote winner recovery and forensics
     * should source from. Quarantined copies are passed over (the
     * scrub already voted them suspect); falls back to the first
     * live non-quarantined replica when none verifies, then to any
     * live holder, and kNoShard when the whole set is dead.
     */
    ShardId chainVerifyingReplicaOf(DeviceId device) const;

    const ReplicationStats &replicationStats() const
    {
        return repl_;
    }

    /** Quorum-wait stage: quorum ack - arrival, successful ingests
     *  cluster-wide. */
    const LatencyHistogram &quorumWait() const { return quorumWait_; }

    // -- Observability ----------------------------------------------------

    /**
     * Attach a trace sink (nullptr detaches): queue-wait/ingest/
     * reject spans and batch-open instants per shard, quorum spans
     * and capsule flow ends cluster-wide, GC-prune instants from the
     * shard stores. Read-only — never perturbs ingest state.
     */
    void attachTrace(obs::TraceSink *sink);

    /** Register cluster- and per-shard instruments under @p prefix
     *  (per-shard names are prefix + "shard.<id>."). Covers shards
     *  existing now; later joiners are not retro-registered. */
    void registerMetrics(obs::MetricsRegistry &registry,
                         const std::string &prefix) const;

    // -- Anti-entropy repair (RepairEngine hooks) -------------------------

    /** Register the repair observer (one at most; nullptr clears). */
    void setRepairObserver(RepairObserver *observer);

    /** Replication health of @p device's stream right now. */
    StreamHealth streamHealth(DeviceId device) const;

    /**
     * Devices whose replica sets are degraded: fewer live copies
     * than the ring can currently support (min(R, live shards)) or
     * any copy under quarantine. Ascending id (deterministic). This
     * is the repair debt PR 6 left visible only implicitly.
     */
    std::vector<DeviceId> degradedStreams() const;

    /** Quarantined copies across all live shards. */
    std::uint64_t quarantinedCopies() const;

    /** True if @p shard's copy of @p device is quarantined. */
    bool copyQuarantined(ShardId shard, DeviceId device) const;

    /**
     * Scrub verdict: mark @p shard's copy of @p device suspect.
     * Readers fail over to another replica and the repair observer
     * is notified so the copy gets rebuilt from a healthy source.
     */
    void quarantineCopy(ShardId shard, DeviceId device);

    /** Ring-successor set repair should converge @p device onto
     *  (crashed members are already off the ring). */
    std::vector<ShardId> repairTargetsOf(DeviceId device) const;

    /** Register a fresh (empty) repair copy of @p device on
     *  @p target. The copy is invisible to foreground quorum writes
     *  until commitReplicaSet() publishes it. */
    void beginRepairCopy(DeviceId device, ShardId target);

    /** Drop @p shard's copy of @p device (quarantine rebuild, or a
     *  restart after a prune overtook the copy's tail). */
    void dropCopy(ShardId shard, DeviceId device);

    /** Seed a fresh repair copy's chain state from the source's
     *  signed prune record (resumeFrom() semantics). */
    void adoptPruneRecordOn(ShardId target, DeviceId device,
                            const log::PruneRecord &record);

    /**
     * Repair-path ingest: offer one verbatim sealed segment to
     * @p target's ingest queue at @p arrive_at. Unlike migration's
     * direct store copy, this runs the full admission/batching/
     * backpressure model — repair traffic and foreground quorum
     * writes contend on the same shard worker, deterministically.
     */
    bool repairIngest(ShardId target, DeviceId device,
                      const log::SealedSegment &segment, Tick arrive_at,
                      Tick &ack_ready_at);

    /** Publish @p device's repaired replica set (ring order) and
     *  release copies on live members the set no longer names. */
    void commitReplicaSet(DeviceId device, std::vector<ShardId> set);

    // -- Fault injection (tests) ------------------------------------------

    /** Extra per-segment service latency on @p shard (scripted
     *  slow-replica fault). */
    void setShardDelay(ShardId shard, Tick extra);

    /** Mutable store access for scripted fault injection (segment
     *  corruption, split-brain divergence). Not a data-path API. */
    BackupStore &mutableShardStore(ShardId shard);

    // -- Retention lifecycle ----------------------------------------------

    /**
     * Suspicion-aware eviction hold on @p device's stream (forwarded
     * to the shard it is pinned to). The fleet layer flags a stream
     * the moment one of the device's detectors alarms, so capacity
     * pressure cannot flood a victim's evidence out of the window.
     */
    void setEvictionHold(DeviceId device, bool held);
    bool evictionHold(DeviceId device) const;

    /** Run retention GC on every shard at time @p now (ingest also
     *  triggers it per arrival; this is the operator sweep). */
    void runRetentionGc(Tick now);

    std::uint32_t shardCount() const
    {
        return static_cast<std::uint32_t>(shards_.size());
    }

    const BackupStore &shardStore(ShardId shard) const;
    const ShardIngestStats &shardStats(ShardId shard) const;

    /**
     * Ingest segments admitted on @p shard whose service has not
     * completed by the shard's latest arrival (the admission-window
     * backlog; pruned lazily at arrivals, so this is an upper bound
     * between them). 0 for non-live shards.
     */
    std::uint64_t pendingDepth(ShardId shard) const;

    /** Deepest pendingDepth() across live shards — the health
     *  layer's shard-backlog signal. */
    std::uint64_t pendingDepthMax() const;

    /** segmentsRejected summed over every shard (dead included). */
    std::uint64_t totalSegmentsRejected() const;

    /** Devices pinned to @p shard (attachment order). */
    const std::vector<DeviceId> &shardDevices(ShardId shard) const;

    /** verifyFullChain() across every shard. */
    bool verifyAll() const;

    std::uint64_t totalSegments() const;
    std::uint64_t totalUsedBytes() const;

    const BackupClusterConfig &config() const { return config_; }

  private:
    struct Shard
    {
        std::unique_ptr<BackupStore> store;
        BusyResource worker;
        std::deque<Tick> inflight; ///< completion times, FIFO
        Tick lastArrive = 0;       ///< per-shard monotonic arrivals
        std::uint32_t batchFill = 0;
        /** When the open batch's accepted work finishes. Rejected
         *  segments occupy the worker but never a batch, so batch
         *  continuity is tracked apart from worker busyness. */
        Tick batchEnd = 0;
        std::vector<DeviceId> devices;
        ShardIngestStats stats;
        ShardStatus status = ShardStatus::Live;
        Tick extraDelay = 0; ///< injected slow-replica latency
    };

    Shard &shardAt(ShardId shard);
    const Shard &shardAt(ShardId shard) const;
    void makeShard();

    /** One replica's ingest queue model (admission, batching,
     *  reject-only service) — the pre-replication ingest() body. */
    bool shardIngest(ShardId sid, Shard &sh, DeviceId device,
                     const log::SealedSegment &segment, Tick arrive_at,
                     Tick &ack_ready_at);

    /** Copy @p device's stream onto @p target from the best live
     *  source in @p replicas (prune record first, then sealed
     *  segments verbatim — never resealed). */
    void migrateStream(DeviceId device,
                       const std::vector<ShardId> &replicas,
                       ShardId target, Tick now);

    BackupClusterConfig config_;
    ShardMap map_;
    std::vector<Shard> shards_;
    /** Pinned replica sets (device -> R shards), ring order. */
    std::map<DeviceId, std::vector<ShardId>> placement_;
    /** Attach-time codec registry: migration re-registers a stream
     *  on new replicas, including after total source loss. */
    std::map<DeviceId, log::SegmentCodec> codecs_;
    ReplicationStats repl_;
    LatencyHistogram quorumWait_;
    RepairObserver *repairObserver_ = nullptr;
    obs::TraceSink *trace_ = nullptr;
};

/**
 * Per-device CapsuleTarget adapter: carries the device identity the
 * wire protocol itself does not (the sealed-segment format predates
 * the fleet and must stay byte-stable), so a device-owned
 * NvmeOeTransport can point at a shared cluster unchanged.
 */
class ClusterPortal : public net::CapsuleTarget
{
  public:
    ClusterPortal(BackupCluster &cluster, DeviceId device)
        : cluster_(cluster), device_(device)
    {
    }

    bool
    ingestSegment(const log::SealedSegment &segment, Tick arrive_at,
                  Tick &ack_ready_at) override
    {
        return cluster_.ingest(device_, segment, arrive_at,
                               ack_ready_at);
    }

    DeviceId device() const { return device_; }

  private:
    BackupCluster &cluster_;
    DeviceId device_;
};

} // namespace rssd::remote

#endif // RSSD_REMOTE_BACKUP_CLUSTER_HH
