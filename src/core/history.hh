/**
 * @file
 * DeviceHistory: the merged view of an RSSD's full operation history
 * — every sealed segment fetched back from the remote store plus the
 * local (not-yet-offloaded) log tail and retained pages.
 *
 * Both the recovery engine and the post-attack analyzer operate on
 * this view; building it models the fetch traffic over the NVMe-oE
 * link, which is where the paper's recovery/analysis timings come
 * from.
 */

#ifndef RSSD_CORE_HISTORY_HH
#define RSSD_CORE_HISTORY_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/rssd_device.hh"
#include "log/chain_verify.hh"
#include "log/oplog.hh"
#include "log/segment.hh"
#include "remote/backup_cluster.hh"

namespace rssd::core {

/** Where a data version's content can be found. */
enum class VersionSource : std::uint8_t {
    LiveOnDevice,   ///< currently mapped page
    HeldOnDevice,   ///< retained page still on local flash
    RemoteSegment,  ///< page record in a fetched segment
};

/** One recoverable data version. */
struct VersionRecord
{
    flash::Lpa lpa = 0;
    std::uint64_t dataSeq = 0;
    VersionSource source = VersionSource::RemoteSegment;
    flash::Ppa ppa = flash::kInvalidPpa; ///< for on-device sources
    const log::PageRecord *remote = nullptr; ///< for remote source
};

/** Cost accounting for building the history. */
struct HistoryCost
{
    std::uint64_t segmentsFetched = 0;
    std::uint64_t bytesFetched = 0;
    Tick fetchCompleteAt = 0;
};

class DeviceHistory
{
  public:
    /**
     * Build the merged history at the current simulated time.
     * Fetches every remote segment over the link, then verifies and
     * opens the stored chain in one pass (BackupStore::replayStream
     * under the device's own key). Only the verified prefix is
     * merged: a segment that fails verification ends the history
     * there — the local tail is left out too — and
     * verifyEvidenceChain() reports false; nothing aborts.
     * Single-device mode: the device owns its in-process
     * BackupStore.
     */
    explicit DeviceHistory(RssdDevice &device);

    /**
     * Fleet mode: the device's stream lives in a shared (cluster
     * shard) store. Fetches the segments of @p stream from @p store
     * over the device's link; the rest of the merge is identical.
     * This is what lets RecoveryEngine restore a fleet device from
     * its shard after a campaign.
     */
    DeviceHistory(RssdDevice &device, const remote::BackupStore &store,
                  remote::StreamId stream);

    /**
     * Replicated fleet mode: the read source is chosen among the
     * device's live replicas — the first chain-verifying copy wins
     * (read-side voting), so after a shard crash the history builds
     * entirely from a surviving replica. panic()s when the whole
     * replica set is dead.
     */
    DeviceHistory(RssdDevice &device,
                  const remote::BackupCluster &cluster,
                  remote::DeviceId id);

    /** Replica the history was fetched from (kNoShard outside the
     *  cluster-sourced mode). */
    remote::ShardId sourceShard() const { return sourceShard_; }

    /** All log entries, oldest first, remote then local tail. */
    const std::vector<log::LogEntry> &entries() const
    {
        return entries_;
    }

    /**
     * Verify the complete evidence chain: the remote segment chain
     * and its per-entry hash chain (checked once, while the history
     * was built — no segment is decoded again here), the local tail
     * chain, and the splice point between them.
     */
    bool verifyEvidenceChain() const;

    /** First fault in the stored chain (None: it verified whole). */
    log::ChainFault chainFault() const { return fault_; }

    /** Version lookup by dataSeq. */
    const VersionRecord *findVersion(std::uint64_t data_seq) const;

    /** Content bytes of a version (empty in address-only runs). */
    const std::vector<std::uint8_t> &
    contentOf(const VersionRecord &version) const;

    /** Ordered entry indices touching @p lpa (evidence per victim). */
    const std::vector<std::uint32_t> &entriesFor(flash::Lpa lpa) const;

    /** Entropy written by version @p data_seq (kNoEntropy unknown). */
    float entropyOf(std::uint64_t data_seq) const;

    /**
     * Retention-GC horizon: the logSeq of the first log entry that
     * survived pruning on the remote side (0 when the stream was
     * never pruned — full history available). Entries and page
     * versions before the horizon are gone; recovery to a point
     * before it must fail loudly, never silently under-restore.
     */
    std::uint64_t prunedHorizonSeq() const { return horizonSeq_; }
    bool pruned() const { return pruned_; }

    const HistoryCost &cost() const { return cost_; }
    RssdDevice &device() { return device_; }
    const RssdDevice &device() const { return device_; }

  private:
    void build(const remote::BackupStore &store,
               remote::StreamId stream);
    void indexEntry(std::uint32_t idx);

    RssdDevice &device_;
    /** Verified remote segments; their entries moved to entries_. */
    std::vector<log::Segment> segments_;
    std::vector<log::LogEntry> entries_;
    std::unordered_map<std::uint64_t, VersionRecord> versions_;
    std::unordered_map<std::uint64_t, float> entropyBySeq_;
    std::unordered_map<flash::Lpa, std::vector<std::uint32_t>>
        byLpa_;
    std::vector<std::uint32_t> emptyIndex_;
    std::vector<std::uint8_t> emptyContent_;
    std::uint64_t horizonSeq_ = 0; ///< first surviving logSeq
    bool pruned_ = false;
    log::ChainFault fault_ = log::ChainFault::None;
    /** Digest the local tail must extend: the verified remote tail,
     *  the prune anchor, or genesis. */
    crypto::Digest spliceTail_{};
    remote::ShardId sourceShard_ = remote::kNoShard;
    HistoryCost cost_;
};

} // namespace rssd::core

#endif // RSSD_CORE_HISTORY_HH
