/**
 * @file
 * RssdDevice — the ransomware-aware SSD (the paper's primary
 * contribution, Figure 1).
 *
 * One object owns the whole codesign:
 *   host commands -> page-mapped FTL (with retention holds)
 *                 -> hardware-assisted operation log (hash chain)
 *                 -> retention index (stale pages, time order)
 *                 -> offload engine -> NVMe-oE link -> remote store.
 *
 * Defense properties implemented here:
 *  - *Zero data loss*: every invalidated or trimmed page is held
 *    until its sealed segment is acknowledged remotely; GC can move
 *    but never erase it.
 *  - *Enhanced TRIM*: trim drops the mapping (reads return zeros, so
 *    the host-visible semantics are preserved) but the data enters
 *    the retention stream instead of the garbage pool — the trimming
 *    attack erases nothing.
 *  - *GC-attack immunity*: capacity pressure translates into offload
 *    backpressure (writes wait for acknowledgments), never into
 *    retained-data loss. The device only reports DeviceFull when the
 *    *remote* budget is truly exhausted.
 *  - *Timing-attack resilience*: nothing to detect in real time is
 *    needed; the full history is preserved for offline analysis.
 *
 * Ownership and threading:
 *
 *  - An RssdDevice exclusively owns everything behind the host
 *    interface: the FTL, operation log, retention index, segment
 *    codec, Ethernet link, NVMe-oE transport, offload engine and the
 *    remote BackupStore. It is non-copyable and non-movable; the
 *    component accessors below return references whose lifetime is
 *    bounded by the device's.
 *  - The two externally-owned collaborators are *borrowed*: the
 *    VirtualClock passed at construction (the caller keeps it alive
 *    for the device's whole lifetime) and any Detector passed to
 *    attachDetector() (never freed by the device; detach by
 *    destroying the device first).
 *  - The device is NOT thread-safe. The whole simulator is
 *    single-threaded by design: every call advances the shared
 *    VirtualClock, so concurrent submit() calls would race on
 *    simulated time itself. Run one device (and its clock) per
 *    thread, or externally serialize all access. Distinct devices
 *    with distinct clocks are fully independent.
 */

#ifndef RSSD_CORE_RSSD_DEVICE_HH
#define RSSD_CORE_RSSD_DEVICE_HH

#include <memory>
#include <vector>

#include "core/offload.hh"
#include "core/rssd_config.hh"
#include "detect/detector.hh"
#include "ftl/ftl.hh"
#include "log/oplog.hh"
#include "log/retention.hh"
#include "log/segment.hh"
#include "net/link.hh"
#include "net/transport.hh"
#include "nvme/command.hh"
#include "remote/backup_store.hh"

namespace rssd::core {

/** RSSD-level counters (beyond FTL and offload stats). */
struct RssdStats
{
    std::uint64_t loggedWrites = 0;
    std::uint64_t loggedTrims = 0;
    std::uint64_t backpressureStalls = 0; ///< writes that waited on acks
    std::uint64_t deviceFullErrors = 0;   ///< remote budget exhausted
};

class RssdDevice : public nvme::BlockDevice, private ftl::FtlPolicy
{
  public:
    RssdDevice(const RssdConfig &config, VirtualClock &clock);

    /**
     * Fleet-mode construction: the device still owns its Ethernet
     * link and NVMe-oE transport, but the far end of the wire is the
     * caller's @p remote_target (a shard-cluster portal) instead of a
     * private in-process BackupStore. The target is borrowed and must
     * outlive the device; backupStore() is unavailable in this mode.
     */
    RssdDevice(const RssdConfig &config, VirtualClock &clock,
               net::CapsuleTarget &remote_target);

    ~RssdDevice() override;

    RssdDevice(const RssdDevice &) = delete;
    RssdDevice &operator=(const RssdDevice &) = delete;

    // -- nvme::BlockDevice ---------------------------------------------

    nvme::Completion submit(const nvme::Command &cmd) override;
    std::uint64_t capacityPages() const override;
    std::uint32_t pageSize() const override;

    // -- RSSD services -----------------------------------------------------

    /** Force-seal and ship everything pending. */
    void drainOffload();

    /**
     * Opportunistic offload tick (fleet scheduler hook): seal and
     * ship any *full* segments without waiting for acknowledgments,
     * exactly as the device does between host commands.
     */
    void pumpOffload();

    /**
     * Attach a live detector fed from the device's event tap (used
     * by baseline-style in-device detection experiments; RSSD itself
     * analyzes remotely).
     */
    void attachDetector(detect::Detector *detector);

    // -- Component access (analysis, recovery, tests, benches) -----------

    VirtualClock &clock() { return clock_; }
    ftl::PageMappedFtl &ftl() { return ftl_; }
    const ftl::PageMappedFtl &ftl() const { return ftl_; }
    log::OperationLog &opLog() { return oplog_; }
    const log::OperationLog &opLog() const { return oplog_; }
    log::RetentionIndex &retention() { return retention_; }
    const log::RetentionIndex &retention() const { return retention_; }
    OffloadEngine &offload() { return *offload_; }
    const OffloadEngine &offload() const { return *offload_; }
    remote::BackupStore &backupStore();
    const remote::BackupStore &backupStore() const;
    net::EthernetLink &link() { return *link_; }
    const net::NvmeOeTransport &transport() const { return *transport_; }
    const log::SegmentCodec &codec() const { return codec_; }
    const RssdConfig &config() const { return config_; }
    const RssdStats &stats() const { return stats_; }

    /** Entropy of the current version of @p lpa (kNoEntropy if none). */
    float currentEntropy(flash::Lpa lpa) const;

  private:
    // -- ftl::FtlPolicy ----------------------------------------------------

    ftl::RetainVerdict onInvalidate(flash::Lpa lpa, flash::Ppa old_ppa,
                                    const flash::Oob &oob,
                                    ftl::InvalidateCause cause,
                                    Tick now) override;
    void onHeldRelocated(flash::Ppa from, flash::Ppa to) override;
    void onDiscarded(flash::Ppa ppa) override;

    // -- Internals ---------------------------------------------------------

    ftl::IoResult writeOne(flash::Lpa lpa,
                           const std::vector<std::uint8_t> &content);
    ftl::IoResult readOne(flash::Lpa lpa,
                          std::vector<std::uint8_t> &content);
    ftl::IoResult trimOne(flash::Lpa lpa);

    void tapEvent(const detect::IoEvent &event);

    /** Shared construction: null @p external_target means "create an
     *  in-process BackupStore and wire the transport to it". */
    RssdDevice(const RssdConfig &config, VirtualClock &clock,
               net::CapsuleTarget *external_target);

    RssdConfig config_;
    VirtualClock &clock_;
    log::SegmentCodec codec_;

    // Order matters: the FTL is constructed with `this` as policy.
    ftl::PageMappedFtl ftl_;
    log::OperationLog oplog_;
    log::RetentionIndex retention_;

    std::unique_ptr<net::EthernetLink> link_;
    std::unique_ptr<remote::BackupStore> store_;
    std::unique_ptr<net::NvmeOeTransport> transport_;
    std::unique_ptr<OffloadEngine> offload_;

    /** Entropy of each LPA's live version (for prevEntropy events). */
    std::vector<float> liveEntropy_;

    /** Scratch captured by onInvalidate for the current host op. */
    struct PendingInvalidate
    {
        bool present = false;
        std::uint64_t prevDataSeq = log::kNoDataSeq;
    };
    PendingInvalidate pendingInvalidate_;

    std::vector<detect::Detector *> detectors_;
    RssdStats stats_;
};

} // namespace rssd::core

#endif // RSSD_CORE_RSSD_DEVICE_HH
