/**
 * @file
 * Software (host-level) defense models for Table 1.
 *
 * All of these sit *above* the block interface, which is exactly
 * their weakness in the paper's threat model: privileged ransomware
 * can terminate them, and the SSD underneath recycles stale flash
 * pages as usual.
 *
 *  - PlainSsdDefense      : no defense at all (LocalSSD row anchor).
 *  - SoftwareDetectorDefense : UNVEIL / CryptoDrop style host
 *    detector; detection only, no recovery; killed by priv-esc.
 *  - CloudBackupDefense   : sync-style versioned cloud backup with a
 *    storage budget and deletion propagation.
 *  - ShieldFsDefense      : filter-driver shadowing of first
 *    overwrites with a bounded shadow area + windowed detector.
 *  - JournalingFsDefense  : metadata/data journal with wraparound.
 */

#ifndef RSSD_BASELINE_SOFTWARE_DEFENSES_HH
#define RSSD_BASELINE_SOFTWARE_DEFENSES_HH

#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "baseline/defense.hh"
#include "detect/detector.hh"
#include "ftl/ftl.hh"
#include "nvme/local_ssd.hh"

namespace rssd::baseline {

/**
 * Host-side shim: forwards commands to an inner LocalSsd while
 * letting a subclass observe them (filter-driver position). The
 * observation hooks stop firing once the agent is disabled.
 */
class HostShimDefense : public Defense, public nvme::BlockDevice
{
  public:
    HostShimDefense(const ftl::FtlConfig &config, VirtualClock &clock);

    nvme::BlockDevice &device() override { return *this; }
    nvme::Completion submit(const nvme::Command &cmd) override;
    std::uint64_t capacityPages() const override;
    std::uint32_t pageSize() const override;

    VirtualClock &clock() { return clock_; }
    nvme::LocalSsd &inner() { return inner_; }

  protected:
    /** Called (only while the agent is alive) before forwarding. */
    virtual void onHostCommand(const nvme::Command &cmd) { (void)cmd; }

    /** Kill the host agent (used by subclasses on priv-esc). */
    void killAgent() { agentAlive_ = false; }

    VirtualClock &clock_;
    nvme::LocalSsd inner_;

  private:
    bool agentAlive_ = true;
};

/** The undefended SSD. */
class PlainSsdDefense : public HostShimDefense
{
  public:
    using HostShimDefense::HostShimDefense;
    const char *name() const override { return "LocalSSD"; }
    void attemptRecovery(const attack::VictimDataset &,
                         Tick) override
    {
        // Nothing to recover from.
    }
};

/**
 * UNVEIL / CryptoDrop-class host detector: watches the I/O stream
 * for ransomware signatures, raises an alarm, recovers nothing.
 */
class SoftwareDetectorDefense : public HostShimDefense
{
  public:
    SoftwareDetectorDefense(const ftl::FtlConfig &config,
                            VirtualClock &clock);

    const char *name() const override { return "SoftwareDetector"; }

    /**
     * A user-space monitoring agent is the easiest kill for
     * privileged malware (the paper's first software limitation).
     * The sync/shadow/journal defenses keep their data paths: those
     * sit in kernel filter drivers or on the service side, and the
     * paper faults their retention policies, not their liveness.
     */
    void onPrivilegeEscalation() override { killAgent(); }

    bool detectedAttack() const override;
    void attemptRecovery(const attack::VictimDataset &,
                         Tick) override
    {
        // Detection-only system.
    }

  protected:
    void onHostCommand(const nvme::Command &cmd) override;

  private:
    detect::EntropyOverwriteDetector entropyDetector_;
    detect::ReadOverwriteDetector patternDetector_;
    std::unordered_map<flash::Lpa, float> liveEntropy_;
    std::uint64_t eventSeq_ = 0;
};

/**
 * Versioned cloud backup with sync semantics: page writes are
 * mirrored (every syncInterval host ops) into a remote version
 * store with a byte budget; deletions (TRIM) propagate. Privileged
 * malware kills the agent but cannot reach already-stored versions.
 */
class CloudBackupDefense : public HostShimDefense
{
  public:
    struct Params
    {
        std::uint64_t budgetBytes = 8ull * units::MiB;
        std::uint32_t syncInterval = 64; ///< host ops per sync pass
    };

    CloudBackupDefense(const ftl::FtlConfig &config,
                       VirtualClock &clock)
        : CloudBackupDefense(config, clock, Params())
    {
    }
    CloudBackupDefense(const ftl::FtlConfig &config,
                       VirtualClock &clock, const Params &params);

    const char *name() const override { return "CloudBackup"; }
    void attemptRecovery(const attack::VictimDataset &victim,
                         Tick attack_start) override;

  protected:
    void onHostCommand(const nvme::Command &cmd) override;

  private:
    struct Version
    {
        Tick syncedAt;
        std::vector<std::uint8_t> content;
    };

    void syncDirty();
    void evictToBudget();

    Params params_;
    std::map<flash::Lpa, std::vector<Version>> store_;
    std::deque<std::pair<flash::Lpa, std::size_t>> evictionOrder_;
    std::unordered_map<flash::Lpa, std::vector<std::uint8_t>> dirty_;
    std::uint64_t usedBytes_ = 0;
    std::uint32_t opsSinceSync_ = 0;
};

/**
 * ShieldFS-class filter driver: shadow-copies the previous content
 * of overwritten pages into a bounded shadow area and restores them
 * when its detector fires. The shadow area recycles oldest-first.
 */
class ShieldFsDefense : public HostShimDefense
{
  public:
    struct Params
    {
        std::uint64_t shadowBudgetBytes = 4ull * units::MiB;
        detect::EntropyOverwriteDetector::Config detector;
    };

    ShieldFsDefense(const ftl::FtlConfig &config, VirtualClock &clock)
        : ShieldFsDefense(config, clock, Params())
    {
    }
    ShieldFsDefense(const ftl::FtlConfig &config, VirtualClock &clock,
                    const Params &params);

    const char *name() const override { return "ShieldFS"; }
    bool detectedAttack() const override;
    void attemptRecovery(const attack::VictimDataset &victim,
                         Tick attack_start) override;

  protected:
    void onHostCommand(const nvme::Command &cmd) override;

  private:
    struct Shadow
    {
        Tick takenAt;
        std::vector<std::uint8_t> content;
    };

    Params params_;
    detect::EntropyOverwriteDetector detector_;
    std::unordered_map<flash::Lpa, float> liveEntropy_;
    std::map<flash::Lpa, Shadow> shadows_; ///< first-overwrite copy
    std::deque<flash::Lpa> shadowOrder_;
    std::uint64_t shadowBytes_ = 0;
    std::uint64_t eventSeq_ = 0;
};

/**
 * Journaling filesystem: a bounded ring journal. In the default
 * (realistic) mode the journal covers *metadata only* — like ext3/4
 * with data=ordered — so no before-image of file contents exists and
 * recovery restores nothing (Table 1's "unrecoverable"). With
 * dataJournaling enabled, a small data journal exists but wraps long
 * before any real attack ends.
 */
class JournalingFsDefense : public HostShimDefense
{
  public:
    struct Params
    {
        std::uint32_t journalPages = 64;
        bool dataJournaling = false;
    };

    JournalingFsDefense(const ftl::FtlConfig &config,
                        VirtualClock &clock)
        : JournalingFsDefense(config, clock, Params())
    {
    }
    JournalingFsDefense(const ftl::FtlConfig &config,
                        VirtualClock &clock, const Params &params);

    const char *name() const override { return "JFS"; }
    void attemptRecovery(const attack::VictimDataset &victim,
                         Tick attack_start) override;

  protected:
    void onHostCommand(const nvme::Command &cmd) override;

  private:
    struct JournalRecord
    {
        flash::Lpa lpa;
        Tick at;
        std::vector<std::uint8_t> before;
    };

    Params params_;
    std::deque<JournalRecord> journal_;
};

} // namespace rssd::baseline

#endif // RSSD_BASELINE_SOFTWARE_DEFENSES_HH
