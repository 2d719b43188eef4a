/**
 * @file
 * Firmware (in-controller) defense models for Table 1. Unlike the
 * software defenses, these survive privilege escalation — they sit
 * below the block interface, like RSSD. Their weakness is *local
 * capacity*: every one of them retains stale data only on the SSD
 * itself, bounded by space (and/or a time window), which is exactly
 * what the Ransomware 2.0 attacks exploit.
 *
 *  - FlashGuardLike : retains pages whose overwrite looks like
 *    encryption (recently read + high-entropy new data), bounded
 *    retention age. (FlashGuard, CCS'17.)
 *  - TimeSsdLike    : retains *all* overwritten pages within a time
 *    window, bounded local budget.
 *  - DetectRollbackLike : windowed online detector + rollback of the
 *    recently retained writes when it fires; optional write blocking
 *    after detection (SSDInsider-style when not blocking,
 *    RBlocker-style when blocking).
 *
 * None of them retain trimmed data, and none can talk to the network
 * — those are precisely RSSD's two additions.
 */

#ifndef RSSD_BASELINE_FIRMWARE_DEFENSES_HH
#define RSSD_BASELINE_FIRMWARE_DEFENSES_HH

#include <map>
#include <unordered_map>

#include "baseline/defense.hh"
#include "detect/detector.hh"
#include "ftl/ftl.hh"
#include "nvme/local_ssd.hh"

namespace rssd::baseline {

/**
 * Shared machinery: a BlockDevice over a PageMappedFtl whose policy
 * is the defense itself; bookkeeping of held versions with capacity
 * and age bounds; restore-from-held recovery.
 */
class FirmwareDefenseBase : public Defense,
                            public nvme::BlockDevice,
                            protected ftl::FtlPolicy
{
  public:
    struct RetainParams
    {
        /** Max pages retained locally (SSD spare space budget). */
        std::uint64_t maxHeldPages = 1024;
        /** Retention age bound; 0 = no bound. */
        Tick maxHoldAge = 0;
    };

    FirmwareDefenseBase(const ftl::FtlConfig &config,
                        VirtualClock &clock,
                        const RetainParams &params);

    // -- nvme::BlockDevice ------------------------------------------------

    nvme::Completion submit(const nvme::Command &cmd) override;
    std::uint64_t capacityPages() const override;
    std::uint32_t pageSize() const override;

    nvme::BlockDevice &device() override { return *this; }

    void attemptRecovery(const attack::VictimDataset &victim,
                         Tick attack_start) override;

  protected:
    /** Subclass policy: retain this invalidated page? */
    virtual bool shouldHold(flash::Lpa lpa, float new_entropy,
                            ftl::InvalidateCause cause, Tick now) = 0;

    /** Subclass hook: observe host commands (detectors, read maps). */
    virtual void observeCommand(const nvme::Command &cmd) { (void)cmd; }

    /** Subclass hook: veto a write (RBlocker-style blocking). */
    virtual bool allowWrite(flash::Lpa lpa, float entropy)
    {
        (void)lpa; (void)entropy;
        return true;
    }

    // -- ftl::FtlPolicy -----------------------------------------------------

    ftl::RetainVerdict onInvalidate(flash::Lpa lpa, flash::Ppa old_ppa,
                                    const flash::Oob &oob,
                                    ftl::InvalidateCause cause,
                                    Tick now) override;
    void onHeldRelocated(flash::Ppa from, flash::Ppa to) override;

    /** Drop the oldest held version (capacity/age pressure). */
    void dropOldestHold();

    /** Age out holds older than maxHoldAge. */
    void expireHolds(Tick now);

    VirtualClock &clock_;
    ftl::PageMappedFtl ftl_;
    RetainParams retainParams_;

    /** One retained pre-attack version. */
    struct HeldVersion
    {
        flash::Lpa lpa;
        flash::Ppa ppa;
        Tick writtenAt;
        Tick invalidatedAt;
    };

    std::map<std::uint64_t, HeldVersion> held_; ///< by dataSeq
    std::unordered_map<flash::Ppa, std::uint64_t> heldByPpa_;

    /** Entropy of the write currently being executed, per page. */
    float inFlightEntropy_ = detect::kNoEntropy;
};

/** FlashGuard (CCS'17) style: retain suspected-encrypted overwrites. */
class FlashGuardLike : public FirmwareDefenseBase
{
  public:
    struct Params
    {
        RetainParams retain{.maxHeldPages = 4096,
                            .maxHoldAge = 5 * units::MINUTE};
        float highEntropy = 7.2f;
        Tick readWindow = 30 * units::SEC; ///< read->overwrite gap
        std::size_t maxTrackedReads = 4096;
    };

    FlashGuardLike(const ftl::FtlConfig &config, VirtualClock &clock)
        : FlashGuardLike(config, clock, Params())
    {
    }
    FlashGuardLike(const ftl::FtlConfig &config, VirtualClock &clock,
                   const Params &params);

    const char *name() const override { return "FlashGuard"; }

  protected:
    bool shouldHold(flash::Lpa lpa, float new_entropy,
                    ftl::InvalidateCause cause, Tick now) override;
    void observeCommand(const nvme::Command &cmd) override;

  private:
    Params params_;
    std::unordered_map<flash::Lpa, Tick> recentReads_;
    std::deque<flash::Lpa> readOrder_;
};

/** TimeSSD style: retain every overwritten page within a window. */
class TimeSsdLike : public FirmwareDefenseBase
{
  public:
    struct Params
    {
        RetainParams retain{.maxHeldPages = 2048,
                            .maxHoldAge = 10 * units::MINUTE};
    };

    TimeSsdLike(const ftl::FtlConfig &config, VirtualClock &clock)
        : TimeSsdLike(config, clock, Params())
    {
    }
    TimeSsdLike(const ftl::FtlConfig &config, VirtualClock &clock,
                const Params &params);

    const char *name() const override { return "TimeSSD"; }

  protected:
    bool shouldHold(flash::Lpa lpa, float new_entropy,
                    ftl::InvalidateCause cause, Tick now) override;
};

/**
 * SSDInsider / RBlocker style: windowed in-controller detector with
 * rollback of recent retained writes; RBlocker additionally blocks
 * suspicious writes once alarmed.
 */
class DetectRollbackLike : public FirmwareDefenseBase
{
  public:
    struct Params
    {
        RetainParams retain{.maxHeldPages = 1024,
                            .maxHoldAge = 2 * units::MINUTE};
        detect::EntropyOverwriteDetector::Config detector;
        bool blockOnDetect = false; ///< true = RBlocker behaviour
        const char *displayName = "SSDInsider";
    };

    DetectRollbackLike(const ftl::FtlConfig &config,
                       VirtualClock &clock)
        : DetectRollbackLike(config, clock, Params())
    {
    }
    DetectRollbackLike(const ftl::FtlConfig &config,
                       VirtualClock &clock, const Params &params);

    const char *name() const override { return params_.displayName; }
    bool detectedAttack() const override;
    void attemptRecovery(const attack::VictimDataset &victim,
                         Tick attack_start) override;

  protected:
    bool shouldHold(flash::Lpa lpa, float new_entropy,
                    ftl::InvalidateCause cause, Tick now) override;
    void observeCommand(const nvme::Command &cmd) override;
    bool allowWrite(flash::Lpa lpa, float entropy) override;

  private:
    Params params_;
    detect::EntropyOverwriteDetector detector_;
    std::unordered_map<flash::Lpa, float> liveEntropy_;
    std::uint64_t eventSeq_ = 0;
};

} // namespace rssd::baseline

#endif // RSSD_BASELINE_FIRMWARE_DEFENSES_HH
