/**
 * @file
 * Zero-data-loss recovery: roll the device's logical contents back to
 * an arbitrary point in logged history.
 *
 * Works by replaying the trusted operation log up to the target
 * point to compute the live version of every LBA at that moment,
 * then restoring each divergent LBA from whichever source still
 * holds that version (live page, locally retained page, or remote
 * segment). Because RSSD never discards a version before it is
 * safely remote, every replayed state is reachable — the paper's
 * "zero data loss" guarantee.
 */

#ifndef RSSD_CORE_RECOVERY_HH
#define RSSD_CORE_RECOVERY_HH

#include <cstdint>

#include "core/history.hh"

namespace rssd::core {

/** Outcome of a recovery run. */
struct RecoveryReport
{
    std::uint64_t lpasExamined = 0;
    std::uint64_t pagesRestored = 0;     ///< rewritten with old content
    std::uint64_t restoredFromLocal = 0; ///< held or live on flash
    std::uint64_t restoredFromRemote = 0;
    std::uint64_t unmappedRestored = 0;  ///< rolled back to "no data"
    std::uint64_t unresolved = 0;        ///< version not found
    std::uint64_t bytesFetched = 0;
    /**
     * The requested target lies before the retention-GC horizon:
     * the entries/versions needed to reconstruct that state were
     * expired remotely. The run does nothing — a clear error beats
     * a silent partial restore.
     */
    bool beforePrunedHorizon = false;
    /**
     * The history's stored chain failed verification
     * (DeviceHistory::chainFault()): the log past the fault is
     * untrusted and was never merged, so no target state can be
     * reconstructed. The run does nothing, as above.
     */
    bool chainBroken = false;
    Tick startedAt = 0;
    Tick finishedAt = 0;

    bool
    ok() const
    {
        return unresolved == 0 && !beforePrunedHorizon && !chainBroken;
    }
    Tick duration() const { return finishedAt - startedAt; }
};

class RecoveryEngine
{
  public:
    /** @param history  a freshly built DeviceHistory. */
    explicit RecoveryEngine(DeviceHistory &history);

    /**
     * Restore the logical space to its state after applying entries
     * with logSeq < @p target_seq. When the history was pruned by
     * the remote retention GC, targets before the horizon
     * (prunedHorizonSeq) fail with beforePrunedHorizon set.
     */
    RecoveryReport recoverToLogSeq(std::uint64_t target_seq);

    /** Restore to the state as of simulated time @p t (inclusive).
     *  Same horizon rule as recoverToLogSeq. */
    RecoveryReport recoverToTime(Tick t);

    /**
     * Selective recovery: restore only LBAs in [first, first+count)
     * to their state at @p target_seq, leaving the rest of the
     * device untouched. This is the "restore these files" workflow —
     * much faster than whole-device rollback when the attack scope
     * is known from the analyzer's per-victim evidence chains.
     */
    RecoveryReport recoverRange(flash::Lpa first, std::uint64_t count,
                                std::uint64_t target_seq);

  private:
    /** Shared rollback core; @p in_scope filters the LBAs restored. */
    template <typename InScope>
    RecoveryReport recoverFiltered(std::uint64_t target_seq,
                                   InScope &&in_scope);

    DeviceHistory &history_;
};

} // namespace rssd::core

#endif // RSSD_CORE_RECOVERY_HH
