/**
 * @file
 * Page-mapped flash translation layer (FTL).
 *
 * This is the SSD firmware substrate the paper's defenses live in. It
 * provides:
 *   - logical-to-physical page mapping with OOB reverse maps,
 *   - greedy garbage collection with wear-aware block allocation,
 *   - TRIM handling,
 *   - *retention holds*: an invalidated physical page may be marked
 *     "held", in which case GC may relocate it but never discard it.
 *
 * Holds are the mechanism behind RSSD's conservative retention of
 * stale data (docs/ARCHITECTURE.md: zero data loss): the RSSD policy holds every
 * invalidated page until its content has been offloaded over NVMe-oE;
 * baseline policies hold nothing (LocalSSD) or hold with a local
 * drop-when-full rule (FlashGuard-like).
 *
 * A configured FtlPolicy observes invalidations, trims, relocations
 * and discards, and decides whether each invalidated page is held.
 */

#ifndef RSSD_FTL_FTL_HH
#define RSSD_FTL_FTL_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "flash/nand.hh"
#include "sim/clock.hh"

namespace rssd::ftl {

using flash::BlockId;
using flash::Bytes;
using flash::Lpa;
using flash::Ppa;
using flash::kInvalidLpa;
using flash::kInvalidPpa;

/** Why a page was invalidated. */
enum class InvalidateCause : std::uint8_t {
    HostOverwrite, ///< a host write replaced the mapping
    HostTrim,      ///< a TRIM command dropped the mapping
};

/** Verdict a policy returns for an invalidated page. */
enum class RetainVerdict : std::uint8_t {
    Discard, ///< plain garbage; GC may erase it
    Hold,    ///< retain: GC may move it but must not erase it
};

/**
 * Observer/decider interface for retention behaviour. The default
 * implementation is the undefended "LocalSSD": discard everything.
 */
class FtlPolicy
{
  public:
    virtual ~FtlPolicy() = default;

    /**
     * A host operation invalidated @p old_ppa, which held @p lpa.
     * @param oob the invalidated page's metadata (seq, write time)
     * @return whether the FTL must hold the page.
     */
    virtual RetainVerdict
    onInvalidate(Lpa lpa, Ppa old_ppa, const flash::Oob &oob,
                 InvalidateCause cause, Tick now)
    {
        (void)lpa; (void)old_ppa; (void)oob; (void)cause; (void)now;
        return RetainVerdict::Discard;
    }

    /** GC physically relocated a *held* page from @p from to @p to. */
    virtual void onHeldRelocated(Ppa from, Ppa to)
    {
        (void)from; (void)to;
    }

    /** GC physically erased a non-held invalid page. */
    virtual void onDiscarded(Ppa ppa) { (void)ppa; }
};

/** Completion status of a host operation. */
enum class Status : std::uint8_t {
    Ok,
    Unmapped, ///< read of an LBA with no mapping (returns zeros)
    NoSpace,  ///< write cannot proceed: garbage is all held
};

/** Result of a host operation: status plus completion time. */
struct IoResult
{
    Status status;
    Tick completeAt;

    bool ok() const { return status == Status::Ok; }
};

/** FTL configuration. */
struct FtlConfig
{
    flash::Geometry geometry;
    flash::LatencyModel latency;

    /** Fraction of physical space reserved as over-provisioning. */
    double opFraction = 0.07;

    /** Run GC when the free-block pool drops to this size. */
    std::uint32_t gcLowWater = 4;

    /** GC until the pool recovers to this size (or no progress). */
    std::uint32_t gcHighWater = 8;

    /**
     * Static wear leveling: when the erase-count gap between the
     * most- and least-worn blocks exceeds this, migrate the coldest
     * (least-worn, data-holding) block so its block re-enters
     * circulation. 0 disables.
     */
    std::uint32_t wearLevelGap = 64;
};

/** Operation counters for write-amplification and wear accounting. */
struct FtlStats
{
    std::uint64_t hostReads = 0;
    std::uint64_t hostWrites = 0;
    std::uint64_t hostTrims = 0;
    std::uint64_t gcValidMoves = 0; ///< live pages copied by GC
    std::uint64_t gcHeldMoves = 0;  ///< held (retained) pages copied
    std::uint64_t gcErases = 0;
    std::uint64_t wearMigrations = 0; ///< static wear-level moves
    std::uint64_t discards = 0;     ///< invalid pages physically freed
    std::uint64_t stallEvents = 0;  ///< writes that returned NoSpace

    /** Write amplification factor. */
    double
    waf() const
    {
        if (hostWrites == 0)
            return 1.0;
        return static_cast<double>(hostWrites + gcValidMoves +
                                   gcHeldMoves) /
               static_cast<double>(hostWrites);
    }
};

/**
 * The page-mapped FTL. Single write frontier for host data and a
 * separate frontier for GC copies (hot/cold separation).
 */
class PageMappedFtl
{
  public:
    /**
     * @param config  geometry, latency, OP and GC parameters
     * @param clock   shared experiment clock (not owned)
     * @param policy  retention policy (not owned; may be nullptr for
     *                pure LocalSSD behaviour)
     */
    PageMappedFtl(const FtlConfig &config, VirtualClock &clock,
                  FtlPolicy *policy = nullptr);

    /** Replace the policy (used when wiring RSSD's core after
     *  construction). */
    void setPolicy(FtlPolicy *policy) { policy_ = policy; }

    // -- Host interface ------------------------------------------------

    /**
     * Write one logical page. @p content may be empty for
     * address-only experiments.
     */
    IoResult write(Lpa lpa, const Bytes &content, Tick now);

    /** Read one logical page; content via lastReadContent(). */
    IoResult read(Lpa lpa, Tick now);

    /** TRIM one logical page. */
    IoResult trim(Lpa lpa, Tick now);

    /** Content of the most recent successful read. */
    const Bytes &lastReadContent() const { return lastRead_; }

    // -- Retention interface (used by policies / RSSD core) -------------

    /**
     * Release a hold placed by the policy; the page becomes plain
     * garbage that GC may discard.
     */
    void releaseHeld(Ppa ppa);

    /** Read a physical page directly (offload engine data path). */
    Tick readPhysical(Ppa ppa, Tick now);

    /** Whether @p ppa currently carries a hold. */
    bool isHeld(Ppa ppa) const;

    /** Whether @p ppa is the currently mapped (valid) page of its LPA. */
    bool isValid(Ppa ppa) const;

    // -- Introspection ---------------------------------------------------

    /** Exported logical capacity in pages. */
    std::uint64_t logicalPages() const { return logicalPages_; }

    /** Current physical page of @p lpa, or kInvalidPpa. */
    Ppa mappingOf(Lpa lpa) const;

    std::uint64_t heldPageCount() const { return heldPages_; }
    std::uint64_t validPageCount() const { return validPages_; }

    /**
     * Physical pages that could still accept writes if all holds were
     * released: free pages plus discardable garbage.
     */
    std::uint64_t reclaimablePages() const;

    const FtlStats &stats() const { return stats_; }
    const flash::NandFlash &nand() const { return nand_; }
    flash::NandFlash &nand() { return nand_; }
    const FtlConfig &config() const { return config_; }

  private:
    /** Block lifecycle states. */
    enum class BlockState : std::uint8_t { Free, Open, Sealed };

    /** Per-block bookkeeping. */
    struct BlockInfo
    {
        BlockState state = BlockState::Free;
        std::uint32_t validCount = 0;
        std::uint32_t heldCount = 0;
        std::uint32_t writePtr = 0; ///< next page to program
    };

    /** A write frontier (host or GC). */
    struct Frontier
    {
        BlockId block = ~0ull;
        bool open = false;
    };

    /** Allocate the next physical page on a frontier. */
    std::optional<Ppa> allocatePage(Frontier &frontier, Tick now);

    /** Take the lowest-wear block from the free pool. */
    std::optional<BlockId> takeFreeBlock();

    /** Invalidate @p ppa (currently mapping @p lpa). */
    void invalidate(Lpa lpa, Ppa ppa, InvalidateCause cause, Tick now);

    /** Run GC until the high-water mark or no further progress.
     *  @return true if at least one block was reclaimed. */
    bool collectGarbage(Tick now);

    /**
     * Static wear leveling: if the wear gap exceeds the configured
     * bound, migrate the contents of the least-worn sealed block and
     * erase it, putting the cold block back into rotation.
     */
    void maybeLevelWear(Tick now);

    /** Migrate every movable page out of @p blk, then erase it. */
    bool migrateBlock(BlockId blk, Tick now);

    /** Reclaimable garbage in a sealed block. */
    std::uint32_t garbageIn(BlockId blk) const;

    /** Move (valid or held) page @p from to the GC frontier. */
    std::optional<Ppa> relocatePage(Ppa from, Tick now);

    void checkLpa(Lpa lpa) const;

    FtlConfig config_;
    VirtualClock &clock_;
    FtlPolicy *policy_;
    flash::NandFlash nand_;

    std::uint64_t logicalPages_;
    std::vector<Ppa> map_;
    std::vector<bool> valid_;
    std::vector<bool> held_;
    std::vector<BlockInfo> blocks_;
    std::vector<BlockId> freeBlocks_;

    Frontier hostFrontier_;
    Frontier gcFrontier_;

    std::uint64_t seq_ = 0;
    std::uint64_t heldPages_ = 0;
    std::uint64_t validPages_ = 0;

    FtlStats stats_;
    Bytes lastRead_;
    bool inGc_ = false;
    BlockId gcScanPos_ = 0; ///< rotating GC victim scan start
};

} // namespace rssd::ftl

#endif // RSSD_FTL_FTL_HH
