/**
 * @file
 * Cross-device correlation: turn per-stream evidence into a fleet
 * picture — who is compromised, who was patient zero, in what order
 * the infection spread, and what kind of campaign this was.
 *
 * Everything here is derived from the evidence alone (the verified
 * entry streams); the campaign ground truth is only ever used by the
 * report layer to *score* the conclusions, never to reach them.
 */

#ifndef RSSD_FORENSICS_CORRELATE_HH
#define RSSD_FORENSICS_CORRELATE_HH

#include <cstdint>
#include <vector>

#include "core/analyzer.hh"
#include "forensics/evidence.hh"

namespace rssd::forensics {

/** What the evidence says about one device. */
struct DeviceFinding
{
    DeviceId device = 0;
    remote::ShardId shard = 0;
    bool chainIntact = true;
    log::ChainFault fault = log::ChainFault::None;
    std::uint64_t segments = 0;
    std::uint64_t entries = 0;

    /** Offline detection over the replayed stream (shared with the
     *  single-device analyzer — core::scanEntries). */
    core::AttackFinding finding;

    /** High-entropy-over-high-entropy overwrites: junk churning junk
     *  is the flood signature (encryption is high-over-*low*). */
    std::uint64_t highOverHighWrites = 0;
    bool floodSuspect = false;

    // -- Retention view ----------------------------------------------------
    /** Segments/entries the store's retention GC expired from this
     *  stream (the pruned horizon the replay starts at). */
    std::uint64_t segmentsPruned = 0;
    std::uint64_t entriesPruned = 0;
    /** Times the scanner re-anchored from the signed prune record. */
    std::uint64_t reanchors = 0;

    // -- Replica view ------------------------------------------------------
    /** Replica-set size / live members / tail-agreement votes at
     *  the last scan (see StreamEvidence). */
    std::uint32_t replicas = 0;
    std::uint32_t replicasAlive = 0;
    std::uint32_t tailVotes = 0;
    /** Times the scan abandoned a dead or faulted source copy. */
    std::uint64_t failovers = 0;
};

/** Campaign shape inferred from the evidence. */
enum class CampaignClass : std::uint8_t {
    Benign,
    Outbreak,
    Staggered,
    ShardFlood,
};

/** Names match fleet::scenarioName() so classification can be scored
 *  against ground truth by string equality. */
const char *campaignClassName(CampaignClass c);

struct CorrelationConfig
{
    /**
     * Offline detection knobs. The fleet default lowers the
     * auditor's alarm count to 12 (from the single-device 64): per
     * paper-scale fleets a campaign encrypts a few dozen pages per
     * device, and the cluster-side auditor still sees the whole
     * history, so a small threshold stays false-positive-free on
     * benign trace traffic while catching every infected device.
     */
    core::OfflineScanConfig scan;

    /** A median spread-edge lag at or below this is an outbreak
     *  (simultaneous detonation); above it, lateral spread. */
    Tick outbreakSpanMax = 10 * units::MS;

    /** Flood signature: at least this many high-over-high
     *  overwrites marks a device as a junk flooder. */
    std::uint64_t floodWriteThreshold = 64;

    CorrelationConfig() { scan.auditor.alarmCount = 12; }
};

/** A directed lateral-spread edge (from turned, then to turned). */
struct SpreadEdge
{
    DeviceId from = 0;
    DeviceId to = 0;
    Tick lag = 0; ///< attack-start gap between the two devices
};

/** The fleet-wide conclusion. */
struct Correlation
{
    std::vector<DeviceFinding> findings; ///< device-id order

    bool anyDetected = false;
    DeviceId patientZero = 0; ///< valid iff anyDetected
    /** Detected devices by first implicated op time (ties by id). */
    std::vector<DeviceId> infectionOrder;
    /** Chain of infection: order[i] -> order[i+1]. */
    std::vector<SpreadEdge> spread;
    CampaignClass campaignClass = CampaignClass::Benign;
};

/**
 * Correlate all streams the scanner has verified so far. Pure
 * function of the scanner's evidence caches and @p config.
 */
Correlation correlate(const EvidenceScanner &scanner,
                      const CorrelationConfig &config);

} // namespace rssd::forensics

#endif // RSSD_FORENSICS_CORRELATE_HH
