/**
 * @file
 * The offload engine: seals retained pages + operation-log entries
 * into segments and ships them over NVMe-oE, in time order.
 *
 * This is the mechanism that turns "conservatively retain everything"
 * from a capacity disaster into the paper's headline result: local
 * spare space only buffers the retention stream; the remote budget
 * determines how long history survives (Figure 2).
 */

#ifndef RSSD_CORE_OFFLOAD_HH
#define RSSD_CORE_OFFLOAD_HH

#include <cstdint>
#include <optional>
#include <string>

#include "core/rssd_config.hh"
#include "ftl/ftl.hh"
#include "log/oplog.hh"
#include "log/retention.hh"
#include "log/segment.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/clock.hh"
#include "sim/stats.hh"

namespace rssd::core {

/** Offload counters. */
struct OffloadStats
{
    std::uint64_t segmentsSealed = 0;
    std::uint64_t segmentsAccepted = 0;
    std::uint64_t remoteRejects = 0; ///< submits refused by the store
    std::uint64_t parks = 0;     ///< segments parked after a refuse
    std::uint64_t resubmits = 0; ///< re-offers of a parked segment
    std::uint64_t pagesOffloaded = 0;
    std::uint64_t entriesOffloaded = 0;
    std::uint64_t bytesRaw = 0;
    std::uint64_t bytesSealed = 0;

    double
    compressionRatio() const
    {
        if (bytesSealed == 0)
            return 1.0;
        return static_cast<double>(bytesRaw) /
               static_cast<double>(bytesSealed);
    }
};

/** The counters reported as "device.N.offload.<key>" metrics and in
 *  each FleetReport device entry, in emission order. */
inline constexpr U64Field<OffloadStats> kOffloadStatsFields[] = {
    {"segmentsSealed", &OffloadStats::segmentsSealed},
    {"segmentsAccepted", &OffloadStats::segmentsAccepted},
    {"remoteRejects", &OffloadStats::remoteRejects},
    {"parks", &OffloadStats::parks},
    {"resubmits", &OffloadStats::resubmits},
    {"pagesOffloaded", &OffloadStats::pagesOffloaded},
    {"entriesOffloaded", &OffloadStats::entriesOffloaded},
    {"bytesRaw", &OffloadStats::bytesRaw},
    {"bytesSealed", &OffloadStats::bytesSealed},
};

class OffloadEngine
{
  public:
    OffloadEngine(const RssdConfig &config, ftl::PageMappedFtl &ftl,
                  log::OperationLog &oplog,
                  log::RetentionIndex &retention,
                  const log::SegmentCodec &codec,
                  log::SegmentSink &sink, VirtualClock &clock);

    /**
     * Seal-and-ship. With @p force, drains everything pending
     * (partial segments included); otherwise only full segments are
     * sealed.
     * @return true if every submitted segment was accepted.
     */
    bool pump(Tick now, bool force);

    /**
     * True while the engine is backing off from a rejected submit.
     * A rejection is never latched forever: after remoteRetryDelay
     * the engine probes again on the next pump (retention GC on the
     * remote side frees space continuously, so a transiently full
     * store must not permanently stop offload), and a forced pump
     * retries immediately.
     */
    bool remoteFull() const { return retryAt_ != 0; }

    /** Earliest time a non-forced pump will probe the remote again
     *  (0 = not backing off). */
    Tick retryAt() const { return retryAt_; }

    /** Completion time of the most recent accepted segment. */
    Tick lastAckAt() const { return lastAckAt_; }

    const OffloadStats &stats() const { return stats_; }

    /** Seal-stage latency (flash reads + compress + encrypt, per
     *  sealed segment) — always on, merged fleet-wide into the
     *  FleetReport's "latency" block. */
    const LatencyHistogram &sealLatency() const { return sealLatency_; }

    /**
     * Attach a trace sink (nullptr detaches): seal spans, capsule
     * flow starts, ship/park/resubmit events land on the devices
     * track under @p tid. Read-only — tracing never perturbs the
     * engine's state or timing.
     */
    void
    attachTrace(obs::TraceSink *sink, std::uint64_t tid)
    {
        trace_ = sink;
        traceTid_ = tid;
    }

    /** Register this engine's instruments under @p prefix. */
    void registerMetrics(obs::MetricsRegistry &registry,
                         const std::string &prefix) const;

  private:
    /** Seal and submit one segment of up to segmentPages pages. */
    bool sealOne(Tick now, bool force);

    /**
     * A sealed segment the store refused, parked for resubmission:
     * a retry probe re-ships these exact bytes instead of paying
     * the flash reads and seal compute again (the content is
     * already deterministic, so nothing changes on the wire). The
     * batch pages stay in the retention index meanwhile — history
     * and recovery must keep seeing them as locally held.
     */
    struct PendingResubmit
    {
        log::SealedSegment sealed;
        std::size_t batchPages = 0;
        std::uint64_t shippedEntries = 0;
        std::uint64_t lastEntrySeq = 0;
        std::uint64_t segId = 0;
    };

    /** Re-offer pending_ at time @p now. */
    bool resubmit(Tick now);

    const RssdConfig &config_;
    ftl::PageMappedFtl &ftl_;
    log::OperationLog &oplog_;
    log::RetentionIndex &retention_;
    log::SegmentCodec codec_;
    log::SegmentSink &sink_;
    VirtualClock &clock_;

    /** Capsule flow id: links this device's seal span to the shard
     *  ingest and quorum events downstream. */
    std::uint64_t flowId(std::uint64_t seg_id) const
    {
        return (traceTid_ << 32) | (seg_id & 0xffffffffull);
    }

    std::uint64_t nextSegmentId_ = 0;
    std::uint64_t prevSegmentId_ = log::kNoSegment;
    BusyResource sealEngine_;
    Tick lastAckAt_ = 0;
    Tick retryAt_ = 0; ///< reject backoff deadline (0 = none)
    std::optional<PendingResubmit> pending_;
    OffloadStats stats_;
    LatencyHistogram sealLatency_;
    obs::TraceSink *trace_ = nullptr;
    std::uint64_t traceTid_ = 0;
};

} // namespace rssd::core

#endif // RSSD_CORE_OFFLOAD_HH
