#include "core/offload.hh"

#include <algorithm>
#include <span>

namespace rssd::core {

OffloadEngine::OffloadEngine(const RssdConfig &config,
                             ftl::PageMappedFtl &ftl,
                             log::OperationLog &oplog,
                             log::RetentionIndex &retention,
                             const log::SegmentCodec &codec,
                             log::SegmentSink &sink, VirtualClock &clock)
    : config_(config),
      ftl_(ftl),
      oplog_(oplog),
      retention_(retention),
      codec_(codec),
      sink_(sink),
      clock_(clock)
{
}

bool
OffloadEngine::pump(Tick now, bool force)
{
    // Reject backoff: probe again once the retry delay has elapsed.
    // Forced pumps (drain, write-path backpressure) retry
    // immediately — they are about to wait on the result anyway.
    if (retryAt_ != 0 && now < retryAt_ && !force)
        return false;

    bool all_ok = true;
    while (retention_.size() >= config_.segmentPages ||
           (force && (!retention_.empty() || oplog_.size() > 0))) {
        if (!sealOne(now, force)) {
            all_ok = false;
            break;
        }
        if (!force && retention_.size() < config_.segmentPages)
            break;
    }
    return all_ok;
}

bool
OffloadEngine::resubmit(Tick now)
{
    stats_.resubmits++;
    const log::SubmitResult result =
        sink_.submitSegment(pending_->sealed, now);
    if (!result.accepted) {
        retryAt_ = now + config_.remoteRetryDelay;
        stats_.remoteRejects++;
        stats_.parks++;
        if (trace_ != nullptr) {
            trace_->instant("offload", "park", obs::kTrackDevices,
                            traceTid_, now,
                            {{"segment", pending_->segId},
                             {"retryAtNs", retryAt_}});
        }
        return false;
    }
    retryAt_ = 0;
    if (trace_ != nullptr) {
        trace_->complete("offload", "resubmit", obs::kTrackDevices,
                         traceTid_, now, result.ackAt,
                         {{"segment", pending_->segId}});
    }

    // The parked batch is still the oldest slice of the retention
    // index (seqs only grow; re-added holds stay in front), so
    // taking it back out releases exactly the shipped pages.
    const std::vector<log::RetainedPage> batch =
        retention_.takeOldest(pending_->batchPages);
    panicIf(batch.size() != pending_->batchPages,
            "offload: parked batch shrank under resubmit");
    for (const log::RetainedPage &p : batch)
        ftl_.releaseHeld(p.ppa);
    if (pending_->shippedEntries > 0)
        oplog_.truncateBefore(pending_->lastEntrySeq + 1);

    prevSegmentId_ = pending_->segId;
    nextSegmentId_ = pending_->segId + 1;
    lastAckAt_ = std::max(lastAckAt_, result.ackAt);
    stats_.segmentsAccepted++;
    stats_.pagesOffloaded += batch.size();
    stats_.entriesOffloaded += pending_->shippedEntries;
    pending_.reset();
    return true;
}

bool
OffloadEngine::sealOne(Tick now, bool force)
{
    (void)force;

    // A parked rejected segment goes first: those bytes are already
    // sealed and sitting in the controller buffer — re-offer them
    // without paying the flash reads and seal compute again.
    if (pending_)
        return resubmit(now);

    // Take the oldest retained pages, strictly in version order.
    std::vector<log::RetainedPage> batch =
        retention_.takeOldest(config_.segmentPages);

    log::Segment seg;
    seg.id = nextSegmentId_;
    seg.prevId = prevSegmentId_;

    // Ship every not-yet-shipped log entry along with the pages. The
    // log tail always starts at firstHeldSeq because entries are
    // truncated exactly when their segment is acknowledged. The tail
    // is borrowed, not copied: nothing appends to the log between
    // here and seal() (the engine runs between host commands), so the
    // span stays valid for the whole sealing pass.
    const std::span<const log::LogEntry> tail = oplog_.entries();
    seg.chainAnchor = oplog_.anchorDigest();
    seg.borrowEntries(tail);
    seg.chainTail = tail.empty() ? seg.chainAnchor : tail.back().chain;

    // Read each retained page's content off the flash array — this
    // is the data path that mildly contends with host I/O.
    Tick read_done = now;
    for (const log::RetainedPage &p : batch) {
        const Tick t = ftl_.readPhysical(p.ppa, now);
        read_done = std::max(read_done, t);

        log::PageRecord rec;
        rec.lpa = p.lpa;
        rec.dataSeq = p.dataSeq;
        rec.writtenAt = p.writtenAt;
        rec.invalidatedAt = p.invalidatedAt;
        rec.cause = p.cause;
        rec.content = ftl_.nand().content(p.ppa);
        seg.pages.push_back(std::move(rec));
    }

    const std::uint64_t shipped_entries = tail.size();
    const std::uint64_t last_entry_seq =
        shipped_entries > 0 ? tail.back().logSeq : 0;

    log::SealedSegment sealed = codec_.seal(seg);

    // Device-side sealing compute (hardware compress + encrypt).
    const Tick compress_time = units::transferTimeNs(
        sealed.rawSize, config_.compressMBps * 8.0 / 1000.0);
    const Tick encrypt_time = units::transferTimeNs(
        sealed.payload.size(), config_.encryptMBps * 8.0 / 1000.0);
    const Tick seal_done = sealEngine_.serve(
        read_done, compress_time + encrypt_time);

    stats_.segmentsSealed++;
    stats_.bytesRaw += sealed.rawSize;
    stats_.bytesSealed += sealed.payload.size();
    sealLatency_.add(seal_done > now ? seal_done - now : 0);

    // Seal span and the capsule's flow start go in before the
    // submit, so the downstream shard/quorum events they link to
    // appear after them in the event log.
    if (trace_ != nullptr) {
        obs::Span span(trace_, "offload", "seal", obs::kTrackDevices,
                       traceTid_, now);
        span.arg("segment", seg.id)
            .arg("pages", batch.size())
            .arg("entries", shipped_entries)
            .arg("rawBytes", sealed.rawSize)
            .arg("sealedBytes", sealed.payload.size());
        span.end(seal_done);
        trace_->flowBegin("offload", "capsule", flowId(seg.id),
                          obs::kTrackDevices, traceTid_, seal_done);
    }

    const log::SubmitResult result =
        sink_.submitSegment(sealed, seal_done);
    if (!result.accepted) {
        // Remote store is full (or transiently failing). Put the
        // holds back conceptually: the pages were never released, so
        // simply re-adding them to the index preserves correctness.
        // Back off instead of latching: the remote's retention GC
        // frees space over time, so the next pump past retryAt_
        // probes again and offload resumes on its own. The sealed
        // bytes are parked — the probe resubmits them as-is.
        for (const log::RetainedPage &p : batch)
            retention_.add(p);
        pending_ = PendingResubmit{std::move(sealed), batch.size(),
                                   shipped_entries, last_entry_seq,
                                   seg.id};
        retryAt_ = now + config_.remoteRetryDelay;
        stats_.remoteRejects++;
        stats_.parks++;
        if (trace_ != nullptr) {
            trace_->instant("offload", "park", obs::kTrackDevices,
                            traceTid_, seal_done,
                            {{"segment", seg.id},
                             {"retryAtNs", retryAt_}});
        }
        return false;
    }
    retryAt_ = 0;
    if (trace_ != nullptr) {
        trace_->complete("offload", "ship", obs::kTrackDevices,
                         traceTid_, seal_done, result.ackAt,
                         {{"segment", seg.id}});
    }

    // Acknowledged: release the FTL holds and truncate the shipped
    // log prefix. Relocations cannot have happened concurrently —
    // the engine runs between host commands.
    for (const log::RetainedPage &p : batch)
        ftl_.releaseHeld(p.ppa);
    if (shipped_entries > 0)
        oplog_.truncateBefore(last_entry_seq + 1);

    prevSegmentId_ = seg.id;
    nextSegmentId_++;
    lastAckAt_ = std::max(lastAckAt_, result.ackAt);
    stats_.segmentsAccepted++;
    stats_.pagesOffloaded += batch.size();
    stats_.entriesOffloaded += shipped_entries;
    return true;
}

void
OffloadEngine::registerMetrics(obs::MetricsRegistry &registry,
                               const std::string &prefix) const
{
    registry.counters(prefix, stats_, kOffloadStatsFields);
    registry.gauge(prefix + "compressionRatio",
                   [this] { return stats_.compressionRatio(); });
    registry.histogram(prefix + "sealLatency",
                       [this] { return sealLatency_; });
}

} // namespace rssd::core
