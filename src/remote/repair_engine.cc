#include "remote/repair_engine.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace rssd::remote {

RepairEngine::RepairEngine(BackupCluster &cluster,
                           const RepairEngineConfig &config)
    : cluster_(cluster), config_(config)
{
    panicIf(config.enabled && config.tickInterval == 0,
            "RepairEngine: zero tick interval");
    panicIf(config.enabled && config.bandwidthBytesPerSec == 0,
            "RepairEngine: zero bandwidth budget");
    panicIf(config.scrubInterval != 0 &&
                config.scrubSegmentsPerStep == 0,
            "RepairEngine: scrub enabled with zero step");
    cluster_.setRepairObserver(this);
    nextScrubAt_ = config_.scrubInterval;
}

RepairEngine::~RepairEngine()
{
    cluster_.setRepairObserver(nullptr);
}

void
RepairEngine::streamDegraded(DeviceId device)
{
    if (!config_.enabled)
        return;
    if (queue_.insert(device).second)
        stats_.enqueues++;
}

bool
RepairEngine::streamHeld(DeviceId device) const
{
    // The hold lives on the stores; read it off the first live
    // member still holding a copy (placement may name members whose
    // copy was dropped for rebuild).
    for (const ShardId s : cluster_.liveReplicasOf(device)) {
        if (cluster_.shardStore(s).hasStream(device))
            return cluster_.shardStore(s).evictionHold(device);
    }
    return false;
}

bool
RepairEngine::takeBudget(ShardId target, Tick now, std::uint64_t wire)
{
    Bucket &b = buckets_[target];
    // Burst cap: one second of budget (but never less than a few
    // segments, so a tiny budget still makes progress) unless the
    // config pins an explicit burst.
    const std::uint64_t cap = config_.burstBytes != 0
        ? config_.burstBytes
        : std::max<std::uint64_t>(config_.bandwidthBytesPerSec,
                                  8 * units::MiB);
    if (!b.init) {
        b.init = true;
        b.lastAt = now;
        b.bytes = cap;
    }
    if (now > b.lastAt) {
        const Tick dt = now - b.lastAt;
        b.lastAt = now;
        // Split the refill so dt * bandwidth cannot overflow.
        const std::uint64_t gain =
            dt / units::SEC * config_.bandwidthBytesPerSec +
            dt % units::SEC * config_.bandwidthBytesPerSec /
                units::SEC;
        b.bytes = std::min(cap, b.bytes + gain);
    }
    // A segment wider than the burst cap is charged the full bucket
    // instead — a pinned burst throttles the rate but can never
    // starve a single copy forever.
    const std::uint64_t cost = std::min(wire, cap);
    if (b.bytes < cost)
        return false;
    b.bytes -= cost;
    return true;
}

bool
RepairEngine::copyStep(DeviceId device, ShardId source, ShardId target,
                       Tick now)
{
    const BackupStore &src = cluster_.shardStore(source);
    for (;;) {
        const BackupStore::StreamTail want = src.streamTail(device);
        const BackupStore::StreamTail have =
            cluster_.shardStore(target).streamTail(device);
        if (have == want)
            return true;

        // Fresh copy of a pruned stream: the source's signed
        // PruneRecord substitutes for the expired prefix
        // (resumeFrom() semantics) — a fully pruned stream repairs
        // to a chain-tail-only copy this way.
        if (!have.haveTail) {
            if (const log::PruneRecord *rec =
                    src.pruneRecordOf(device)) {
                cluster_.adoptPruneRecordOn(target, device, *rec);
                stats_.reanchors++;
                if (trace_ != nullptr) {
                    trace_->instant("repair", "reanchor",
                                    obs::kTrackRepair, target, now,
                                    {{"device", device},
                                     {"upToId", rec->upToId}});
                }
                continue;
            }
        }

        // Next segment: the stored one extending the target's tail.
        const log::SealedSegment *next = nullptr;
        for (const std::uint32_t idx : src.streamSegments(device)) {
            const log::SealedSegment &seg = src.sealedSegment(idx);
            const bool extends =
                have.haveTail ? seg.prevId == have.lastId
                              : seg.prevId == log::kNoSegment;
            if (extends) {
                next = &seg;
                break;
            }
        }
        if (next == nullptr) {
            // The source pruned past (or diverged from) the copy's
            // tail mid-repair: the partial copy cannot be extended.
            // Restart from the source's current re-anchored suffix.
            cluster_.dropCopy(target, device);
            cluster_.beginRepairCopy(device, target);
            stats_.copyRestarts++;
            if (trace_ != nullptr) {
                trace_->instant("repair", "copy-restart",
                                obs::kTrackRepair, target, now,
                                {{"device", device}});
            }
            continue;
        }

        const std::uint64_t wire = next->wireSize();
        if (!takeBudget(target, now, wire))
            return false; // bandwidth budget spent: resume next tick

        // Through the target's ingest queue, not straight into the
        // store: repair traffic contends with foreground quorum
        // writes on the shard worker, deterministically.
        Tick ack = 0;
        if (!cluster_.repairIngest(target, device, *next, now, ack)) {
            stats_.repairRejects++;
            return false; // capacity/backpressure: retry next tick
        }
        stats_.segmentsCopied++;
        stats_.bytesCopied += wire;
        copyLatency_.add(ack > now ? ack - now : 0);
        if (trace_ != nullptr) {
            trace_->complete("repair", "copy", obs::kTrackRepair,
                             target, now, ack,
                             {{"device", device},
                              {"segment", next->id},
                              {"source", source}});
        }
    }
}

bool
RepairEngine::repairStream(DeviceId device, Tick now)
{
    const std::vector<ShardId> targets =
        cluster_.repairTargetsOf(device);
    if (targets.empty())
        return true; // no live shards at all: nothing to converge to

    // Source: best non-quarantined chain-verifying replica. If even
    // the fallback is quarantined, every surviving copy is suspect —
    // there is nothing trustworthy to copy from.
    const ShardId source = cluster_.chainVerifyingReplicaOf(device);
    if (source == kNoShard ||
        cluster_.copyQuarantined(source, device)) {
        stats_.irreparable++;
        if (trace_ != nullptr) {
            trace_->instant("repair", "irreparable",
                            obs::kTrackRepair, 0, now,
                            {{"device", device}});
        }
        return true;
    }

    bool caught_up = true;
    for (const ShardId t : targets) {
        if (t == source)
            continue;
        // A quarantined target copy is rebuilt, not patched: drop
        // it (clearing the verdict) and copy fresh.
        if (cluster_.shardStore(t).hasStream(device) &&
            cluster_.copyQuarantined(t, device)) {
            cluster_.dropCopy(t, device);
        }
        if (!cluster_.shardStore(t).hasStream(device))
            cluster_.beginRepairCopy(device, t);
        if (!copyStep(device, source, t, now))
            caught_up = false;
    }
    if (!caught_up)
        return false;

    // Every target holds a healthy copy at the source's tail: only
    // now is the repaired set published to foreground quorum writes.
    const bool held =
        cluster_.shardStore(source).evictionHold(device);
    cluster_.commitReplicaSet(device, targets);
    if (held)
        cluster_.setEvictionHold(device, true);
    return true;
}

void
RepairEngine::repairStep(Tick now)
{
    if (queue_.empty())
        return;
    // Suspicion-held (detector-alarmed) streams first — they are
    // the evidence under attack — then ascending device id.
    std::vector<DeviceId> order(queue_.begin(), queue_.end());
    std::stable_sort(order.begin(), order.end(),
                     [this](DeviceId a, DeviceId b) {
                         const bool ha = streamHeld(a);
                         const bool hb = streamHeld(b);
                         if (ha != hb)
                             return ha;
                         return a < b;
                     });
    for (const DeviceId device : order) {
        if (repairStream(device, now)) {
            queue_.erase(device);
            queuedAt_.erase(device);
            stats_.streamsRepaired++;
            if (trace_ != nullptr) {
                trace_->instant("repair", "stream-repaired",
                                obs::kTrackRepair, 0, now,
                                {{"device", device},
                                 {"queued", queue_.size()}});
            }
            if (queue_.empty())
                stats_.lastRepairDoneAt = now;
        }
    }
}

void
RepairEngine::scrubFinishStream(ShardId shard, DeviceId device,
                                Tick now)
{
    // A stream mid-repair legitimately has copies at different
    // tails; judge only settled streams.
    if (queued(device))
        return;
    const StreamHealth h = cluster_.streamHealth(device);
    if (h.quarantined > 0 || h.live < 2)
        return;

    // Tail vote: a copy whose chain tail disagrees with a strict
    // majority of its replica peers is suspect even when every
    // stored byte HMAC-verifies (it silently missed writes).
    const BackupStore::StreamTail mine =
        cluster_.shardStore(shard).streamTail(device);
    std::vector<BackupStore::StreamTail> peers;
    for (const ShardId r : cluster_.liveReplicasOf(device)) {
        if (r == shard || !cluster_.shardStore(r).hasStream(device) ||
            cluster_.copyQuarantined(r, device)) {
            continue;
        }
        peers.push_back(cluster_.shardStore(r).streamTail(device));
    }
    std::uint32_t agree = 1;
    std::uint32_t best_other = 0;
    for (std::size_t i = 0; i < peers.size(); i++) {
        if (peers[i] == mine) {
            agree++;
            continue;
        }
        std::uint32_t votes = 1;
        for (std::size_t j = i + 1; j < peers.size(); j++) {
            if (peers[j] == peers[i])
                votes++;
        }
        best_other = std::max(best_other, votes);
    }
    if (best_other > agree) {
        cluster_.quarantineCopy(shard, device);
        stats_.tailVoteQuarantines++;
        stats_.quarantines++;
        passCorruptions_++;
        if (trace_ != nullptr) {
            trace_->instant("repair", "quarantine",
                            obs::kTrackRepair, shard, now,
                            {{"device", device},
                             {"tailVote", 1u}});
        }
    }
}

void
RepairEngine::scrubChunk(Tick now)
{
    if (!scrubPlanValid_) {
        scrubPlan_.clear();
        for (ShardId s = 0; s < cluster_.shardCount(); s++) {
            if (!cluster_.shardAlive(s))
                continue;
            for (const StreamId d :
                 cluster_.shardStore(s).streamIds()) {
                scrubPlan_.emplace_back(s, d);
            }
        }
        scrubCursor_ = {};
        scrubPlanValid_ = true;
        passCorruptions_ = 0;
    }

    if (trace_ != nullptr) {
        trace_->instant("repair", "scrub-step", obs::kTrackRepair, 0,
                        now,
                        {{"planEntry", scrubCursor_.entry},
                         {"planSize", scrubPlan_.size()}});
    }

    std::uint32_t remaining = config_.scrubSegmentsPerStep;
    while (remaining > 0) {
        if (scrubCursor_.entry >= scrubPlan_.size()) {
            // Pass complete.
            scrubPlanValid_ = false;
            stats_.scrubPasses++;
            if (draining_ && passCorruptions_ == 0 && queue_.empty())
                scrubSettled_ = true;
            return;
        }
        const auto [s, d] = scrubPlan_[scrubCursor_.entry];
        // Revalidate: membership churn, releases and quarantines
        // since the pass began simply skip the entry.
        if (!cluster_.shardAlive(s) ||
            !cluster_.shardStore(s).hasStream(d) ||
            cluster_.copyQuarantined(s, d)) {
            scrubCursor_.entry++;
            scrubCursor_.pos = 0;
            continue;
        }
        const BackupStore &store = cluster_.shardStore(s);
        const std::deque<std::uint32_t> &stored =
            store.streamSegments(d);
        // A prune mid-pass pops from the front of the deque, so the
        // cursor effectively skips ahead — never faults.
        if (scrubCursor_.pos >= stored.size()) {
            scrubFinishStream(s, d, now);
            scrubCursor_.entry++;
            scrubCursor_.pos = 0;
            continue;
        }
        const log::SealedSegment &seg =
            store.sealedSegment(stored[scrubCursor_.pos]);
        stats_.scrubbedSegments++;
        remaining--;
        if (!store.streamCodec(d).verify(seg)) {
            // Silent corruption: payload bytes rotted under intact
            // chain metadata. Quarantine the copy (readers fail
            // over) and rebuild it — quarantineCopy() notifies us,
            // which enqueues the stream for repair.
            cluster_.quarantineCopy(s, d);
            stats_.scrubCorruptions++;
            stats_.quarantines++;
            passCorruptions_++;
            if (trace_ != nullptr) {
                trace_->instant("repair", "quarantine",
                                obs::kTrackRepair, s, now,
                                {{"device", d}, {"tailVote", 0u}});
            }
            scrubCursor_.entry++;
            scrubCursor_.pos = 0;
            continue;
        }
        scrubCursor_.pos++;
    }
}

void
RepairEngine::tick(Tick now)
{
    if (!config_.enabled)
        return;
    // Debt-age bookkeeping: streamDegraded() has no tick, so queued
    // streams are stamped at the first wakeup that sees them (one
    // tickInterval of slack at most).
    lastNowAt_ = now;
    for (const DeviceId d : queue_)
        queuedAt_.emplace(d, now);
    if (scrubOn() && now >= nextScrubAt_) {
        scrubChunk(now);
        nextScrubAt_ = now + config_.scrubInterval;
    }
    repairStep(now);
}

Tick
RepairEngine::drainAll(Tick now)
{
    if (!config_.enabled)
        return now;
    draining_ = true;
    scrubSettled_ = !scrubOn();
    // Require one full pass from scratch: stragglers the fleet
    // shipped after the last periodic chunk must still be covered.
    scrubPlanValid_ = false;
    Tick t = now;
    std::uint64_t guard = 0;
    while (!queue_.empty() || !scrubSettled_) {
        panicIf(++guard > 8'000'000,
                "RepairEngine: drain did not converge");
        t += config_.tickInterval;
        if (scrubOn())
            nextScrubAt_ = std::min(nextScrubAt_, t);
        tick(t);
    }
    draining_ = false;
    return t;
}

Tick
RepairEngine::oldestDebtAgeNs() const
{
    if (queue_.empty())
        return 0;
    Tick oldest = lastNowAt_;
    for (const DeviceId d : queue_) {
        const auto it = queuedAt_.find(d);
        if (it != queuedAt_.end())
            oldest = std::min(oldest, it->second);
    }
    return lastNowAt_ - oldest;
}

void
RepairEngine::registerMetrics(obs::MetricsRegistry &registry,
                              const std::string &prefix) const
{
    registry.counters(prefix, stats_, kRepairStatsFields);
    registry.level(prefix + "queueDepth",
                   [this] { return queue_.size(); });
    registry.level(prefix + "oldestDebtAgeNs",
                   [this] { return oldestDebtAgeNs(); });
    registry.histogram(prefix + "copyLatency",
                       [this] { return copyLatency_; });
}

} // namespace rssd::remote
