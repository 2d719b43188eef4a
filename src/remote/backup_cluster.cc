#include "remote/backup_cluster.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace rssd::remote {

const char *
shardStatusName(ShardStatus s)
{
    switch (s) {
      case ShardStatus::Live: return "live";
      case ShardStatus::Departed: return "departed";
      case ShardStatus::Crashed: return "crashed";
    }
    return "?";
}

BackupCluster::BackupCluster(const BackupClusterConfig &config)
    : config_(config), map_(config.vnodesPerShard)
{
    panicIf(config.shards == 0, "BackupCluster: zero shards");
    panicIf(config.batchSegments == 0,
            "BackupCluster: batchSegments == 0");
    panicIf(config.maxPending == 0, "BackupCluster: maxPending == 0");
    panicIf(config.replication == 0,
            "BackupCluster: replication == 0");
    panicIf(config.replication > config.shards,
            "BackupCluster: replication exceeds shard count");
    for (std::uint32_t s = 0; s < config.shards; s++)
        makeShard();
}

void
BackupCluster::makeShard()
{
    const ShardId id = static_cast<ShardId>(shards_.size());
    // The queue model charges all service time (per-segment +
    // batch overhead); the store must not add its own on top.
    BackupStoreConfig store_cfg = config_.shard;
    store_cfg.processingTime = 0;

    Shard sh;
    sh.store = std::make_unique<BackupStore>(store_cfg);
    sh.store->attachTrace(trace_, id);
    shards_.push_back(std::move(sh));
    map_.addShard(id);
}

ShardId
BackupCluster::addShard()
{
    const ShardId id = static_cast<ShardId>(shards_.size());
    makeShard();
    return id;
}

BackupCluster::Shard &
BackupCluster::shardAt(ShardId shard)
{
    panicIf(shard >= shards_.size(), "BackupCluster: shard id OOB");
    return shards_[shard];
}

const BackupCluster::Shard &
BackupCluster::shardAt(ShardId shard) const
{
    panicIf(shard >= shards_.size(), "BackupCluster: shard id OOB");
    return shards_[shard];
}

ShardId
BackupCluster::attachDevice(DeviceId device,
                            const log::SegmentCodec &codec)
{
    panicIf(placement_.count(device) != 0,
            "BackupCluster: device already attached");
    std::vector<ShardId> replicas =
        map_.successorsOf(device, config_.replication);
    panicIf(replicas.empty(), "BackupCluster: empty ring");
    panicIf(replicas.size() < config_.replication,
            "BackupCluster: not enough live shards for replication");

    for (const ShardId s : replicas) {
        Shard &sh = shardAt(s);
        sh.store->registerStream(device, codec);
        sh.devices.push_back(device);
    }
    const ShardId primary = replicas.front();
    placement_.emplace(device, std::move(replicas));
    codecs_.emplace(device, codec);
    return primary;
}

ShardId
BackupCluster::shardOfDevice(DeviceId device) const
{
    return replicaSetOf(device).front();
}

const std::vector<ShardId> &
BackupCluster::replicaSetOf(DeviceId device) const
{
    auto it = placement_.find(device);
    panicIf(it == placement_.end(),
            "BackupCluster: device not attached");
    return it->second;
}

std::vector<ShardId>
BackupCluster::liveReplicasOf(DeviceId device) const
{
    std::vector<ShardId> live;
    for (const ShardId s : replicaSetOf(device)) {
        if (shardAt(s).status == ShardStatus::Live)
            live.push_back(s);
    }
    return live;
}

std::vector<DeviceId>
BackupCluster::attachedDevices() const
{
    std::vector<DeviceId> out;
    out.reserve(placement_.size());
    for (const auto &[device, replicas] : placement_) {
        (void)replicas;
        out.push_back(device);
    }
    return out;
}

bool
BackupCluster::shardIngest(ShardId sid, Shard &sh, DeviceId device,
                           const log::SealedSegment &segment,
                           Tick arrive_at, Tick &ack_ready_at)
{
    // Device clocks advance independently; clamp arrivals monotonic
    // per shard so the queue model stays causal.
    const Tick arrive = std::max(arrive_at, sh.lastArrive);
    sh.lastArrive = arrive;

    while (!sh.inflight.empty() && sh.inflight.front() <= arrive)
        sh.inflight.pop_front();

    // Bounded backpressure: no queue slot means the capsule is not
    // admitted; the initiator re-offers it every retry interval and
    // service starts on the first poll that finds a slot free. The
    // poll quantization can land past the worker horizon, so a full
    // queue adds real latency instead of disappearing into the FIFO.
    Tick start = arrive;
    if (sh.inflight.size() >= config_.maxPending) {
        const Tick slot_free =
            sh.inflight[sh.inflight.size() - config_.maxPending];
        const Tick retry =
            std::max<Tick>(1, config_.backpressureRetryDelay);
        const Tick polls = (slot_free - arrive + retry - 1) / retry;
        start = arrive + polls * retry;
        sh.stats.backpressureStalls++;
    }

    const Tick service = config_.perSegmentProcessing + sh.extraDelay;

    if (trace_ != nullptr && start > arrive) {
        trace_->complete("ingest", "queue-wait", obs::kTrackCluster,
                         sid, arrive, start,
                         {{"device", device},
                          {"segment", segment.id}});
    }

    // The store decides first: verification is the head of service,
    // and a refused segment must not perturb the ingest pipeline
    // (the shard's processingTime is zeroed, so the admission
    // timestamp is the only time the store sees).
    Tick store_ack = 0;
    const bool ok =
        sh.store->ingestSegment(device, segment, start, store_ack);

    if (!ok) {
        // Reject-only service: the verify work still occupies the
        // worker, but a refused segment joins no ingest batch — it
        // neither advances batchFill (group-commit amortization is
        // an accepted-segment property) nor feeds the accepted
        // backlog histogram.
        const Tick done = sh.worker.serve(start, service);
        sh.inflight.push_back(done);
        ack_ready_at = done;
        sh.stats.segmentsRejected++;
        sh.stats.rejectedBytes += segment.wireSize();
        sh.stats.rejectBacklog.add(
            done > arrive_at ? done - arrive_at : 0);
        if (trace_ != nullptr) {
            trace_->complete("ingest", "reject", obs::kTrackCluster,
                             sid, start, done,
                             {{"device", device},
                              {"segment", segment.id}});
        }
        return false;
    }

    // Batching: a batch closes when its accepted work drains or it
    // fills up; joining an open batch skips the batch overhead.
    // (Not worker.busyUntil(): reject-only service occupies the
    // worker without opening a batch.)
    const bool new_batch = sh.batchEnd <= start ||
                           sh.batchFill >= config_.batchSegments;
    Tick cost = service;
    if (new_batch) {
        sh.batchFill = 0;
        sh.stats.batches++;
        cost += config_.batchOverhead;
        if (trace_ != nullptr) {
            trace_->instant("ingest", "batch-open", obs::kTrackCluster,
                            sid, start,
                            {{"batch", sh.stats.batches}});
        }
    }
    const Tick done = sh.worker.serve(start, cost);
    sh.batchEnd = done;
    sh.batchFill++;
    sh.stats.maxBatchFill =
        std::max(sh.stats.maxBatchFill, sh.batchFill);
    sh.inflight.push_back(done);

    ack_ready_at = done;
    sh.stats.segmentsAccepted++;
    sh.stats.backlog.add(
        done > arrive_at ? done - arrive_at : 0);
    // Queue wait is admission-to-service (backpressure polls), kept
    // separate from backlog (arrival-to-ack); accepted-only so both
    // histograms describe the same population.
    sh.stats.queueWait.add(start > arrive ? start - arrive : 0);
    if (trace_ != nullptr) {
        trace_->complete("ingest", "ingest", obs::kTrackCluster, sid,
                         start, done,
                         {{"device", device},
                          {"segment", segment.id},
                          {"batchFill", sh.batchFill}});
    }
    return true;
}

bool
BackupCluster::ingest(DeviceId device,
                      const log::SealedSegment &segment, Tick arrive_at,
                      Tick &ack_ready_at)
{
    const std::vector<ShardId> &replicas = replicaSetOf(device);
    std::vector<ShardId> live;
    for (const ShardId s : replicas) {
        if (shardAt(s).status == ShardStatus::Live)
            live.push_back(s);
    }

    const std::uint32_t quorum = writeQuorum();
    if (live.size() < quorum) {
        // Below quorum nothing is offered at all: the capsule
        // stalls at the initiator and is re-offered after the retry
        // interval — never dropped, never half-written into a
        // minority of the set.
        repl_.quorumStalls++;
        ack_ready_at = arrive_at +
                       std::max<Tick>(1, config_.backpressureRetryDelay);
        if (trace_ != nullptr) {
            trace_->instant("ingest", "quorum-stall",
                            obs::kTrackCluster,
                            replicas.front(), arrive_at,
                            {{"device", device},
                             {"segment", segment.id},
                             {"live", live.size()},
                             {"quorum", quorum}});
        }
        return false;
    }

    // Offer to every live replica; each runs its own ingest queue.
    // The ack the device sees is the quorum-th fastest replica ack —
    // slower members keep ingesting in the background (and a member
    // that refused converges later via idempotent re-offers or a
    // membership repair).
    std::vector<Tick> acks;
    acks.reserve(live.size());
    Tick worst = arrive_at;
    for (const ShardId s : live) {
        Tick ack = 0;
        if (shardIngest(s, shardAt(s), device, segment, arrive_at,
                        ack)) {
            acks.push_back(ack);
        }
        worst = std::max(worst, ack);
    }

    if (acks.size() < quorum) {
        repl_.quorumFailures++;
        ack_ready_at = worst;
        if (trace_ != nullptr) {
            trace_->instant("ingest", "quorum-fail",
                            obs::kTrackCluster,
                            replicas.front(), worst,
                            {{"device", device},
                             {"segment", segment.id},
                             {"acks", acks.size()},
                             {"quorum", quorum}});
        }
        return false;
    }

    std::sort(acks.begin(), acks.end());
    ack_ready_at = acks[quorum - 1];
    repl_.quorumWrites++;
    if (acks.size() < replicas.size())
        repl_.partialWrites++;
    quorumWait_.add(
        ack_ready_at > arrive_at ? ack_ready_at - arrive_at : 0);
    if (trace_ != nullptr) {
        trace_->complete("ingest", "quorum", obs::kTrackCluster,
                         replicas.front(), arrive_at, ack_ready_at,
                         {{"device", device},
                          {"segment", segment.id},
                          {"acks", acks.size()},
                          {"quorum", quorum}});
        trace_->flowEnd("offload", "capsule",
                        (static_cast<std::uint64_t>(device) << 32) |
                            (segment.id & 0xffffffffull),
                        obs::kTrackCluster, replicas.front(),
                        ack_ready_at);
    }
    return true;
}

// -- Live membership ------------------------------------------------------

ShardId
BackupCluster::joinShard(Tick now)
{
    const ShardId id = addShard();
    rebalance(now);
    return id;
}

void
BackupCluster::leaveShard(ShardId shard, Tick now)
{
    Shard &sh = shardAt(shard);
    panicIf(sh.status != ShardStatus::Live,
            "BackupCluster: leave of non-live shard");
    panicIf(liveShardCount() <= config_.replication,
            "BackupCluster: departure would break replication");
    // Off the ring first, then rebalance: the leaver no longer
    // appears in any successor walk, so every stream it holds
    // migrates out (with the leaver itself as a source) and is
    // released. Only then is the shard marked Departed.
    map_.removeShard(shard);
    rebalance(now);
    sh.status = ShardStatus::Departed;
}

void
BackupCluster::crashShard(ShardId shard)
{
    Shard &sh = shardAt(shard);
    panicIf(sh.status != ShardStatus::Live,
            "BackupCluster: crash of non-live shard");
    // Fail-stop: no migration, no goodbye. The copies die with the
    // shard; replica sets keep the dead member until a rebalance
    // repairs them, and quorum counts against survivors meanwhile.
    sh.status = ShardStatus::Crashed;
    map_.removeShard(shard);

    // Every stream the dead shard replicated is now degraded — tell
    // the repair observer the moment the debt is created, not at the
    // next join. placement_ is an ordered map, so notification order
    // is deterministic.
    if (repairObserver_ != nullptr) {
        for (const auto &[device, replicas] : placement_) {
            if (std::find(replicas.begin(), replicas.end(), shard) !=
                replicas.end()) {
                repairObserver_->streamDegraded(device);
            }
        }
    }
}

void
BackupCluster::migrateStream(DeviceId device,
                             const std::vector<ShardId> &replicas,
                             ShardId target, Tick now)
{
    Shard &dst = shardAt(target);
    // A partial repair copy may already sit on the target (repair
    // racing this join/rebalance). Migration copies everything in
    // one step, so the cheap resolution is: drop the partial copy
    // and let the migration win; the repair engine finds the stream
    // healthy and dequeues it.
    if (dst.store->hasStream(device))
        dropCopy(target, device);
    dst.store->registerStream(device, codecs_.at(device));
    dst.devices.push_back(device);
    repl_.streamsMigrated++;

    // Migration source: first live current member still holding the
    // stream. With the whole old set dead the fresh replica starts
    // empty — the history is genuinely lost, and the device's next
    // segment will be refused there (quorum must come from others).
    const BackupStore *src = nullptr;
    for (const ShardId s : replicas) {
        const Shard &cand = shardAt(s);
        if (cand.status == ShardStatus::Live &&
            cand.store->hasStream(device)) {
            src = cand.store.get();
            break;
        }
    }
    if (src == nullptr)
        return;

    // A migrated prefix is just a re-anchored chain: if the source
    // pruned, its signed PruneRecord seeds the target's chain state
    // (resumeFrom() semantics), and the surviving sealed segments
    // are copied verbatim — never resealed, so every replica stores
    // byte-identical evidence.
    if (const log::PruneRecord *rec = src->pruneRecordOf(device))
        dst.store->adoptPruneRecord(device, *rec);
    for (const std::uint32_t idx : src->streamSegments(device)) {
        const log::SealedSegment &sealed = src->sealedSegment(idx);
        Tick ack = 0;
        if (dst.store->ingestSegment(device, sealed, now, ack)) {
            repl_.segmentsMigrated++;
            repl_.bytesMigrated += sealed.wireSize();
        } else {
            repl_.migrationRejects++;
        }
    }
    dst.store->setEvictionHold(device, src->evictionHold(device));
}

void
BackupCluster::rebalance(Tick now)
{
    for (auto &[device, replicas] : placement_) {
        // Fewer live shards than R leaves a degraded (short) set —
        // repair debt the next join pays down — but never an empty
        // one.
        std::vector<ShardId> target =
            map_.successorsOf(device, config_.replication);
        panicIf(target.empty(),
                "BackupCluster: no live shards to rebalance onto");
        if (target == replicas)
            continue;

        for (const ShardId t : target) {
            if (std::find(replicas.begin(), replicas.end(), t) ==
                replicas.end()) {
                migrateStream(device, replicas, t, now);
            }
        }
        for (const ShardId o : replicas) {
            if (std::find(target.begin(), target.end(), o) !=
                target.end()) {
                continue;
            }
            Shard &old = shardAt(o);
            if (old.status != ShardStatus::Live ||
                !old.store->hasStream(device)) {
                continue; // dead member: nothing left to release
            }
            old.store->releaseStream(device);
            old.devices.erase(std::find(old.devices.begin(),
                                        old.devices.end(), device));
        }
        replicas = std::move(target);
    }
}

ShardStatus
BackupCluster::shardStatus(ShardId shard) const
{
    return shardAt(shard).status;
}

std::uint32_t
BackupCluster::liveShardCount() const
{
    std::uint32_t n = 0;
    for (const Shard &sh : shards_) {
        if (sh.status == ShardStatus::Live)
            n++;
    }
    return n;
}

ShardId
BackupCluster::chainVerifyingReplicaOf(DeviceId device) const
{
    // Quarantined copies are passed over even if they happen to
    // verify — the scrub's verdict stands until the repair rebuilds
    // the copy. They remain the last-ditch fallback when every
    // other copy is gone.
    ShardId fallback = kNoShard;
    ShardId quarantined_fallback = kNoShard;
    for (const ShardId s : replicaSetOf(device)) {
        const Shard &sh = shardAt(s);
        if (sh.status != ShardStatus::Live ||
            !sh.store->hasStream(device)) {
            continue;
        }
        if (sh.store->quarantined(device)) {
            if (quarantined_fallback == kNoShard)
                quarantined_fallback = s;
            continue;
        }
        if (fallback == kNoShard)
            fallback = s;
        if (sh.store->verifyStreamChain(device))
            return s;
    }
    return fallback != kNoShard ? fallback : quarantined_fallback;
}

// -- Anti-entropy repair --------------------------------------------------

void
BackupCluster::setRepairObserver(RepairObserver *observer)
{
    repairObserver_ = observer;
}

StreamHealth
BackupCluster::streamHealth(DeviceId device) const
{
    StreamHealth h;
    h.replicas = config_.replication;
    for (const ShardId s : replicaSetOf(device)) {
        const Shard &sh = shardAt(s);
        if (sh.status != ShardStatus::Live ||
            !sh.store->hasStream(device)) {
            continue;
        }
        h.live++;
        if (sh.store->quarantined(device))
            h.quarantined++;
    }
    return h;
}

std::vector<DeviceId>
BackupCluster::degradedStreams() const
{
    // "Degraded" is judged against what the ring can currently
    // support: with fewer live shards than R the best any repair can
    // do is min(R, live) copies, and a stream holding that many
    // healthy copies is as repaired as it can get.
    const std::uint32_t achievable =
        std::min(config_.replication, liveShardCount());
    std::vector<DeviceId> out;
    for (const auto &[device, replicas] : placement_) {
        (void)replicas;
        const StreamHealth h = streamHealth(device);
        if (h.live < h.quarantined + achievable || h.quarantined > 0)
            out.push_back(device);
    }
    return out;
}

std::uint64_t
BackupCluster::quarantinedCopies() const
{
    std::uint64_t n = 0;
    for (const Shard &sh : shards_) {
        if (sh.status == ShardStatus::Live)
            n += sh.store->quarantinedStreams();
    }
    return n;
}

bool
BackupCluster::copyQuarantined(ShardId shard, DeviceId device) const
{
    const Shard &sh = shardAt(shard);
    return sh.status == ShardStatus::Live &&
           sh.store->hasStream(device) &&
           sh.store->quarantined(device);
}

void
BackupCluster::quarantineCopy(ShardId shard, DeviceId device)
{
    Shard &sh = shardAt(shard);
    panicIf(sh.status != ShardStatus::Live,
            "BackupCluster: quarantine on a dead shard");
    sh.store->setQuarantined(device, true);
    if (repairObserver_ != nullptr)
        repairObserver_->streamDegraded(device);
}

std::vector<ShardId>
BackupCluster::repairTargetsOf(DeviceId device) const
{
    return map_.successorsOf(device, config_.replication);
}

void
BackupCluster::beginRepairCopy(DeviceId device, ShardId target)
{
    Shard &dst = shardAt(target);
    panicIf(dst.status != ShardStatus::Live,
            "BackupCluster: repair copy onto a dead shard");
    panicIf(dst.store->hasStream(device),
            "BackupCluster: repair copy already present");
    dst.store->registerStream(device, codecs_.at(device));
    dst.devices.push_back(device);
}

void
BackupCluster::dropCopy(ShardId shard, DeviceId device)
{
    Shard &sh = shardAt(shard);
    panicIf(!sh.store->hasStream(device),
            "BackupCluster: dropCopy of a stream the shard lacks");
    sh.store->releaseStream(device);
    sh.devices.erase(
        std::find(sh.devices.begin(), sh.devices.end(), device));
}

void
BackupCluster::adoptPruneRecordOn(ShardId target, DeviceId device,
                                  const log::PruneRecord &record)
{
    shardAt(target).store->adoptPruneRecord(device, record);
}

bool
BackupCluster::repairIngest(ShardId target, DeviceId device,
                            const log::SealedSegment &segment,
                            Tick arrive_at, Tick &ack_ready_at)
{
    Shard &sh = shardAt(target);
    panicIf(sh.status != ShardStatus::Live,
            "BackupCluster: repair ingest into a dead shard");
    return shardIngest(target, sh, device, segment, arrive_at,
                       ack_ready_at);
}

void
BackupCluster::commitReplicaSet(DeviceId device,
                                std::vector<ShardId> set)
{
    auto it = placement_.find(device);
    panicIf(it == placement_.end(),
            "BackupCluster: device not attached");
    panicIf(set.empty(), "BackupCluster: empty replica set");
    // Sweep every live shard, not just the old set's members: a
    // rebalance racing the repair can strand a partial repair copy
    // on a shard that is in neither the old nor the new set.
    for (ShardId s = 0; s < shardCount(); s++) {
        if (std::find(set.begin(), set.end(), s) != set.end())
            continue;
        const Shard &sh = shardAt(s);
        if (sh.status == ShardStatus::Live &&
            sh.store->hasStream(device)) {
            dropCopy(s, device);
        }
    }
    it->second = std::move(set);
}

void
BackupCluster::setShardDelay(ShardId shard, Tick extra)
{
    shardAt(shard).extraDelay = extra;
}

BackupStore &
BackupCluster::mutableShardStore(ShardId shard)
{
    return *shardAt(shard).store;
}

// -- Retention lifecycle --------------------------------------------------

void
BackupCluster::setEvictionHold(DeviceId device, bool held)
{
    for (const ShardId s : liveReplicasOf(device))
        shardAt(s).store->setEvictionHold(device, held);
}

bool
BackupCluster::evictionHold(DeviceId device) const
{
    const std::vector<ShardId> live = liveReplicasOf(device);
    panicIf(live.empty(), "BackupCluster: no live replica");
    return shardAt(live.front()).store->evictionHold(device);
}

void
BackupCluster::runRetentionGc(Tick now)
{
    for (Shard &sh : shards_) {
        if (sh.status == ShardStatus::Live)
            sh.store->runRetentionGc(now);
    }
}

const BackupStore &
BackupCluster::shardStore(ShardId shard) const
{
    return *shardAt(shard).store;
}

const ShardIngestStats &
BackupCluster::shardStats(ShardId shard) const
{
    return shardAt(shard).stats;
}

const std::vector<DeviceId> &
BackupCluster::shardDevices(ShardId shard) const
{
    return shardAt(shard).devices;
}

std::uint64_t
BackupCluster::pendingDepth(ShardId shard) const
{
    const Shard &sh = shardAt(shard);
    if (sh.status != ShardStatus::Live)
        return 0;
    return sh.inflight.size();
}

std::uint64_t
BackupCluster::pendingDepthMax() const
{
    std::uint64_t worst = 0;
    for (ShardId s = 0; s < shardCount(); s++)
        worst = std::max(worst, pendingDepth(s));
    return worst;
}

std::uint64_t
BackupCluster::totalSegmentsRejected() const
{
    std::uint64_t n = 0;
    for (const Shard &sh : shards_)
        n += sh.stats.segmentsRejected;
    return n;
}

// -- Observability --------------------------------------------------------

void
BackupCluster::attachTrace(obs::TraceSink *sink)
{
    trace_ = sink;
    for (ShardId s = 0; s < shardCount(); s++)
        shards_[s].store->attachTrace(sink, s);
}

void
BackupCluster::registerMetrics(obs::MetricsRegistry &registry,
                               const std::string &prefix) const
{
    registry.counters(prefix, repl_, kReplicationStatsFields);
    registry.counter(prefix + "quorumFailures",
                     [this] { return repl_.quorumFailures; });
    registry.histogram(prefix + "quorumWait",
                       [this] { return quorumWait_; });
    // Health signals: point-in-time depths are levels (they go
    // down), the fleet-wide reject total is a plain counter.
    registry.level(prefix + "pendingMax",
                   [this] { return pendingDepthMax(); });
    registry.counter(prefix + "segmentsRejected",
                     [this] { return totalSegmentsRejected(); });
    // Shards registered after this call (live joins) are not
    // retro-registered; closures index shards_ because the vector
    // reallocates on join.
    for (std::size_t i = 0; i < shards_.size(); i++) {
        const std::string shard =
            prefix + "shard." + std::to_string(i) + ".";
        registry.counter(shard + "segmentsAccepted", [this, i] {
            return shards_[i].stats.segmentsAccepted;
        });
        registry.counter(shard + "segmentsRejected", [this, i] {
            return shards_[i].stats.segmentsRejected;
        });
        registry.counter(shard + "batches", [this, i] {
            return shards_[i].stats.batches;
        });
        registry.counter(shard + "backpressureStalls", [this, i] {
            return shards_[i].stats.backpressureStalls;
        });
        registry.histogram(shard + "backlog", [this, i] {
            return shards_[i].stats.backlog;
        });
        registry.histogram(shard + "queueWait", [this, i] {
            return shards_[i].stats.queueWait;
        });
        registry.level(shard + "pending", [this, i] {
            return pendingDepth(static_cast<ShardId>(i));
        });
    }
}

bool
BackupCluster::verifyAll() const
{
    for (const Shard &sh : shards_) {
        if (sh.status != ShardStatus::Live)
            continue; // a dead replica's copies are already lost
        if (!sh.store->verifyFullChain())
            return false;
    }
    return true;
}

std::uint64_t
BackupCluster::totalSegments() const
{
    // Live segments: what the cluster currently stores (retention
    // GC tombstones excluded, dead shards excluded).
    std::uint64_t n = 0;
    for (const Shard &sh : shards_) {
        if (sh.status == ShardStatus::Live)
            n += sh.store->liveSegmentCount();
    }
    return n;
}

std::uint64_t
BackupCluster::totalUsedBytes() const
{
    std::uint64_t n = 0;
    for (const Shard &sh : shards_) {
        if (sh.status == ShardStatus::Live)
            n += sh.store->usedBytes();
    }
    return n;
}

} // namespace rssd::remote
