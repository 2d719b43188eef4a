#include "fleet/scheduler.hh"

#include <algorithm>
#include <queue>
#include <string>
#include <utility>

#include "compress/datagen.hh"
#include "core/history.hh"
#include "core/recovery.hh"
#include "detect/detector.hh"
#include "sim/logging.hh"
#include "workload/generator.hh"

namespace rssd::fleet {

/**
 * One simulated machine: an RSSD with its own clock, link, RNG
 * stream, benign workload, and (if the campaign says so) malware.
 */
struct FleetScheduler::Actor
{
    Actor(std::uint32_t id_, const core::RssdConfig &device_cfg,
          remote::BackupCluster &cluster,
          const workload::TraceProfile &profile, std::uint64_t rng_seed,
          std::uint64_t gen_seed, std::uint64_t content_seed)
        : id(id_),
          portal(cluster, id_),
          dev(std::make_unique<core::RssdDevice>(device_cfg, clock,
                                                 portal)),
          rng(rng_seed),
          gen(profile, dev->capacityPages(), gen_seed),
          contentGen(content_seed, profile.compressibility)
    {
    }

    /** Issue one generated benign trace request. */
    void
    issueBenign()
    {
        const workload::Request r = gen.next();
        nvme::Command cmd;
        cmd.op = r.op;
        cmd.lpa = r.lpa;
        cmd.npages = r.npages;
        if (r.op == nvme::Opcode::Write) {
            const std::uint32_t page_size = dev->pageSize();
            cmd.data.reserve(std::size_t(r.npages) * page_size);
            for (std::uint32_t p = 0; p < r.npages; p++) {
                const auto page = contentGen.page(page_size);
                cmd.data.insert(cmd.data.end(), page.begin(),
                                page.end());
            }
        }
        dev->submit(cmd);
        benignOps++;
    }

    std::uint32_t id;
    VirtualClock clock;
    remote::ClusterPortal portal;
    std::unique_ptr<core::RssdDevice> dev;
    Rng rng;
    workload::TraceGenerator gen;
    compress::DataGenerator contentGen;

    std::unique_ptr<attack::VictimDataset> victim;
    std::unique_ptr<FleetAttacker> attacker;
    std::vector<std::unique_ptr<detect::Detector>> detectors;

    std::uint64_t benignOps = 0;
    std::uint64_t steps = 0;
    bool holdFlagged = false; ///< eviction hold already placed
};

FleetScheduler::FleetScheduler(const FleetConfig &config)
    : config_(config)
{
    panicIf(config.devices == 0, "FleetScheduler: zero devices");
    panicIf(config.shards == 0, "FleetScheduler: zero shards");
    panicIf(config.meanOpGap == 0, "FleetScheduler: meanOpGap == 0");
    panicIf(config.replication == 0,
            "FleetScheduler: replication == 0");
    panicIf(config.replication > config.shards,
            "FleetScheduler: replication exceeds shards");

    remote::BackupClusterConfig cluster_cfg = config_.cluster;
    cluster_cfg.shards = config_.shards;
    cluster_cfg.replication = config_.replication;
    cluster_ = std::make_unique<remote::BackupCluster>(cluster_cfg);

    if (config_.repair.enabled) {
        // The engine registers itself as the cluster's repair
        // observer: crashShard()/quarantineCopy() feed its queue
        // from the moment the degradation exists.
        engine_ = std::make_unique<remote::RepairEngine>(
            *cluster_, config_.repair);
    }

    // Per-device seeds come off one master stream in device-id order:
    // device k's whole behavior is independent of fleet size.
    Rng master(config_.seed);

    for (std::uint32_t id = 0; id < config_.devices; id++) {
        const std::uint64_t rng_seed = master.next();
        const std::uint64_t gen_seed = master.next();
        const std::uint64_t content_seed = master.next();
        const std::uint64_t victim_seed = master.next();
        const std::uint64_t attack_seed = master.next();

        core::RssdConfig dev_cfg = config_.device;
        dev_cfg.keySeed = config_.device.keySeed + "#fleet-" +
                          std::to_string(id);

        auto actor = std::make_unique<Actor>(
            id, dev_cfg, *cluster_, config_.profile, rng_seed,
            gen_seed, content_seed);
        cluster_->attachDevice(id, actor->dev->codec());

        if (config_.attachDetectors) {
            // Fleet-tuned entropy detector: smaller window and lower
            // thresholds than the controller defaults, so a 32-page
            // per-device encryption burst is visible.
            detect::EntropyOverwriteDetector::Config ec;
            ec.windowOps = 256;
            ec.alarmRatio = 0.08;
            ec.minFlagged = 12;
            actor->detectors.push_back(
                std::make_unique<detect::EntropyOverwriteDetector>(
                    ec));
            actor->detectors.push_back(
                std::make_unique<detect::WriteBurstDetector>());
            for (auto &d : actor->detectors)
                actor->dev->attachDetector(d.get());
        }

        actorSeeds_.push_back({victim_seed, attack_seed});
        actors_.push_back(std::move(actor));
    }

    plans_ = planCampaign(config_.campaign, config_.devices,
                          *cluster_);

    for (std::uint32_t id = 0; id < config_.devices; id++) {
        const DevicePlan &plan = plans_[id];
        if (plan.role == DeviceRole::Benign)
            continue;
        Actor &a = *actors_[id];
        a.victim = std::make_unique<attack::VictimDataset>(
            0, config_.campaign.victimPages, 0.7,
            actorSeeds_[id].first);
        a.victim->populate(*a.dev);

        FleetAttacker::Params params;
        params.role = plan.role;
        params.floodPages = config_.campaign.floodPages;
        params.floodSpanFraction = config_.campaign.floodSpanFraction;
        attack::AttackConfig attack_cfg;
        attack_cfg.attackerKeySeed =
            "r4ns0m-fleet-" + std::to_string(id);
        attack_cfg.rngSeed = actorSeeds_[id].second;
        a.attacker =
            std::make_unique<FleetAttacker>(params, attack_cfg);
    }

    if (config_.health.interval > 0) {
        // The health layer rides a private registry so the CLIs'
        // own registries stay independent. Rules bind by metric
        // name now — a rule naming an absent metric panics here,
        // not silently at the first sample.
        registerMetrics(healthRegistry_);
        sampler_ = std::make_unique<obs::TimeSeriesSampler>(
            healthRegistry_);
        std::vector<obs::HealthRule> rules =
            config_.health.rules.empty() ? defaultHealthRules(config_)
                                         : config_.health.rules;
        monitor_ = std::make_unique<obs::HealthMonitor>(
            *sampler_, std::move(rules));
    }
}

FleetScheduler::~FleetScheduler() = default;

std::uint32_t
FleetScheduler::deviceCount() const
{
    return static_cast<std::uint32_t>(actors_.size());
}

core::RssdDevice &
FleetScheduler::device(std::uint32_t idx)
{
    panicIf(idx >= actors_.size(), "FleetScheduler: device idx OOB");
    return *actors_[idx]->dev;
}

const DevicePlan &
FleetScheduler::plan(std::uint32_t idx) const
{
    panicIf(idx >= plans_.size(), "FleetScheduler: device idx OOB");
    return plans_[idx];
}

void
FleetScheduler::attachTrace(obs::TraceSink *sink)
{
    panicIf(ran_, "FleetScheduler: attachTrace after run()");
    trace_ = sink;
    for (auto &actor : actors_)
        actor->dev->offload().attachTrace(sink, actor->id);
    cluster_->attachTrace(sink);
    if (engine_)
        engine_->attachTrace(sink);
    if (monitor_)
        monitor_->attachTrace(sink);
    if (sink == nullptr)
        return;
    sink->setProcessName(obs::kTrackDevices, "devices");
    sink->setProcessName(obs::kTrackCluster, "cluster");
    sink->setProcessName(obs::kTrackRepair, "repair");
    sink->setProcessName(obs::kTrackFleet, "fleet");
    for (const auto &actor : actors_) {
        sink->setThreadName(obs::kTrackDevices, actor->id,
                            "device " + std::to_string(actor->id));
    }
    for (remote::ShardId s = 0; s < cluster_->shardCount(); s++) {
        sink->setThreadName(obs::kTrackCluster, s,
                            "shard " + std::to_string(s));
    }
}

void
FleetScheduler::registerMetrics(obs::MetricsRegistry &registry) const
{
    for (const auto &actor : actors_) {
        actor->dev->offload().registerMetrics(
            registry,
            "device." + std::to_string(actor->id) + ".offload.");
    }
    cluster_->registerMetrics(registry, "cluster.");
    if (engine_)
        engine_->registerMetrics(registry, "repair.");

    // Fleet-wide offload aggregates: the health rules watch the
    // fleet, not one device, so the park/resubmit/reject totals are
    // summed across every actor at sample time.
    static constexpr U64Field<core::OffloadStats> kFleetSums[] = {
        {"fleet.offloadParks", &core::OffloadStats::parks},
        {"fleet.offloadResubmits", &core::OffloadStats::resubmits},
        {"fleet.remoteRejects", &core::OffloadStats::remoteRejects},
    };
    for (const U64Field<core::OffloadStats> &f : kFleetSums) {
        registry.counter(f.key, [this, m = f.member] {
            std::uint64_t n = 0;
            for (const auto &actor : actors_)
                n += actor->dev->offload().stats().*m;
            return n;
        });
    }
}

const std::string &
FleetScheduler::healthTimeSeriesJsonl() const
{
    static const std::string kEmpty;
    return sampler_ ? sampler_->jsonl() : kEmpty;
}

std::vector<obs::HealthRule>
defaultHealthRules(const FleetConfig &config)
{
    using obs::Cmp;
    using obs::HealthRule;
    using obs::Severity;
    using obs::Signal;

    std::vector<HealthRule> rules;

    // Quorum writes kept waiting: live replicas below the write
    // quorum. Never happens on a healthy ring, so any sustained
    // stall rate is a real incident.
    {
        HealthRule r;
        r.id = "quorum_stall";
        r.metric = "cluster.quorumStalls";
        r.signal = Signal::Rate;
        r.cmp = Cmp::Gt;
        r.threshold = 0;
        r.holdFor = 2 * units::MS;
        r.severity = Severity::Warn;
        rules.push_back(r);
    }
    // The remote store refusing segments: devices are parking
    // sealed bytes and burning resubmit probes.
    {
        HealthRule r;
        r.id = "offload_parked";
        r.metric = "fleet.offloadParks";
        r.signal = Signal::Rate;
        r.cmp = Cmp::Gt;
        r.threshold = 0;
        r.holdFor = 2 * units::MS;
        r.severity = Severity::Warn;
        rules.push_back(r);
    }
    // An ingest queue pinned at its admission limit — the point
    // where backpressure turns into rejects.
    {
        HealthRule r;
        r.id = "shard_backlog";
        r.metric = "cluster.pendingMax";
        r.signal = Signal::Value;
        r.cmp = Cmp::Ge;
        r.threshold = config.cluster.maxPending;
        r.holdFor = 2 * units::MS;
        r.severity = Severity::Warn;
        rules.push_back(r);
    }
    // Rejects persisting while retention GC runs: the steady state
    // leaks work instead of absorbing it.
    {
        HealthRule r;
        r.id = "gc_reject";
        r.metric = "cluster.segmentsRejected";
        r.signal = Signal::Rate;
        r.cmp = Cmp::Gt;
        r.threshold = 0;
        r.holdFor = 2 * units::MS;
        r.severity = Severity::Warn;
        rules.push_back(r);
    }
    if (config.repair.enabled) {
        // Repair debt outstanding longer than a few engine wakeups
        // should be needed to start paying it down.
        HealthRule r;
        r.id = "repair_debt";
        r.metric = "repair.oldestDebtAgeNs";
        r.signal = Signal::Value;
        r.cmp = Cmp::Gt;
        r.threshold = 5 * config.repair.tickInterval;
        r.holdFor = 0;
        r.severity = Severity::Critical;
        rules.push_back(r);
    }
    if (config.repair.enabled && config.repair.scrubInterval != 0) {
        // Integrity scrubbing finding corrupted copies — silent
        // data loss in progress.
        HealthRule r;
        r.id = "scrub_rot";
        r.metric = "repair.scrubCorruptions";
        r.signal = Signal::Rate;
        r.cmp = Cmp::Gt;
        r.threshold = 0;
        r.holdFor = 0;
        r.severity = Severity::Critical;
        rules.push_back(r);
    }
    return rules;
}

namespace {

/** Integer-jittered think time: uniform in [gap/2, 3*gap/2). */
Tick
thinkTime(Rng &rng, Tick mean_gap)
{
    return mean_gap / 2 + rng.below(mean_gap);
}

} // namespace

Tick
FleetScheduler::step(Actor &a)
{
    const DevicePlan &plan = plans_[a.id];
    const bool benign_done = a.benignOps >= config_.opsPerDevice;
    FleetAttacker *attacker = a.attacker.get();

    // Benign traffic exhausted with the attack still ahead: jump to
    // the infection time instead of spinning.
    if (attacker && !attacker->begun() && benign_done &&
        a.clock.now() < plan.attackStart) {
        a.clock.advanceTo(plan.attackStart);
    }

    if (attacker && !attacker->begun() &&
        a.clock.now() >= plan.attackStart) {
        attacker->begin(*a.dev, *a.victim, a.clock.now());
    }

    if (attacker && attacker->begun() && !attacker->done()) {
        attacker->step(*a.dev, a.clock);
    } else if (!benign_done) {
        a.issueBenign();
    } else {
        return 0; // everything this device had to do is done
    }

    a.steps++;
    // Periodic offload tick: benign read phases don't pass through
    // the write path's opportunistic pump, so give the engine a
    // chance to seal full segments between host commands.
    if ((a.steps & 7) == 0)
        a.dev->pumpOffload();

    // Suspicion-aware retention: the first detector alarm flags the
    // device's stream with an eviction hold, so capacity pressure
    // (a shard-flood) cannot expire the victim's evidence.
    if (config_.suspicionHolds && !a.holdFlagged) {
        for (const auto &det : a.detectors) {
            if (!det->alarms().empty()) {
                cluster_->setEvictionHold(a.id, true);
                a.holdFlagged = true;
                if (trace_ != nullptr) {
                    trace_->instant("fleet", "suspicion-hold",
                                    obs::kTrackFleet, 0,
                                    a.clock.now(),
                                    {{"device", a.id}});
                }
                break;
            }
        }
    }

    return a.clock.now() + thinkTime(a.rng, config_.meanOpGap);
}

FleetReport
FleetScheduler::run()
{
    panicIf(ran_, "FleetScheduler: run() twice");
    ran_ = true;

    using Event = std::pair<Tick, std::uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>>
        queue;
    for (auto &actor : actors_) {
        queue.push({actor->clock.now() +
                        thinkTime(actor->rng, config_.meanOpGap),
                    actor->id});
    }

    // Membership and bit-rot events ride the same spine with ids
    // past the device range, so the (tick, id) tie-break sorts them
    // after every device wakeup at the same tick — deterministically.
    const std::uint32_t membership_base = config_.devices;
    const std::uint32_t bitrot_base =
        membership_base +
        static_cast<std::uint32_t>(config_.membership.size());
    const std::uint32_t engine_id =
        bitrot_base + static_cast<std::uint32_t>(config_.bitRot.size());
    for (std::uint32_t i = 0; i < config_.membership.size(); i++)
        queue.push({config_.membership[i].at, membership_base + i});
    for (std::uint32_t i = 0; i < config_.bitRot.size(); i++)
        queue.push({config_.bitRot[i].at, bitrot_base + i});

    // The repair engine is a periodic actor on the same spine: its
    // copies pass through the shard ingest queues, so repair traffic
    // and foreground quorum writes contend deterministically.
    std::uint32_t active = static_cast<std::uint32_t>(actors_.size());
    if (engine_)
        queue.push({config_.repair.tickInterval, engine_id});

    // The health sampler is the last actor id on the spine: at a
    // shared tick it observes *after* every device op, membership
    // event and repair wakeup — one consistent cut per interval.
    const std::uint32_t sampler_id = engine_id + 1;
    if (sampler_)
        queue.push({config_.health.interval, sampler_id});

    while (!queue.empty()) {
        const auto [at, id] = queue.top();
        queue.pop();
        if (id == sampler_id && sampler_) {
            sampler_->sample(at);
            monitor_->evaluate(at);
            if (active > 0)
                queue.push({at + config_.health.interval, sampler_id});
            continue;
        }
        if (id == engine_id && engine_) {
            engine_->tick(at);
            if (active > 0)
                queue.push({at + config_.repair.tickInterval,
                            engine_id});
            continue;
        }
        if (id >= bitrot_base && id < engine_id) {
            const BitRotEvent &e = config_.bitRot[id - bitrot_base];
            if (trace_ != nullptr) {
                trace_->instant("fleet", "bit-rot", obs::kTrackFleet,
                                0, at, {{"device", e.device}});
            }
            applyBitRot(e);
            continue;
        }
        if (id >= membership_base) {
            const MembershipEvent &e =
                config_.membership[id - membership_base];
            remote::ShardId shard = e.shard;
            const char *name = "crash-shard";
            switch (e.kind) {
              case MembershipKind::CrashShard:
                cluster_->crashShard(e.shard);
                break;
              case MembershipKind::JoinShard:
                shard = cluster_->joinShard(at);
                name = "join-shard";
                break;
              case MembershipKind::LeaveShard:
                cluster_->leaveShard(e.shard, at);
                name = "leave-shard";
                break;
            }
            if (trace_ != nullptr) {
                trace_->instant("fleet", name, obs::kTrackFleet, 0,
                                at, {{"shard", shard}});
            }
            continue;
        }
        Actor &a = *actors_[id];
        a.clock.advanceTo(at);
        const Tick next = step(a);
        if (next == 0)
            active--;
        else
            queue.push({next, id});
    }

    // Ship every straggler segment (in device-id order — part of the
    // determinism contract).
    for (auto &actor : actors_)
        actor->dev->drainOffload();

    // With repair enabled the campaign does not end until the
    // cluster converged: the queue drains, quarantined copies are
    // rebuilt, and one full scrub pass comes back clean — all in
    // virtual time, after the last device op.
    if (engine_) {
        Tick end = 0;
        for (const auto &actor : actors_)
            end = std::max(end, actor->clock.now());
        repairConvergedAt_ = engine_->drainAll(end);
    }

    // One final sample after the drains: the post-convergence state
    // is what clears a raised repair_debt alert (the drain runs in
    // virtual time with no sampler wakeups in between).
    if (sampler_) {
        Tick end = 0;
        for (const auto &actor : actors_)
            end = std::max(end, actor->clock.now());
        Tick final_at = std::max(end, repairConvergedAt_);
        if (final_at <= sampler_->lastSampleAt())
            final_at = sampler_->lastSampleAt() + 1;
        sampler_->sample(final_at);
        monitor_->evaluate(final_at);
    }

    return aggregate();
}

void
FleetScheduler::applyBitRot(const BitRotEvent &event)
{
    // Deterministic target pick: the replicaIdx-th live replica-set
    // member whose copy currently stores segments. A stream with no
    // stored copy anywhere makes the fault a no-op.
    std::vector<remote::ShardId> holders;
    for (const remote::ShardId s :
         cluster_->replicaSetOf(event.device)) {
        if (cluster_->shardAlive(s) &&
            cluster_->shardStore(s).hasStream(event.device) &&
            !cluster_->shardStore(s)
                 .streamSegments(event.device)
                 .empty()) {
            holders.push_back(s);
        }
    }
    if (holders.empty())
        return;
    const remote::ShardId shard =
        holders[event.replicaIdx % holders.size()];
    remote::BackupStore &store = cluster_->mutableShardStore(shard);
    const std::uint64_t count =
        store.streamSegments(event.device).size();
    const std::uint64_t k =
        event.segmentIdx < count ? event.segmentIdx : count - 1;
    store.injectBitRot(event.device, k, /*first_byte=*/7,
                       /*byte_count=*/5);
}

forensics::GroundTruth
FleetScheduler::groundTruth() const
{
    forensics::GroundTruth truth;
    truth.known = true;
    truth.scenario = scenarioName(config_.campaign.scenario);

    // Infected devices by *actual* attack begin time (the plan's
    // attackStart is when the malware was armed; the evidence can
    // only ever see the first operation it issued).
    std::vector<std::pair<Tick, remote::DeviceId>> infected;
    for (const auto &actor : actors_) {
        const FleetAttacker *attacker = actor->attacker.get();
        if (attacker && attacker->begun())
            infected.push_back(
                {attacker->report().startedAt, actor->id});
    }
    std::sort(infected.begin(), infected.end());
    truth.anyInfected = !infected.empty();
    for (const auto &[at, id] : infected) {
        (void)at;
        truth.infectionOrder.push_back(id);
    }
    if (truth.anyInfected)
        truth.patientZero = truth.infectionOrder.front();
    return truth;
}

forensics::ForensicsReport
FleetScheduler::runForensics(const forensics::ForensicsConfig &config)
{
    panicIf(!ran_, "FleetScheduler: runForensics() before run()");
    if (!scanner_) {
        scanner_ =
            std::make_unique<forensics::EvidenceScanner>(*cluster_);
    }
    forensics::ForensicsReport report =
        forensics::analyzeCluster(*scanner_, config, groundTruth());

    // Execute the plan: restore every compromised (and still
    // trustworthy) device to its recommended recovery point from
    // the shard holding its stream. Device-id order — part of the
    // determinism contract.
    for (const forensics::DeviceFinding &f :
         report.correlation.findings) {
        if (!f.finding.detected || !f.chainIntact)
            continue;
        Actor &a = *actors_[static_cast<std::uint32_t>(f.device)];

        forensics::RecoveryOutcome outcome;
        outcome.device = f.device;
        outcome.recoverySeq = f.finding.recommendedRecoverySeq;
        outcome.victimIntactBefore =
            a.victim ? a.victim->intactFraction(*a.dev) : 1.0;

        // Replica-aware restore: read from whichever live replica's
        // copy of the stream chain-verifies (a crashed primary is
        // invisible here — the history comes off a survivor).
        core::DeviceHistory history(*a.dev, *cluster_, f.device);
        outcome.restoredFromShard = history.sourceShard();
        core::RecoveryEngine engine(history);
        const core::RecoveryReport rec =
            engine.recoverToLogSeq(outcome.recoverySeq);

        outcome.pagesRestored = rec.pagesRestored;
        outcome.restoredFromRemote = rec.restoredFromRemote;
        outcome.unresolved = rec.unresolved;
        outcome.beforePrunedHorizon = rec.beforePrunedHorizon;
        outcome.victimIntactAfter =
            a.victim ? a.victim->intactFraction(*a.dev) : 1.0;
        report.recovery.push_back(outcome);
    }
    report.recoveryExecuted = true;
    return report;
}

FleetReport
FleetScheduler::aggregate()
{
    FleetReport rep;
    rep.devices = config_.devices;
    rep.shards = cluster_->shardCount();
    rep.replication = config_.replication;
    rep.liveShards = cluster_->liveShardCount();
    rep.scenario = scenarioName(config_.campaign.scenario);
    rep.seed = config_.seed;
    rep.opsPerDevice = config_.opsPerDevice;

    for (auto &actor : actors_) {
        Actor &a = *actor;
        DeviceReport d;
        d.device = a.id;
        d.shard = cluster_->shardOfDevice(a.id);
        d.replicas = cluster_->replicaSetOf(a.id);
        const remote::StreamHealth health =
            cluster_->streamHealth(a.id);
        d.replicasLive = health.live;
        d.quarantinedCopies = health.quarantined;
        d.role = roleName(plans_[a.id].role);
        d.attackStart = plans_[a.id].role == DeviceRole::Benign
            ? 0
            : plans_[a.id].attackStart;
        if (a.attacker && a.attacker->begun())
            d.attack = a.attacker->report();
        else
            d.attack.attack = "benign";
        d.victimIntact =
            a.victim ? a.victim->intactFraction(*a.dev) : 1.0;

        Tick first_at = 0;
        for (const auto &det : a.detectors) {
            for (const detect::Alarm &alarm : det->alarms()) {
                d.alarms++;
                if (d.firstAlarmDetector.empty() ||
                    alarm.raisedAt < first_at) {
                    first_at = alarm.raisedAt;
                    d.firstAlarmDetector = alarm.detector;
                }
            }
        }
        d.firstAlarmAt = first_at;
        d.benignOps = a.benignOps;
        d.rssd = a.dev->stats();
        d.offload = a.dev->offload().stats();
        d.transport = a.dev->transport().stats();
        d.finishedAt = a.clock.now();
        rep.sealLatency.merge(a.dev->offload().sealLatency());

        rep.totalPagesEncrypted += d.attack.pagesEncrypted;
        rep.totalPagesTrimmed += d.attack.pagesTrimmed;
        rep.totalJunkPages += d.attack.junkPagesWritten;
        rep.totalAlarms += d.alarms;
        rep.makespan = std::max(rep.makespan, d.finishedAt);
        rep.deviceReports.push_back(std::move(d));
    }

    for (remote::ShardId s = 0; s < cluster_->shardCount(); s++) {
        const remote::ShardIngestStats &st = cluster_->shardStats(s);
        const remote::BackupStore &store = cluster_->shardStore(s);
        ShardReport sr;
        sr.shard = s;
        sr.status =
            remote::shardStatusName(cluster_->shardStatus(s));
        sr.devices = cluster_->shardDevices(s).size();
        sr.segmentsAccepted = st.segmentsAccepted;
        sr.segmentsRejected = st.segmentsRejected;
        sr.duplicates = store.stats().duplicateSegments;
        sr.rejectedBytes = st.rejectedBytes;
        sr.batches = st.batches;
        sr.meanBatchSegments = st.meanBatchSegments();
        sr.maxBatchFill = st.maxBatchFill;
        sr.backpressureStalls = st.backpressureStalls;
        if (st.backlog.count() > 0) {
            sr.backlogP50 = st.backlog.percentileNs(50);
            sr.backlogP99 = st.backlog.percentileNs(99);
        }
        sr.usedBytes = store.usedBytes();
        sr.capacityBytes = store.capacityBytes();
        sr.segmentsPruned = store.stats().segmentsPruned;
        sr.bytesPruned = store.stats().bytesPruned;
        sr.heldStreams = store.heldStreams();
        sr.quarantined = cluster_->shardAlive(s)
            ? store.quarantinedStreams()
            : 0;
        // A crashed shard is fail-stop: its store is gone from the
        // ring and never read again, so it neither vouches for nor
        // taints the fleet's chain verdict.
        sr.chainOk = cluster_->shardAlive(s)
            ? store.verifyFullChain()
            : true;

        rep.queueWaitLatency.merge(st.queueWait);
        rep.offloadAckLatency.merge(st.backlog);

        rep.totalSegments += sr.segmentsAccepted;
        rep.totalBytesStored += sr.usedBytes;
        rep.totalBackpressureStalls += sr.backpressureStalls;
        rep.totalSegmentsPruned += sr.segmentsPruned;
        rep.totalBytesPruned += sr.bytesPruned;
        rep.allChainsOk = rep.allChainsOk && sr.chainOk;
        rep.shardReports.push_back(sr);
    }
    rep.replicationStats = cluster_->replicationStats();
    rep.quorumWaitLatency.merge(cluster_->quorumWait());

    rep.repairEnabled = config_.repair.enabled;
    if (engine_) {
        rep.repairStats = engine_->stats();
        rep.repairCopyLatency.merge(engine_->copyLatency());
    }
    rep.degradedAtEnd = cluster_->degradedStreams().size();
    rep.quarantinedAtEnd = cluster_->quarantinedCopies();
    rep.repairConvergedAt = repairConvergedAt_;

    rep.health.enabled = sampler_ != nullptr;
    rep.health.interval = config_.health.interval;
    if (sampler_) {
        rep.health.samples = sampler_->samples();
        rep.health.lastSampleAt = sampler_->lastSampleAt();
    }
    if (monitor_) {
        const std::vector<obs::HealthRule> &rules = monitor_->rules();
        rep.health.alertsRaised = monitor_->alerts().size();
        rep.health.alertsOpen = monitor_->openCount();
        rep.health.worstSeverity =
            obs::severityName(monitor_->worstRaised());
        for (std::size_t i = 0; i < rules.size(); i++) {
            HealthRuleReport rr;
            rr.id = rules[i].id;
            rr.metric = rules[i].metric;
            rr.severity = obs::severityName(rules[i].severity);
            rr.raised = monitor_->raisedCount(i);
            for (const obs::HealthAlert &alert : monitor_->alerts()) {
                if (alert.rule == i && alert.open)
                    rr.open = true;
            }
            rep.health.rules.push_back(std::move(rr));
        }
        for (const obs::HealthAlert &alert : monitor_->alerts()) {
            HealthAlertReport ar;
            ar.rule = rules[alert.rule].id;
            ar.severity =
                obs::severityName(rules[alert.rule].severity);
            ar.raisedAt = alert.raisedAt;
            ar.clearedAt = alert.open ? 0 : alert.clearedAt;
            ar.open = alert.open;
            ar.observed = alert.observed;
            rep.health.alerts.push_back(std::move(ar));
        }
    }
    return rep;
}

} // namespace rssd::fleet
