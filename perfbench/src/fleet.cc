/**
 * @file
 * The two fleet workloads: 16 devices offloading into 4 shards at
 * R=3 through fleet::FleetScheduler.
 *
 *   fleet-ingest        Scenario::Benign; run() then runForensics()
 *                       as a routine audit (nothing to recover).
 *   outbreak-forensics  Scenario::Outbreak with the repair incident:
 *                       shard 1 crashes at 100 ms, anti-entropy
 *                       repair and 10 ms scrubbing, bit-rot on
 *                       device 2's stream at 110 ms, health sampled
 *                       every 1 ms; run() then runForensics().
 *
 * Both share the foreground (same fleet shape and op count), so a
 * change that speeds the read/verify side but slows ingest shows up
 * on one workload or the other.
 */

#include "bench.hh"
#include "core/history.hh"
#include "core/recovery.hh"
#include "fleet/scheduler.hh"
#include "forensics/evidence.hh"
#include "forensics/forensics.hh"

namespace rssd::perfbench {

namespace {

constexpr Tick kCrashAt = 100 * units::MS;
constexpr std::uint64_t kKernelBudgetBytes = 16 * units::MiB;

fleet::FleetConfig
fleetConfig(std::uint64_t seed, bool outbreak)
{
    fleet::FleetConfig cfg;
    cfg.devices = 16;
    cfg.shards = 4;
    cfg.replication = 3;
    cfg.seed = seed;
    cfg.opsPerDevice = 250;
    cfg.campaign.scenario = outbreak ? fleet::Scenario::Outbreak
                                     : fleet::Scenario::Benign;
    if (outbreak) {
        cfg.membership.push_back(
            {kCrashAt, fleet::MembershipKind::CrashShard, 1});
        cfg.repair.enabled = true;
        cfg.repair.scrubInterval = 10 * units::MS;
        // Rot the second live copy-holder of device 2, a few
        // segments in: only a scrub can notice it.
        cfg.bitRot.push_back({110 * units::MS, 2, 1, 2});
        cfg.health.interval = 1 * units::MS;
    }
    return cfg;
}

double
toMs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(units::MS);
}

double
toUs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(units::US);
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Work counts read after run(), before analysis writes anything. */
struct FleetCounts
{
    core::OffloadStats offload;
    net::TransportStats transport;
    ftl::FtlStats ftl;
    std::uint64_t deviceFullErrors = 0;
    std::uint64_t attackWriteErrors = 0;
    std::uint64_t segmentsAccepted = 0; ///< shard ingest, all shards
    std::uint64_t segmentsRejected = 0;
    std::uint64_t liveBytes = 0;        ///< stored on live shards
    std::uint64_t storedCopies = 0;
    std::uint32_t pageSize = 0;
};

FleetCounts
collectCounts(fleet::FleetScheduler &sched,
              const fleet::FleetReport &rep)
{
    FleetCounts c;
    for (const fleet::DeviceReport &d : rep.deviceReports) {
        c.offload.segmentsSealed += d.offload.segmentsSealed;
        c.offload.parks += d.offload.parks;
        c.offload.bytesRaw += d.offload.bytesRaw;
        c.offload.bytesSealed += d.offload.bytesSealed;
        c.transport.segmentsRejected += d.transport.segmentsRejected;
        c.transport.retransmits += d.transport.retransmits;
        c.transport.bytesSent += d.transport.bytesSent;
        c.deviceFullErrors += d.rssd.deviceFullErrors;
        c.attackWriteErrors += d.attack.writeErrors;
    }
    for (std::uint32_t i = 0; i < sched.deviceCount(); i++) {
        const ftl::FtlStats &f = sched.device(i).ftl().stats();
        c.ftl.hostReads += f.hostReads;
        c.ftl.hostWrites += f.hostWrites;
        c.ftl.hostTrims += f.hostTrims;
        c.ftl.gcValidMoves += f.gcValidMoves;
        c.ftl.gcHeldMoves += f.gcHeldMoves;
        c.ftl.gcErases += f.gcErases;
    }
    c.pageSize = sched.device(0).pageSize();
    const remote::BackupCluster &cluster = sched.cluster();
    for (remote::ShardId s = 0; s < cluster.shardCount(); s++) {
        c.segmentsAccepted += cluster.shardStats(s).segmentsAccepted;
        c.segmentsRejected += cluster.shardStats(s).segmentsRejected;
        if (cluster.shardAlive(s))
            c.liveBytes += cluster.shardStore(s).usedBytes();
    }
    c.storedCopies = cluster.totalSegments();
    return c;
}

Tick
replicaAwareMakespan(const forensics::ForensicsReport &fr)
{
    for (const forensics::RestorePlan &p : fr.plans) {
        if (p.policy == forensics::PlanPolicy::ReplicaAware)
            return p.makespan;
    }
    return 0;
}

/** Everything the traced iteration adds, measured outside-in after
 *  the deterministic outputs are digested. */
void
traceFleet(fleet::FleetScheduler &sched, const fleet::FleetReport &rep,
           const forensics::ForensicsReport &fr, const FleetCounts &c,
           Iteration &it)
{
    std::vector<Metric> &m = it.layers;
    m.push_back({"fleet.ctor_s", it.setupS, "s"});
    m.push_back({"fleet.run_s", it.mainS, "s"});

    Stopwatch sw;
    const bool verified = sched.cluster().verifyAll();
    m.push_back({"remote.verify_all_s", sw.elapsed(), "s"});
    it.require(verified, "BackupCluster::verifyAll after analysis");

    forensics::EvidenceScanner scanner(sched.cluster());
    sw.restart();
    scanner.scan();
    m.push_back({"forensics.scan_s", sw.elapsed(), "s"});
    sw.restart();
    forensics::analyzeCluster(scanner, {}, sched.groundTruth());
    m.push_back({"forensics.analyze_s", sw.elapsed(), "s"});

    const forensics::ScanPassCost &cost = fr.totalCost;
    m.push_back({"forensics.segments_verified",
                 static_cast<double>(cost.segmentsVerified), "count"});
    m.push_back({"forensics.bytes_verified",
                 static_cast<double>(cost.bytesVerified), "bytes"});
    m.push_back({"forensics.cache_hit_ratio",
                 ratio(static_cast<double>(cost.segmentsCached),
                       static_cast<double>(cost.segmentsCached +
                                           cost.segmentsVerified)),
                 "ratio"});

    // History fetch and recovery, re-run on every device the
    // analysis restored (the devices are already rolled back, so
    // this times the same calls on the same evidence).
    double history_s = 0.0;
    double recovery_s = 0.0;
    for (const forensics::RecoveryOutcome &r : fr.recovery) {
        const auto idx = static_cast<std::uint32_t>(r.device);
        sw.restart();
        core::DeviceHistory history(sched.device(idx), sched.cluster(),
                                    r.device);
        history_s += sw.elapsed();
        core::RecoveryEngine engine(history);
        sw.restart();
        const core::RecoveryReport rec =
            engine.recoverToLogSeq(r.recoverySeq);
        recovery_s += sw.elapsed();
        it.require(rec.ok(), "re-run recovery left versions unresolved");
    }
    m.push_back({"core.history_s", history_s, "s"});
    m.push_back({"core.recovery_s", recovery_s, "s"});

    // Kernels on a live shard's stored copies.
    for (remote::ShardId s = 0; s < sched.cluster().shardCount(); s++) {
        if (sched.cluster().shardAlive(s)) {
            replayKernels(sched.cluster().shardStore(s),
                          kKernelBudgetBytes, it, m);
            break;
        }
    }

    m.push_back({"core.offload.segments_sealed",
                 static_cast<double>(c.offload.segmentsSealed), "count"});
    m.push_back({"core.offload.bytes_raw",
                 static_cast<double>(c.offload.bytesRaw), "bytes"});
    m.push_back({"core.offload.bytes_sealed",
                 static_cast<double>(c.offload.bytesSealed), "bytes"});
    m.push_back({"core.offload.compression_ratio",
                 c.offload.compressionRatio(), "ratio"});
    m.push_back({"core.offload.parks",
                 static_cast<double>(c.offload.parks), "count"});
    m.push_back({"net.transport.bytes_sent",
                 static_cast<double>(c.transport.bytesSent), "bytes"});
    m.push_back({"net.transport.retransmits",
                 static_cast<double>(c.transport.retransmits), "count"});
    m.push_back({"remote.ingest.segments_accepted",
                 static_cast<double>(c.segmentsAccepted), "count"});
    m.push_back({"remote.ingest.segments_rejected",
                 static_cast<double>(c.segmentsRejected), "count"});
    m.push_back({"remote.copies_per_sealed_segment",
                 ratio(static_cast<double>(c.storedCopies),
                       static_cast<double>(c.offload.segmentsSealed)),
                 "ratio"});
    m.push_back({"remote.quorum_writes",
                 static_cast<double>(rep.replicationStats.quorumWrites),
                 "count"});
    m.push_back({"remote.repair.segments_copied",
                 static_cast<double>(rep.repairStats.segmentsCopied),
                 "count"});
    m.push_back({"remote.scrub.segments_verified",
                 static_cast<double>(rep.repairStats.scrubbedSegments),
                 "count"});
    m.push_back({"remote.scrub.corruptions_found",
                 static_cast<double>(rep.repairStats.scrubCorruptions),
                 "count"});
    m.push_back({"ftl.waf", c.ftl.waf(), "ratio"});
    m.push_back({"ftl.gc_erases", static_cast<double>(c.ftl.gcErases),
                 "count"});
    m.push_back({"ftl.gc_held_moves",
                 static_cast<double>(c.ftl.gcHeldMoves), "count"});
    m.push_back({"detect.alarms", static_cast<double>(rep.totalAlarms),
                 "count"});
    m.push_back({"obs.health_samples",
                 static_cast<double>(rep.health.samples), "count"});
    m.push_back({"core.seal_p99_us",
                 toUs(rep.sealLatency.percentileNs(99)), "us-bucket"});
    m.push_back({"remote.queue_wait_p99_us",
                 toUs(rep.queueWaitLatency.percentileNs(99)),
                 "us-bucket"});
    m.push_back({"remote.quorum_wait_p99_us",
                 toUs(rep.quorumWaitLatency.percentileNs(99)),
                 "us-bucket"});
}

Iteration
runFleet(std::uint64_t seed, bool traced, bool outbreak)
{
    const fleet::FleetConfig cfg = fleetConfig(seed, outbreak);
    Iteration it;

    Stopwatch sw;
    fleet::FleetScheduler sched(cfg);
    it.setupS = sw.elapsed();

    sw.restart();
    const fleet::FleetReport rep = sched.run();
    it.mainS = sw.elapsed();
    const FleetCounts c = collectCounts(sched, rep);

    sw.restart();
    const forensics::ForensicsReport fr = sched.runForensics();
    it.forensicsS = sw.elapsed();

    DigestBuilder digest;
    digest.add(rep.toJson());
    digest.add(fr.toJson());
    it.digest = digest.finish();

    it.writeBytes = c.ftl.hostWrites * c.pageSize;
    it.attempted = c.ftl.hostWrites + c.ftl.hostReads + c.ftl.hostTrims +
                   c.offload.segmentsSealed;
    it.failed = c.deviceFullErrors + c.attackWriteErrors +
                c.transport.segmentsRejected;

    it.sim.push_back({"sim_makespan_ms", toMs(rep.makespan), "ms"});
    it.sim.push_back({"remote_bytes_per_user_byte",
                      ratio(static_cast<double>(c.liveBytes),
                            static_cast<double>(it.writeBytes)),
                      "ratio"});
    if (outbreak) {
        it.sim.push_back({"sim_repair_converge_ms",
                          toMs(rep.repairConvergedAt - kCrashAt), "ms"});
        it.sim.push_back({"sim_restore_makespan_ms",
                          toMs(replicaAwareMakespan(fr)), "ms"});
    }

    // -- Correctness gates ----------------------------------------------
    it.require(it.failed == 0, "failed host commands or segments");
    it.require(rep.allChainsOk, "end-of-run chain verification");
    it.require(c.segmentsRejected == 0, "shard ingest rejected segments");
    it.require(fr.patientZeroMatch, "patient zero differs from truth");
    it.require(fr.infectionOrderMatch,
               "infection order differs from truth");
    it.require(fr.campaignClassMatch,
               "campaign class differs from truth");
    if (!outbreak) {
        it.require(c.storedCopies ==
                       cfg.replication * c.offload.segmentsSealed,
                   "stored copies != R x sealed segments");
        it.require(fr.recovery.empty(), "benign fleet was restored");
    } else {
        it.require(!fr.recovery.empty(), "no victim was recovered");
        for (const forensics::RecoveryOutcome &r : fr.recovery) {
            it.require(r.victimIntactAfter == 1.0 && r.unresolved == 0,
                       "victim not 100% intact after recovery");
        }
        it.require(rep.degradedAtEnd == 0,
                   "degraded replica sets at end");
        it.require(rep.quarantinedAtEnd == 0,
                   "quarantined copies at end");
        it.require(rep.repairStats.scrubCorruptions > 0,
                   "injected bit-rot not caught by a scrub");
        it.require(rep.health.alertsOpen == 0,
                   "health alert still open at end");
    }

    if (traced)
        traceFleet(sched, rep, fr, c, it);
    return it;
}

double
setupFleet(std::uint64_t seed, bool outbreak)
{
    const fleet::FleetConfig cfg = fleetConfig(seed, outbreak);
    Stopwatch sw;
    const fleet::FleetScheduler sched(cfg);
    return sw.elapsed();
}

} // namespace

double
setupFleetIngest(std::uint64_t seed)
{
    return setupFleet(seed, false);
}

double
setupOutbreakForensics(std::uint64_t seed)
{
    return setupFleet(seed, true);
}

Iteration
runFleetIngest(std::uint64_t seed, bool traced, bool)
{
    return runFleet(seed, traced, false);
}

Iteration
runOutbreakForensics(std::uint64_t seed, bool traced, bool)
{
    return runFleet(seed, traced, true);
}

} // namespace rssd::perfbench
