/**
 * @file
 * rssd_fleet: simulate a fleet of RSSDs against a sharded backup
 * cluster under an attack campaign, and emit the FleetReport.
 *
 *   build/examples/rssd_fleet --devices 16 --shards 4 \
 *       --scenario outbreak --seed 7 [--ops 400] [--json report.json]
 *
 * Retention lifecycle knobs (enable the shard stores' GC):
 *   --shard-capacity-mb N   per-shard budget in MiB (watermark GC)
 *   --retention-ms N        age horizon in milliseconds
 *   --retention-check       run post-campaign forensics + recovery
 *                           and exit non-zero unless every detected
 *                           encryptor's evidence chain verified and
 *                           its victim data recovered to 100% —
 *                           i.e. suspicion holds kept the flood
 *                           from evicting victims' evidence.
 *
 * Replication & membership knobs:
 *   --replication R         replica-set size per stream (quorum
 *                           ingest at R/2+1 acks; default 1)
 *   --crash-shard S         fail-stop shard S mid-run (no migration)
 *   --crash-at-ms T         crash time (default 60, mid-outbreak)
 *   --join-at-ms T          a fresh shard joins + rebalances at T
 *   --leave-shard S         shard S leaves gracefully (migrate off)
 *   --leave-at-ms T         departure time (default 60)
 *   --replication-check     run post-campaign forensics + recovery
 *                           and exit non-zero unless the campaign's
 *                           ground truth was reconstructed and every
 *                           victim recovered 100% intact from a
 *                           live (surviving) replica.
 *
 * Anti-entropy repair & scrubbing knobs:
 *   --repair                enable the RepairEngine: degraded replica
 *                           sets are re-replicated in the background
 *                           and run to convergence after the drain
 *   --repair-bw-mb N        per-target-shard repair bandwidth budget
 *                           in MiB/s (default 200)
 *   --repair-burst-kb N     token-bucket burst cap in KiB (0 =
 *                           default of max(bandwidth, 8 MiB); small
 *                           bursts keep a throttled repair's debt
 *                           visible to the health sampler)
 *   --scrub-ms N            integrity-scrub cadence in milliseconds
 *                           (0 disables scrubbing; default 10 under
 *                           --repair)
 *   --bitrot-at-ms T        inject silent bit-rot at T into one
 *                           stored copy of --bitrot-device's stream
 *   --bitrot-device D       the rotted device stream (default 0)
 *   --repair-check          exit non-zero unless the run converged to
 *                           zero degraded replica sets and zero
 *                           quarantined copies, every injected rot
 *                           was caught by a scrub, and forensics +
 *                           recovery lost no evidence (ground truth
 *                           reconstructed, victims 100% intact).
 *
 * Observability knobs:
 *   --trace-out PATH        write a Chrome trace_event JSON file
 *                           spanning the capsule lifecycle (seal ->
 *                           queue -> quorum -> repair) — load it in
 *                           chrome://tracing or Perfetto. Timestamps
 *                           are sim ticks (1 trace-us = 1 sim-ns).
 *   --metrics-out PATH      write a metrics snapshot (counters,
 *                           gauges, latency histograms) sampled
 *                           after the run, as one JSON document.
 *
 * Health & SLO knobs:
 *   --health-interval-ms N  sample every metric every N ms of sim
 *                           time on the DES spine and evaluate the
 *                           SLO rules at each sample (0 disables;
 *                           defaults to 1 when --health-out or
 *                           --health-check is given)
 *   --health-out PATH       write the time-series telemetry as
 *                           JSONL (one row per sample: tick,
 *                           metrics in registration order, windowed
 *                           per-second rates in integer arithmetic)
 *   --health-check          exit non-zero if any alert is still
 *                           open at end of run — turns any campaign
 *                           into an SLO regression test
 *
 * Determinism: the same flags (and RSSD_SMOKE setting) produce a
 * byte-identical report, including the JSON file — diff two runs to
 * convince yourself; the trace and metrics files are byte-identical
 * too, and attaching them never changes the report. Scenarios:
 * benign, outbreak, staggered, shard-flood (see
 * src/fleet/campaign.hh).
 *
 * RSSD_SMOKE=1 (any value but empty or 0; bench/smoke.hh) divides
 * the per-device benign op count and the shard-flood volume by 10 so
 * the ctest/CI smoke entry finishes in seconds.
 */

#include <cstdio>

#include "bench/smoke.hh"
#include "examples/argparse.hh"
#include "fleet/scheduler.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/stats.hh"

using namespace rssd;

namespace {

const char *kUsage =
    "rssd_fleet [--devices N] [--shards M] [--scenario "
    "benign|outbreak|staggered|shard-flood] [--seed S] [--ops N] "
    "[--shard-capacity-mb N] [--retention-ms N] [--flood-pages N] "
    "[--retention-check] [--replication R] [--crash-shard S] "
    "[--crash-at-ms T] [--join-at-ms T] [--leave-shard S] "
    "[--leave-at-ms T] [--replication-check] [--repair] "
    "[--repair-bw-mb N] [--repair-burst-kb N] [--scrub-ms N] "
    "[--bitrot-at-ms T] "
    "[--bitrot-device D] [--repair-check] [--json PATH] "
    "[--trace-out PATH] [--metrics-out PATH] "
    "[--health-interval-ms N] [--health-out PATH] [--health-check]";

constexpr std::uint64_t kNoFlag = ~0ull;

void
writeTextFile(const std::string &path, const std::string &text,
              const char *what)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("cannot open " + path);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("%s written to %s\n", what, path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    examples::ArgParser args(argc, argv);
    const bool smoke = bench::smoke();

    fleet::FleetConfig cfg;
    cfg.devices =
        static_cast<std::uint32_t>(args.u64("--devices", 16));
    cfg.shards = static_cast<std::uint32_t>(args.u64("--shards", 4));
    cfg.seed = args.u64("--seed", 7);
    cfg.opsPerDevice = args.u64("--ops", 400);
    cfg.campaign.scenario =
        fleet::scenarioByName(args.str("--scenario", "outbreak"));
    const std::uint64_t capacity_mb =
        args.u64("--shard-capacity-mb", 0);
    const std::uint64_t retention_ms = args.u64("--retention-ms", 0);
    cfg.campaign.floodPages =
        args.u64("--flood-pages", cfg.campaign.floodPages);
    const bool retention_check = args.flag("--retention-check");
    cfg.replication =
        static_cast<std::uint32_t>(args.u64("--replication", 1));
    const std::uint64_t crash_shard =
        args.u64("--crash-shard", kNoFlag);
    const std::uint64_t crash_at_ms = args.u64("--crash-at-ms", 60);
    const std::uint64_t join_at_ms =
        args.u64("--join-at-ms", kNoFlag);
    const std::uint64_t leave_shard =
        args.u64("--leave-shard", kNoFlag);
    const std::uint64_t leave_at_ms = args.u64("--leave-at-ms", 60);
    const bool replication_check = args.flag("--replication-check");
    const bool repair = args.flag("--repair");
    const std::uint64_t repair_bw_mb = args.u64("--repair-bw-mb", 200);
    const std::uint64_t repair_burst_kb =
        args.u64("--repair-burst-kb", 0);
    const std::uint64_t scrub_ms =
        args.u64("--scrub-ms", repair ? 10 : 0);
    const std::uint64_t bitrot_at_ms =
        args.u64("--bitrot-at-ms", kNoFlag);
    const std::uint64_t bitrot_device = args.u64("--bitrot-device", 0);
    const bool repair_check = args.flag("--repair-check");
    const std::string json_path = args.str("--json", "");
    const std::string trace_path = args.str("--trace-out", "");
    const std::string metrics_path = args.str("--metrics-out", "");
    std::uint64_t health_interval_ms =
        args.u64("--health-interval-ms", 0);
    const std::string health_path = args.str("--health-out", "");
    const bool health_check = args.flag("--health-check");
    args.finish(kUsage);

    if (health_interval_ms == 0 &&
        (!health_path.empty() || health_check))
        health_interval_ms = 1;

    if (repair) {
        cfg.repair.enabled = true;
        cfg.repair.bandwidthBytesPerSec = repair_bw_mb * units::MiB;
        cfg.repair.burstBytes = repair_burst_kb * 1024;
        cfg.repair.scrubInterval = scrub_ms * units::MS;
    }
    cfg.health.interval = health_interval_ms * units::MS;
    if (bitrot_at_ms != kNoFlag) {
        // Rot the second live copy-holder (mod live holders), a few
        // segments in — a non-primary copy so foreground ingest and
        // tail votes stay clean and only the scrub can notice.
        cfg.bitRot.push_back(
            {bitrot_at_ms * units::MS,
             static_cast<remote::DeviceId>(bitrot_device), 1, 2});
    }

    if (crash_shard != kNoFlag) {
        cfg.membership.push_back(
            {crash_at_ms * units::MS, fleet::MembershipKind::CrashShard,
             static_cast<remote::ShardId>(crash_shard)});
    }
    if (join_at_ms != kNoFlag) {
        cfg.membership.push_back({join_at_ms * units::MS,
                                  fleet::MembershipKind::JoinShard, 0});
    }
    if (leave_shard != kNoFlag) {
        cfg.membership.push_back(
            {leave_at_ms * units::MS, fleet::MembershipKind::LeaveShard,
             static_cast<remote::ShardId>(leave_shard)});
    }

    if (capacity_mb > 0)
        cfg.cluster.shard.capacityBytes = capacity_mb * units::MiB;
    if (retention_ms > 0)
        cfg.cluster.shard.retention.retentionWindow =
            retention_ms * units::MS;
    if (capacity_mb > 0 || retention_ms > 0)
        cfg.cluster.shard.retention.gcEnabled = true;

    if (smoke) {
        cfg.opsPerDevice = std::max<std::uint64_t>(
            1, cfg.opsPerDevice / 10);
        cfg.campaign.floodPages = std::max<std::uint64_t>(
            1, cfg.campaign.floodPages / 10);
        // A tenth of the flood over the full span would barely
        // overwrite — scale the shape, not break it (flood pressure
        // comes from overwritten versions entering retention).
        cfg.campaign.floodSpanFraction /= 10.0;
    }

    std::printf("rssd_fleet: %u devices -> %u shards (R=%u), "
                "scenario \"%s\", seed %llu%s\n",
                cfg.devices, cfg.shards, cfg.replication,
                fleet::scenarioName(cfg.campaign.scenario),
                static_cast<unsigned long long>(cfg.seed),
                smoke ? " [RSSD_SMOKE]" : "");

    fleet::FleetScheduler sched(cfg);

    obs::TraceSink trace;
    if (!trace_path.empty())
        sched.attachTrace(&trace);
    obs::MetricsRegistry registry;
    if (!metrics_path.empty())
        sched.registerMetrics(registry);

    const fleet::FleetReport report = sched.run();

    std::printf("\n%-7s %-10s %-6s %9s %9s %7s %9s\n", "device",
                "role", "shard", "encrypted", "junk", "alarms",
                "segments");
    for (const fleet::DeviceReport &d : report.deviceReports) {
        std::printf("%-7u %-10s %-6u %9llu %9llu %7llu %9llu\n",
                    d.device, d.role.c_str(), d.shard,
                    static_cast<unsigned long long>(
                        d.attack.pagesEncrypted),
                    static_cast<unsigned long long>(
                        d.attack.junkPagesWritten),
                    static_cast<unsigned long long>(d.alarms),
                    static_cast<unsigned long long>(
                        d.offload.segmentsAccepted));
    }

    std::printf("\n%-6s %-9s %-8s %8s %8s %10s %12s %12s\n", "shard",
                "status", "devices", "segments", "batches", "stalls",
                "backlog-p99", "occupancy");
    for (const fleet::ShardReport &s : report.shardReports) {
        std::printf("%-6u %-9s %-8llu %8llu %8llu %10llu %12s %12s\n",
                    s.shard, s.status.c_str(),
                    static_cast<unsigned long long>(s.devices),
                    static_cast<unsigned long long>(
                        s.segmentsAccepted),
                    static_cast<unsigned long long>(s.batches),
                    static_cast<unsigned long long>(
                        s.backpressureStalls),
                    formatTime(s.backlogP99).c_str(),
                    formatBytes(s.usedBytes).c_str());
    }

    std::printf("\nfleet totals: %llu pages encrypted, %llu junk "
                "pages, %llu alarms, %llu segments (%s), makespan "
                "%s, chains %s\n",
                static_cast<unsigned long long>(
                    report.totalPagesEncrypted),
                static_cast<unsigned long long>(report.totalJunkPages),
                static_cast<unsigned long long>(report.totalAlarms),
                static_cast<unsigned long long>(report.totalSegments),
                formatBytes(report.totalBytesStored).c_str(),
                formatTime(report.makespan).c_str(),
                report.allChainsOk ? "verified" : "BROKEN");
    if (report.totalSegmentsPruned > 0) {
        std::printf("retention GC: %llu segments pruned (%s freed), "
                    "streams re-anchored and verified\n",
                    static_cast<unsigned long long>(
                        report.totalSegmentsPruned),
                    formatBytes(report.totalBytesPruned).c_str());
    }
    if (cfg.replication > 1 || !cfg.membership.empty()) {
        const remote::ReplicationStats &rs = report.replicationStats;
        std::printf("replication: R=%u, %u/%u shards live, %llu "
                    "quorum writes (%llu partial, %llu stalls), "
                    "%llu streams / %llu segments migrated (%s)\n",
                    report.replication, report.liveShards,
                    report.shards,
                    static_cast<unsigned long long>(rs.quorumWrites),
                    static_cast<unsigned long long>(rs.partialWrites),
                    static_cast<unsigned long long>(rs.quorumStalls),
                    static_cast<unsigned long long>(
                        rs.streamsMigrated),
                    static_cast<unsigned long long>(
                        rs.segmentsMigrated),
                    formatBytes(rs.bytesMigrated).c_str());
    }
    if (report.repairEnabled) {
        const remote::RepairStats &ps = report.repairStats;
        std::printf("repair: %llu streams repaired (%llu enqueued), "
                    "%llu segments (%s) re-replicated, %llu "
                    "re-anchors, converged at %s\n",
                    static_cast<unsigned long long>(
                        ps.streamsRepaired),
                    static_cast<unsigned long long>(ps.enqueues),
                    static_cast<unsigned long long>(
                        ps.segmentsCopied),
                    formatBytes(ps.bytesCopied).c_str(),
                    static_cast<unsigned long long>(ps.reanchors),
                    formatTime(report.repairConvergedAt).c_str());
        std::printf("scrub: %llu segments verified over %llu passes, "
                    "%llu corruptions quarantined and healed; "
                    "degraded at end: %llu, quarantined at end: "
                    "%llu\n",
                    static_cast<unsigned long long>(
                        ps.scrubbedSegments),
                    static_cast<unsigned long long>(ps.scrubPasses),
                    static_cast<unsigned long long>(
                        ps.scrubCorruptions),
                    static_cast<unsigned long long>(
                        report.degradedAtEnd),
                    static_cast<unsigned long long>(
                        report.quarantinedAtEnd));
    }

    if (report.health.enabled) {
        std::printf("health: %llu samples @ %s, %llu alerts raised "
                    "(%llu open), worst severity %s\n",
                    static_cast<unsigned long long>(
                        report.health.samples),
                    formatTime(report.health.interval).c_str(),
                    static_cast<unsigned long long>(
                        report.health.alertsRaised),
                    static_cast<unsigned long long>(
                        report.health.alertsOpen),
                    report.health.worstSeverity.c_str());
        for (const fleet::HealthAlertReport &a :
             report.health.alerts) {
            const std::string end = a.open
                ? "still OPEN"
                : "cleared @ " + formatTime(a.clearedAt);
            std::printf("  alert %s [%s] raised @ %s, %s "
                        "(observed %llu)\n",
                        a.rule.c_str(), a.severity.c_str(),
                        formatTime(a.raisedAt).c_str(), end.c_str(),
                        static_cast<unsigned long long>(a.observed));
        }
    }

    bool check_ok = true;
    if (health_check) {
        // The SLO acceptance gate: transient alerts that raised and
        // cleared are reported but pass; an alert still open at end
        // of run means the fleet finished unhealthy.
        if (report.health.alertsOpen != 0) {
            std::printf("health-check: FAIL (%llu alerts still open "
                        "at end of run)\n",
                        static_cast<unsigned long long>(
                            report.health.alertsOpen));
            check_ok = false;
        } else {
            std::printf("health-check: OK (%llu alerts raised, all "
                        "cleared)\n",
                        static_cast<unsigned long long>(
                            report.health.alertsRaised));
        }
    }

    if (retention_check) {
        // The capacity-pressure acceptance gate: after a campaign
        // against GC-enabled shards, cluster-side forensics must
        // still verify every stream (pruned ones via their signed
        // re-anchor records), and every detected encryptor's victim
        // data must recover to 100% — the suspicion holds kept the
        // flood from evicting the evidence recovery needs.
        const forensics::ForensicsReport fr = sched.runForensics();
        if (!sched.cluster().verifyAll()) {
            std::printf("retention-check: FAIL (chain verification "
                        "after GC)\n");
            check_ok = false;
        }
        std::uint64_t encryptors_checked = 0;
        for (const forensics::RecoveryOutcome &r : fr.recovery) {
            const auto idx = static_cast<std::uint32_t>(r.device);
            if (report.deviceReports[idx].role != "encryptor")
                continue;
            encryptors_checked++;
            if (r.victimIntactAfter != 1.0 || r.unresolved != 0 ||
                r.beforePrunedHorizon) {
                std::printf("retention-check: FAIL (device %llu "
                            "recovered %.3f intact, %llu "
                            "unresolved)\n",
                            static_cast<unsigned long long>(r.device),
                            r.victimIntactAfter,
                            static_cast<unsigned long long>(
                                r.unresolved));
                check_ok = false;
            }
        }
        // Only demand recovered encryptors when the campaign had
        // any (a shard-flood on a 1-shard fleet makes every device
        // a flooder — chain verification is then the whole check).
        bool any_encryptor = false;
        for (const fleet::DeviceReport &d : report.deviceReports)
            any_encryptor = any_encryptor || d.role == "encryptor";
        if (any_encryptor && encryptors_checked == 0) {
            std::printf("retention-check: FAIL (no encryptor was "
                        "detected and recovered)\n");
            check_ok = false;
        }
        if (check_ok) {
            std::printf("retention-check: OK (%llu encryptors "
                        "recovered 100%% intact, %llu segments "
                        "pruned)\n",
                        static_cast<unsigned long long>(
                            encryptors_checked),
                        static_cast<unsigned long long>(
                            report.totalSegmentsPruned));
        }
    }

    if (replication_check) {
        // The durability acceptance gate: after a membership fault
        // (typically --crash-shard mid-outbreak), forensics over the
        // surviving replicas must still reconstruct the campaign's
        // ground truth, and every detected victim must restore to
        // 100% intact with its history read from a live replica.
        const forensics::ForensicsReport fr = sched.runForensics();
        if (!fr.campaignClassMatch || !fr.patientZeroMatch ||
            !fr.infectionOrderMatch) {
            std::printf("replication-check: FAIL (ground truth not "
                        "reconstructed from surviving replicas)\n");
            check_ok = false;
        }
        std::uint64_t recovered = 0;
        for (const forensics::RecoveryOutcome &r : fr.recovery) {
            recovered++;
            const bool live_source =
                r.restoredFromShard != remote::kNoShard &&
                sched.cluster().shardAlive(r.restoredFromShard);
            if (r.victimIntactAfter != 1.0 || r.unresolved != 0 ||
                !live_source) {
                std::printf(
                    "replication-check: FAIL (device %llu recovered "
                    "%.3f intact, %llu unresolved, source shard "
                    "%u)\n",
                    static_cast<unsigned long long>(r.device),
                    r.victimIntactAfter,
                    static_cast<unsigned long long>(r.unresolved),
                    r.restoredFromShard);
                check_ok = false;
            }
        }
        if (recovered == 0 &&
            cfg.campaign.scenario != fleet::Scenario::Benign) {
            std::printf("replication-check: FAIL (no device was "
                        "detected and recovered)\n");
            check_ok = false;
        }
        if (check_ok) {
            std::printf("replication-check: OK (%llu devices, "
                        "replica-sourced recovery 100%% intact, "
                        "%u/%u shards live)\n",
                        static_cast<unsigned long long>(recovered),
                        report.liveShards, report.shards);
        }
    }

    if (repair_check) {
        // The self-healing acceptance gate: whatever faults the run
        // scripted (crashes, bit-rot), anti-entropy must have
        // converged — every replica set back to full strength, no
        // copy left quarantined — and the healed cluster must still
        // support a full-fidelity investigation.
        if (!repair) {
            std::printf("repair-check: FAIL (--repair not enabled)\n");
            check_ok = false;
        }
        if (report.degradedAtEnd != 0 ||
            report.quarantinedAtEnd != 0) {
            std::printf("repair-check: FAIL (%llu degraded replica "
                        "sets, %llu quarantined copies at end)\n",
                        static_cast<unsigned long long>(
                            report.degradedAtEnd),
                        static_cast<unsigned long long>(
                            report.quarantinedAtEnd));
            check_ok = false;
        }
        if (bitrot_at_ms != kNoFlag &&
            report.repairStats.scrubCorruptions == 0) {
            std::printf("repair-check: FAIL (injected bit-rot never "
                        "caught by a scrub)\n");
            check_ok = false;
        }
        const forensics::ForensicsReport fr = sched.runForensics();
        if (!sched.cluster().verifyAll()) {
            std::printf("repair-check: FAIL (chain verification "
                        "after repair)\n");
            check_ok = false;
        }
        if (!fr.campaignClassMatch || !fr.patientZeroMatch ||
            !fr.infectionOrderMatch) {
            std::printf("repair-check: FAIL (ground truth not "
                        "reconstructed from the healed cluster)\n");
            check_ok = false;
        }
        std::uint64_t recovered = 0;
        for (const forensics::RecoveryOutcome &r : fr.recovery) {
            recovered++;
            if (r.victimIntactAfter != 1.0 || r.unresolved != 0) {
                std::printf("repair-check: FAIL (device %llu "
                            "recovered %.3f intact, %llu "
                            "unresolved)\n",
                            static_cast<unsigned long long>(r.device),
                            r.victimIntactAfter,
                            static_cast<unsigned long long>(
                                r.unresolved));
                check_ok = false;
            }
        }
        if (recovered == 0 &&
            cfg.campaign.scenario != fleet::Scenario::Benign) {
            std::printf("repair-check: FAIL (no device was detected "
                        "and recovered)\n");
            check_ok = false;
        }
        if (check_ok) {
            std::printf("repair-check: OK (%llu streams repaired, "
                        "%llu corruptions healed, %llu devices "
                        "recovered 100%% intact, 0 degraded / 0 "
                        "quarantined)\n",
                        static_cast<unsigned long long>(
                            report.repairStats.streamsRepaired),
                        static_cast<unsigned long long>(
                            report.repairStats.scrubCorruptions),
                        static_cast<unsigned long long>(recovered));
        }
    }

    if (!json_path.empty())
        writeTextFile(json_path, report.toJson(), "FleetReport");
    if (!trace_path.empty())
        writeTextFile(trace_path, trace.toChromeJson(), "trace");
    if (!metrics_path.empty()) {
        writeTextFile(metrics_path, registry.snapshotJson(),
                      "metrics");
    }
    if (!health_path.empty()) {
        writeTextFile(health_path, sched.healthTimeSeriesJsonl(),
                      "health time series");
    }
    return report.allChainsOk && check_ok ? 0 : 1;
}
