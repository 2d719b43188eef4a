/**
 * @file
 * rssd_forensics: run a fleet campaign, then run the cluster-side
 * forensics pipeline where the evidence lives — verify every stream's
 * chain, identify the compromised devices and patient zero,
 * reconstruct the spread, classify the campaign, plan and execute
 * recovery — and emit the deterministic ForensicsReport.
 *
 *   build/examples/rssd_forensics --devices 16 --shards 4 \
 *       --scenario outbreak --seed 7 [--ops 400] [--json report.json] \
 *       [--check]
 *
 * --check makes the exit code assert the forensics conclusions
 * against the campaign ground truth (patient zero, infection order,
 * campaign class) — the CI smoke job runs with it.
 *
 * Observability knobs:
 *   --trace-out PATH    Chrome trace_event JSON of the campaign run
 *                       (chrome://tracing / Perfetto; sim-tick
 *                       timestamps, 1 trace-us = 1 sim-ns)
 *   --metrics-out PATH  metrics snapshot (fleet instruments plus the
 *                       evidence scanner's scan-cost counters under
 *                       "forensics."), sampled after the analysis
 *
 * Health & SLO knobs (see rssd_fleet for details):
 *   --health-interval-ms N  periodic time-series sampling + SLO rule
 *                           evaluation on the DES spine (0 disables;
 *                           defaults to 1 under --health-out or
 *                           --health-check)
 *   --health-out PATH       write the time-series telemetry JSONL
 *   --health-check          exit non-zero if any SLO alert is still
 *                           open when the campaign ends
 *
 * Determinism: the same flags (and RSSD_SMOKE setting) produce a
 * byte-identical report; CI byte-compares two runs. The trace and
 * metrics files are byte-identical too.
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
    "rssd_forensics [--devices N] [--shards M] [--scenario "
    "benign|outbreak|staggered|shard-flood] [--seed S] [--ops N] "
    "[--json PATH] [--check] [--trace-out PATH] "
    "[--metrics-out PATH] [--health-interval-ms N] "
    "[--health-out PATH] [--health-check]";

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
    const std::string json_path = args.str("--json", "");
    const bool check = args.flag("--check");
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
    cfg.health.interval = health_interval_ms * units::MS;

    if (smoke) {
        cfg.opsPerDevice = std::max<std::uint64_t>(
            1, cfg.opsPerDevice / 10);
        cfg.campaign.floodPages = std::max<std::uint64_t>(
            1, cfg.campaign.floodPages / 10);
        // Shrink the flood *span* with the flood volume: the attack
        // signature (junk overwriting junk) needs the flood to wrap
        // its span, and a 10x-smaller flood over the full span would
        // never overwrite — smoke must scale the shape, not break it.
        cfg.campaign.floodSpanFraction /= 10.0;
    }

    std::printf("rssd_forensics: campaign \"%s\" over %u devices -> "
                "%u shards, seed %llu%s\n",
                fleet::scenarioName(cfg.campaign.scenario),
                cfg.devices, cfg.shards,
                static_cast<unsigned long long>(cfg.seed),
                smoke ? " [RSSD_SMOKE]" : "");

    fleet::FleetScheduler sched(cfg);

    obs::TraceSink trace;
    if (!trace_path.empty())
        sched.attachTrace(&trace);
    obs::MetricsRegistry registry;
    if (!metrics_path.empty())
        sched.registerMetrics(registry);

    const fleet::FleetReport fleet_report = sched.run();
    const forensics::ForensicsReport report = sched.runForensics();

    // The scanner exists only after runForensics(); registering here
    // still precedes the snapshot (closures sample at write time).
    if (!metrics_path.empty() && sched.evidenceScanner() != nullptr) {
        sched.evidenceScanner()->registerMetrics(registry,
                                                 "forensics.");
    }

    std::printf("\nevidence: %llu segments (%s) across %llu shards; "
                "scan verified %llu segments / %llu entries (%s)\n",
                static_cast<unsigned long long>(report.totalSegments),
                formatBytes(report.totalBytesStored).c_str(),
                static_cast<unsigned long long>(report.shards),
                static_cast<unsigned long long>(
                    report.lastPass.segmentsVerified),
                static_cast<unsigned long long>(
                    report.lastPass.entriesReplayed),
                formatBytes(report.lastPass.bytesVerified).c_str());

    std::printf("\n%-7s %-6s %-6s %9s %12s %11s %6s\n", "device",
                "shard", "chain", "detected", "implicated",
                "recoverySeq", "flood");
    for (const forensics::DeviceFinding &f :
         report.correlation.findings) {
        std::printf("%-7llu %-6u %-6s %9s %12llu %11llu %6s\n",
                    static_cast<unsigned long long>(f.device),
                    f.shard, f.chainIntact ? "ok" : "BROKEN",
                    f.finding.detected ? "yes" : "no",
                    static_cast<unsigned long long>(
                        f.finding.implicatedOps),
                    static_cast<unsigned long long>(
                        f.finding.recommendedRecoverySeq),
                    f.floodSuspect ? "yes" : "no");
    }

    const forensics::Correlation &c = report.correlation;
    std::printf("\ncampaign classified: %s (truth: %s)\n",
                forensics::campaignClassName(c.campaignClass),
                report.truth.scenario.c_str());
    if (c.anyDetected) {
        std::printf("patient zero: device %llu (truth: %llu) — %s\n",
                    static_cast<unsigned long long>(c.patientZero),
                    static_cast<unsigned long long>(
                        report.truth.patientZero),
                    report.patientZeroMatch ? "match" : "MISMATCH");
        std::printf("infection order:");
        for (const forensics::DeviceId d : c.infectionOrder)
            std::printf(" %llu", static_cast<unsigned long long>(d));
        std::printf(" — %s\n", report.infectionOrderMatch
                                   ? "match"
                                   : "MISMATCH");
    }

    for (const forensics::RestorePlan &p : report.plans) {
        std::printf("plan %-26s makespan %-10s mean completion %s\n",
                    forensics::planPolicyName(p.policy),
                    formatTime(p.makespan).c_str(),
                    formatTime(p.meanCompletion).c_str());
    }

    std::uint64_t restored = 0;
    double worst_after = 1.0;
    for (const forensics::RecoveryOutcome &r : report.recovery) {
        restored += r.pagesRestored;
        worst_after = std::min(worst_after, r.victimIntactAfter);
    }
    std::printf("recovery executed: %zu devices, %llu pages "
                "restored, worst victim intact after: %.0f%%\n",
                report.recovery.size(),
                static_cast<unsigned long long>(restored),
                worst_after * 100);

    bool health_ok = true;
    if (fleet_report.health.enabled) {
        std::printf("health: %llu samples, %llu alerts raised "
                    "(%llu open), worst severity %s\n",
                    static_cast<unsigned long long>(
                        fleet_report.health.samples),
                    static_cast<unsigned long long>(
                        fleet_report.health.alertsRaised),
                    static_cast<unsigned long long>(
                        fleet_report.health.alertsOpen),
                    fleet_report.health.worstSeverity.c_str());
    }
    if (health_check) {
        if (fleet_report.health.alertsOpen != 0) {
            std::printf("health-check: FAIL (%llu alerts still open "
                        "at end of run)\n",
                        static_cast<unsigned long long>(
                            fleet_report.health.alertsOpen));
            health_ok = false;
        } else {
            std::printf("health-check: OK (%llu alerts raised, all "
                        "cleared)\n",
                        static_cast<unsigned long long>(
                            fleet_report.health.alertsRaised));
        }
    }

    if (!json_path.empty())
        writeTextFile(json_path, report.toJson(), "ForensicsReport");
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

    if (check) {
        const bool ok = report.patientZeroMatch &&
                        report.infectionOrderMatch &&
                        report.campaignClassMatch;
        if (!ok)
            std::printf("--check FAILED: forensics conclusions "
                        "disagree with campaign ground truth\n");
        return ok && health_ok ? 0 : 1;
    }
    return health_ok ? 0 : 1;
}
