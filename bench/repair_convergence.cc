/**
 * @file
 * Anti-entropy convergence sweep: how fast the fleet returns to full
 * replication health after a mid-outbreak shard crash, as the
 * scrubber's per-tick throughput grows.
 *
 * Convergence (repair-converged tick minus fleet makespan) is gated
 * by the final full integrity pass: drain requires one clean scrub
 * from scratch, so it scales inversely with scrubSegmentsPerStep.
 * The step=off row is the copy-bound floor — the repair queue alone,
 * no scrubbing. Bytes copied stay constant across the sweep: scrub
 * throughput shapes *when* the engine settles, never *what* is
 * re-replicated.
 *
 *   build/bench/bench_repair_convergence
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "fleet/scheduler.hh"

using namespace rssd;

int
main()
{
    bench::banner(
        "Repair convergence vs scrub throughput",
        "16 devices -> 4 shards (R=3), outbreak, one shard crashes "
        "mid-campaign; the RepairEngine re-replicates under its "
        "bandwidth budget while the scrubber integrity-checks every "
        "stored copy before the fleet may settle.");

    // 0 = scrub disabled: the copy-bound floor.
    const std::vector<std::uint32_t> steps = bench::smoke()
        ? std::vector<std::uint32_t>{0, 4}
        : std::vector<std::uint32_t>{0, 1, 2, 4, 8, 16};
    const std::uint64_t ops = bench::smokeScale(400);

    std::printf("%10s %10s %12s %12s %12s %10s\n", "scrub/step",
                "enqueued", "copied MiB", "scrubbed", "converge ms",
                "degraded");

    for (const std::uint32_t step : steps) {
        fleet::FleetConfig cfg;
        cfg.devices = 16;
        cfg.shards = 4;
        cfg.replication = 3;
        cfg.seed = 7;
        cfg.opsPerDevice = ops;
        cfg.campaign.scenario = fleet::Scenario::Outbreak;
        cfg.campaign.victimPages = 16;
        cfg.membership.push_back(
            {100 * units::MS, fleet::MembershipKind::CrashShard, 1});
        cfg.repair.enabled = true;
        cfg.repair.scrubInterval =
            step == 0 ? 0 : 10 * units::MS;
        cfg.repair.scrubSegmentsPerStep = step == 0 ? 4 : step;

        fleet::FleetScheduler sched(cfg);
        const fleet::FleetReport rep = sched.run();
        const remote::RepairStats &rs = rep.repairStats;
        const Tick converge = rep.repairConvergedAt > rep.makespan
                                  ? rep.repairConvergedAt -
                                        rep.makespan
                                  : 0;

        char label[16];
        std::snprintf(label, sizeof(label), "%s",
                      step == 0 ? "off"
                                : std::to_string(step).c_str());
        std::printf("%10s %10llu %12.2f %12llu %12.2f %10llu\n",
                    label,
                    static_cast<unsigned long long>(rs.enqueues),
                    units::toMiB(rs.bytesCopied),
                    static_cast<unsigned long long>(
                        rs.scrubbedSegments),
                    static_cast<double>(converge) / units::MS,
                    static_cast<unsigned long long>(
                        rep.degradedAtEnd));

        if (rep.degradedAtEnd != 0 || !rep.allChainsOk) {
            std::printf("FAIL: run did not converge healthy\n");
            return 1;
        }
    }

    std::printf("\nConvergence time falls roughly inversely with "
                "scrub throughput toward the copy-bound floor "
                "(step=off); copied bytes stay constant across the "
                "sweep.\n");
    return 0;
}
