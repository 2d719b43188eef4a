/**
 * @file
 * Fleet scale sweep: aggregate offload throughput as the device
 * count grows from 1 to 64 against a fixed 4-shard backup cluster.
 *
 * What to look for: aggregate sealed-and-acknowledged offload MiB/s
 * should rise with the device count — devices own their clocks,
 * links and RNG streams, and shards serialize only their own ingest
 * queues, so there is no fleet-global lock to collapse against. The
 * per-shard backlog percentiles show where ingest pressure actually
 * lands as the fleet outnumbers the shards.
 *
 *   build/bench/bench_fleet_scale
 */

#include <cstdio>
#include <vector>

#include "bench/bench_common.hh"
#include "fleet/scheduler.hh"

using namespace rssd;

int
main()
{
    bench::banner("Fleet scale: 1 -> 64 devices, 4 shards",
                  "Aggregate offload throughput and shard backlog as "
                  "the fleet grows (benign write-heavy traffic).");

    const std::vector<std::uint32_t> device_counts = bench::smoke()
        ? std::vector<std::uint32_t>{1, 8}
        : std::vector<std::uint32_t>{1, 2, 4, 8, 16, 32, 64};
    const std::uint64_t ops = bench::smokeScale(600);

    std::printf("%8s %10s %14s %14s %12s %10s\n", "devices",
                "segments", "offload MiB", "agg MiB/s", "p99 backlog",
                "stalls");

    for (const std::uint32_t devices : device_counts) {
        fleet::FleetConfig cfg;
        cfg.devices = devices;
        cfg.shards = 4;
        cfg.seed = 1234;
        cfg.opsPerDevice = ops;
        cfg.campaign.scenario = fleet::Scenario::Benign;

        fleet::FleetScheduler sched(cfg);
        const fleet::FleetReport rep = sched.run();

        std::uint64_t sealed_bytes = 0;
        for (const fleet::DeviceReport &d : rep.deviceReports)
            sealed_bytes += d.offload.bytesSealed;

        Tick p99 = 0;
        std::uint64_t stalls = 0;
        for (const fleet::ShardReport &s : rep.shardReports) {
            p99 = std::max(p99, s.backlogP99);
            stalls += s.backpressureStalls;
        }

        const double agg_mibps = rep.makespan
            ? units::toMiB(sealed_bytes) /
                units::toSeconds(rep.makespan)
            : 0.0;

        std::printf("%8u %10llu %14.2f %14.1f %12s %10llu\n",
                    devices,
                    static_cast<unsigned long long>(rep.totalSegments),
                    units::toMiB(sealed_bytes), agg_mibps,
                    formatTime(p99).c_str(),
                    static_cast<unsigned long long>(stalls));
    }

    std::printf("\nAggregate throughput should scale near-linearly "
                "with devices (independent\ndevice pipelines); shard "
                "backlog p99 is where cluster pressure shows.\n");

    // -- Replication-factor sweep ------------------------------------------
    //
    // Fixed fleet, R in {1, 2, 3}: each sealed segment is stored R
    // times (storage amplification is exactly R on a healthy ring)
    // and the device ack waits for the quorum-th replica, so ack
    // latency tracks the quorum-th busiest replica queue, not the
    // single pinned shard.
    bench::banner("Replication sweep: 16 devices, 4 shards, "
                  "R = 1/2/3",
                  "Durability's price: storage amplification and "
                  "quorum-ack latency vs the replication factor.");

    const std::uint32_t sweep_devices = bench::smoke() ? 8 : 16;
    std::printf("%4s %10s %14s %14s %12s %10s\n", "R", "segments",
                "stored MiB", "agg MiB/s", "p99 backlog",
                "quorum wr");

    for (const std::uint32_t r : {1u, 2u, 3u}) {
        fleet::FleetConfig cfg;
        cfg.devices = sweep_devices;
        cfg.shards = 4;
        cfg.replication = r;
        cfg.seed = 1234;
        cfg.opsPerDevice = ops;
        cfg.campaign.scenario = fleet::Scenario::Benign;

        fleet::FleetScheduler sched(cfg);
        const fleet::FleetReport rep = sched.run();

        std::uint64_t sealed_bytes = 0;
        for (const fleet::DeviceReport &d : rep.deviceReports)
            sealed_bytes += d.offload.bytesSealed;
        Tick p99 = 0;
        for (const fleet::ShardReport &s : rep.shardReports)
            p99 = std::max(p99, s.backlogP99);
        const double agg_mibps = rep.makespan
            ? units::toMiB(sealed_bytes) /
                units::toSeconds(rep.makespan)
            : 0.0;

        std::printf("%4u %10llu %14.2f %14.1f %12s %10llu\n", r,
                    static_cast<unsigned long long>(rep.totalSegments),
                    units::toMiB(rep.totalBytesStored), agg_mibps,
                    formatTime(p99).c_str(),
                    static_cast<unsigned long long>(
                        rep.replicationStats.quorumWrites));
    }

    std::printf("\nStored segments should be exactly R x the R=1 "
                "run (systematic duplication);\nthe ack latency "
                "cost of R=3 over R=1 is the quorum's price.\n");
    return 0;
}
