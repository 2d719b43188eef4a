/**
 * @file
 * Retention-GC steady state: sustained ingest throughput of a
 * capacity-bounded BackupStore whose retention GC is keeping it at
 * the watermarks — the Figure 2 lifecycle under load.
 *
 * The store is filled past its high watermark, then a timed phase
 * keeps ingesting at steady-state capacity: every arrival is
 * expected to be accepted (GC frees space continuously; a reject in
 * steady state is a bench failure), and each accepted wire byte has
 * to displace a pruned one. The metric is wall-clock MB/s of
 * accepted wire bytes, with the GC work (HMAC verify, prune-record
 * re-signing, tombstone open for entry accounting) on the measured
 * path.
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_common.hh"
#include "remote/backup_store.hh"
#include "tests/common/segment_chain.hh"

using namespace rssd;

int
main()
{
    bench::banner("Retention GC: steady-state ingest",
                  "Ingest into a capacity-bounded store whose "
                  "retention GC holds occupancy at the watermarks.");

    std::printf("\n%9s | %8s | %9s | %10s | %9s | %9s\n", "capacity",
                "streams", "segments", "ingest MB/s", "prunes",
                "occupancy");
    std::printf("----------+----------+-----------+------------+------"
                "-----+----------\n");

    for (const std::uint64_t cap_mib : bench::sweep<std::uint64_t>(
             {8, 16, 32})) {
        constexpr std::uint32_t kStreams = 4;
        constexpr std::size_t kPageBytes = 56 * 1024;

        remote::BackupStoreConfig cfg;
        cfg.capacityBytes = cap_mib * units::MiB;
        cfg.processingTime = 0;
        cfg.retention.gcEnabled = true;
        remote::BackupStore store(cfg);

        std::vector<test::SegmentChain> chains;
        chains.reserve(kStreams);
        for (std::uint32_t s = 0; s < kStreams; s++) {
            chains.emplace_back("retention-bench-" +
                                    std::to_string(s),
                                1000 + s);
            store.registerStream(s, chains.back().codec());
        }

        // Fill to steady state: ingest until the first prune.
        Tick now = 0;
        Tick ack = 0;
        std::uint64_t filled = 0;
        while (store.stats().segmentsPruned == 0) {
            const std::uint32_t s = filled % kStreams;
            panicIf(!store.ingestSegment(
                        s, chains[s].next(8, kPageBytes), now, ack),
                    "retention_gc: reject during fill");
            now += units::MS;
            filled++;
        }

        // Timed steady-state phase.
        const std::uint64_t kSegments = bench::smokeScale(512, 16);
        std::uint64_t wire_bytes = 0;
        const std::uint64_t prunes_before =
            store.stats().segmentsPruned;
        const auto t0 = std::chrono::steady_clock::now(); // rssd-lint: allow(D1) wall-clock measures bench throughput, never sim state
        for (std::uint64_t i = 0; i < kSegments; i++) {
            const std::uint32_t s =
                static_cast<std::uint32_t>(i % kStreams);
            const log::SealedSegment seg =
                chains[s].next(8, kPageBytes);
            const std::uint64_t wire = seg.wireSize();
            panicIf(!store.ingestSegment(s, seg, now, ack),
                    "retention_gc: reject in steady state");
            wire_bytes += wire;
            now += units::MS;
        }
        const double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0) // rssd-lint: allow(D1) wall-clock measures bench throughput, never sim state
                .count();
        const double mbps =
            secs > 0 ? wire_bytes / secs / (1024.0 * 1024.0) : 0.0;
        const std::uint64_t prunes =
            store.stats().segmentsPruned - prunes_before;
        const double occupancy =
            static_cast<double>(store.usedBytes()) /
            static_cast<double>(store.capacityBytes());

        panicIf(!store.verifyFullChain(),
                "retention_gc: pruned chains failed verification");
        panicIf(store.stats().segmentsRejected != 0,
                "retention_gc: capacity wall in steady state");

        std::printf("%9s | %8u | %9llu | %10.1f | %9llu | %8.2f%%\n",
                    formatBytes(cfg.capacityBytes).c_str(), kStreams,
                    static_cast<unsigned long long>(kSegments), mbps,
                    static_cast<unsigned long long>(prunes),
                    occupancy * 100.0);
    }
    return 0;
}
