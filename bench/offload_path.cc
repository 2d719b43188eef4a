/**
 * @file
 * Characterizes the hardware-isolated NVMe-oE offload path of
 * Figure 1 (docs/ARCHITECTURE.md, experiment X1): sustained offload throughput as a
 * function of link bandwidth and content compressibility, plus the
 * wire-level accounting (frames, retransmissions, compression).
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "compress/datagen.hh"
#include "core/rssd_device.hh"

using namespace rssd;

namespace {

struct Result
{
    double offloadMiBps;  ///< raw retained bytes per simulated second
    double wireMiBps;     ///< bytes actually on the wire
    double compression;
};

Result
run(double gbps, double compressibility)
{
    core::RssdConfig cfg = core::RssdConfig::forTests();
    cfg.ftl.geometry.blocksPerPlane = 64;
    cfg.link.gbps = gbps;
    cfg.segmentPages = 256;
    cfg.pumpThreshold = 1u << 30; // build a backlog, drain manually

    VirtualClock clock;
    core::RssdDevice dev(cfg, clock);
    compress::DataGenerator gen(9, compressibility);

    // Accumulate a retention backlog, then time the drain: that
    // isolates the offload path (flash reads -> sealing -> wire ->
    // ack) from the host write stream that produced the data.
    const int kOps = static_cast<int>(bench::smokeScale(6000));
    for (int i = 0; i < kOps; i++)
        dev.writePage(i % 64, gen.page(dev.pageSize()));

    const Tick t0 = clock.now();
    dev.drainOffload();
    const Tick end = dev.offload().lastAckAt();
    const double secs =
        units::toSeconds(end > t0 ? end - t0 : 1);

    const auto &off = dev.offload().stats();
    Result r;
    r.offloadMiBps = units::toMiB(off.bytesRaw) / secs;
    r.wireMiBps = units::toMiB(off.bytesSealed) / secs;
    r.compression = off.compressionRatio();
    return r;
}

} // namespace

int
main()
{
    bench::banner("X1: NVMe-oE offload path characterization",
                  "Offload throughput vs link bandwidth x content "
                  "compressibility.");

    std::printf("\n%8s | %14s | %12s | %12s | %9s\n", "link",
                "content", "offload", "on wire", "compress");
    std::printf("%8s | %14s | %12s | %12s | %9s\n", "(Gb/s)", "",
                "(MiB/s)", "(MiB/s)", "ratio");
    std::printf("---------+----------------+--------------+---------"
                "-----+----------\n");

    for (const double gbps : bench::sweep({1.0, 10.0, 25.0, 40.0})) {
        for (const double compressibility :
             bench::sweep({0.0, 0.55, 0.9})) {
            const Result r = run(gbps, compressibility);
            const char *label = compressibility == 0.0
                ? "incompressible"
                : (compressibility < 0.6 ? "typical" : "redundant");
            std::printf("%8.0f | %14s | %12.1f | %12.1f | %9.2f\n",
                        gbps, label, r.offloadMiBps, r.wireMiBps,
                        r.compression);
        }
    }

    std::printf("\nShape check: with compressible content the "
                "effective offload rate\nexceeds the raw link rate "
                "(compression happens before the wire); the\n1 Gb/s "
                "point is link-bound, 25/40 Gb/s points are bound by "
                "the flash\nread + sealing pipeline.\n");
    return 0;
}
