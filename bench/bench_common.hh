/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries: table
 * printing and common device configurations.
 */

#ifndef RSSD_BENCH_BENCH_COMMON_HH
#define RSSD_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

#include "bench/smoke.hh"
#include "core/rssd_config.hh"
#include "crypto/chacha20.hh"
#include "crypto/crc32.hh"
#include "crypto/sha256.hh"
#include "flash/nand.hh"
#include "sim/stats.hh"

namespace rssd::bench {

/** Scale an iteration/request count down for smoke runs. */
inline std::uint64_t
smokeScale(std::uint64_t full, std::uint64_t divisor = 10)
{
    if (!smoke())
        return full;
    const std::uint64_t scaled = full / divisor;
    return scaled > 0 ? scaled : 1;
}

/**
 * A parameter sweep that collapses to its first point in smoke runs,
 * so each bench still exercises its full code path once.
 */
template <typename T>
inline std::vector<T>
sweep(std::initializer_list<T> points)
{
    if (smoke() && points.size() > 1)
        return {*points.begin()};
    return std::vector<T>(points);
}

/**
 * Print a bench banner, naming the CRC32C, SHA-256 and ChaCha20
 * kernels this CPU dispatched to, so every bench log says which
 * code paths its numbers measured.
 */
inline void
banner(const std::string &title, const std::string &what)
{
    std::printf("\n================================================="
                "=============================\n");
    std::printf("%s\n", title.c_str());
    std::printf("%s\n", what.c_str());
    std::printf("[kernels: crc32c=%s sha256=%s chacha20=%s]\n",
                crypto::crc32cImplName(), crypto::sha256ImplName(),
                crypto::chacha20ImplName());
    if (smoke())
        std::printf("[RSSD_SMOKE: tiny configuration — numbers are "
                    "not paper-comparable]\n");
    std::printf("==================================================="
                "===========================\n");
}

/** A ~1 GiB device for performance benches. */
inline ftl::FtlConfig
benchFtlConfig(std::uint32_t gib = 1)
{
    ftl::FtlConfig cfg;
    cfg.geometry = flash::benchGeometry(gib);
    cfg.opFraction = 0.07;
    cfg.gcLowWater = 8;
    cfg.gcHighWater = 16;
    return cfg;
}

/** RSSD on the same geometry. */
inline core::RssdConfig
benchRssdConfig(std::uint32_t gib = 1)
{
    core::RssdConfig cfg;
    cfg.ftl = benchFtlConfig(gib);
    cfg.segmentPages = 256;
    cfg.pumpThreshold = 512;
    cfg.remote.capacityBytes = 64ull * units::GiB;
    return cfg;
}

} // namespace rssd::bench

#endif // RSSD_BENCH_BENCH_COMMON_HH
