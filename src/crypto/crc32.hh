/**
 * @file
 * CRC32C (Castagnoli) — the checksum used by NVMe-oE capsules and
 * Ethernet frames in the simulated network path.
 *
 * Three implementations live behind one entry point:
 *  - a byte-at-a-time table walk (`crc32cReference`), the bit-exact
 *    reference every fast path is tested against;
 *  - slicing-by-8 over 64-bit words, the portable default;
 *  - an SSE4.2 `crc32q` path, compiled into every x86-64 build and
 *    selected at runtime iff the CPU reports the feature
 *    (crypto/dispatch.hh).
 * All three produce identical output for every input.
 */

#ifndef RSSD_CRYPTO_CRC32_HH
#define RSSD_CRYPTO_CRC32_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rssd::crypto {

/** CRC32C of @p len bytes at @p data, seedable for incremental use. */
std::uint32_t crc32c(const void *data, std::size_t len,
                     std::uint32_t seed = 0);

std::uint32_t crc32c(const std::vector<std::uint8_t> &data,
                     std::uint32_t seed = 0);

/**
 * Byte-at-a-time reference implementation. Slow; exists so tests can
 * pin the dispatched fast path against it.
 */
std::uint32_t crc32cReference(const void *data, std::size_t len,
                              std::uint32_t seed = 0);

/** Name of the implementation crc32c() dispatches to. */
const char *crc32cImplName();

} // namespace rssd::crypto

#endif // RSSD_CRYPTO_CRC32_HH
