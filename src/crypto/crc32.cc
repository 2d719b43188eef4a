#include "crypto/crc32.hh"

#include <array>
#include <bit>
#include <cstring>

#include "crypto/dispatch.hh"

#ifdef RSSD_CRYPTO_X86
#include <nmmintrin.h>
#endif

namespace rssd::crypto {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u; // reflected Castagnoli

/**
 * Slicing tables. table[0] is the classic byte table; table[k]
 * advances a byte through k further zero bytes, so sixteen lookups
 * retire two whole 64-bit words per iteration (slicing-by-16, with
 * a slicing-by-8 loop mopping up the 8..15-byte remainder).
 */
constexpr std::array<std::array<std::uint32_t, 256>, 16>
buildTables()
{
    std::array<std::array<std::uint32_t, 256>, 16> t{};
    for (std::uint32_t i = 0; i < 256; i++) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; bit++)
            crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
        t[0][i] = crc;
    }
    for (int k = 1; k < 16; k++) {
        for (std::uint32_t i = 0; i < 256; i++)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
    return t;
}

constexpr auto kTables = buildTables();

std::uint32_t
updateBytewise(std::uint32_t crc, const std::uint8_t *p, std::size_t len)
{
    for (std::size_t i = 0; i < len; i++)
        crc = (crc >> 8) ^ kTables[0][(crc ^ p[i]) & 0xff];
    return crc;
}

/** Portable sliced update over the raw (inverted) CRC state. */
std::uint32_t
updateSlicing8(std::uint32_t crc, const std::uint8_t *p, std::size_t len)
{
    if constexpr (std::endian::native != std::endian::little)
        return updateBytewise(crc, p, len);

    while (len >= 16) {
        std::uint64_t w1, w2;
        std::memcpy(&w1, p, 8);
        std::memcpy(&w2, p + 8, 8);
        w1 ^= crc;
        crc = kTables[15][w1 & 0xff] ^
              kTables[14][(w1 >> 8) & 0xff] ^
              kTables[13][(w1 >> 16) & 0xff] ^
              kTables[12][(w1 >> 24) & 0xff] ^
              kTables[11][(w1 >> 32) & 0xff] ^
              kTables[10][(w1 >> 40) & 0xff] ^
              kTables[9][(w1 >> 48) & 0xff] ^
              kTables[8][w1 >> 56] ^
              kTables[7][w2 & 0xff] ^
              kTables[6][(w2 >> 8) & 0xff] ^
              kTables[5][(w2 >> 16) & 0xff] ^
              kTables[4][(w2 >> 24) & 0xff] ^
              kTables[3][(w2 >> 32) & 0xff] ^
              kTables[2][(w2 >> 40) & 0xff] ^
              kTables[1][(w2 >> 48) & 0xff] ^
              kTables[0][w2 >> 56];
        p += 16;
        len -= 16;
    }
    if (len >= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, 8);
        word ^= crc;
        crc = kTables[7][word & 0xff] ^
              kTables[6][(word >> 8) & 0xff] ^
              kTables[5][(word >> 16) & 0xff] ^
              kTables[4][(word >> 24) & 0xff] ^
              kTables[3][(word >> 32) & 0xff] ^
              kTables[2][(word >> 40) & 0xff] ^
              kTables[1][(word >> 48) & 0xff] ^
              kTables[0][word >> 56];
        p += 8;
        len -= 8;
    }
    return updateBytewise(crc, p, len);
}

#ifdef RSSD_CRYPTO_X86
__attribute__((target("sse4.2"))) std::uint32_t
updateSse42(std::uint32_t crc, const std::uint8_t *p, std::size_t len)
{
    std::uint64_t c = crc;
    while (len >= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, 8);
        c = _mm_crc32_u64(c, word);
        p += 8;
        len -= 8;
    }
    crc = static_cast<std::uint32_t>(c);
    while (len > 0) {
        crc = _mm_crc32_u8(crc, *p++);
        len--;
    }
    return crc;
}
#endif

using UpdateFn = std::uint32_t (*)(std::uint32_t, const std::uint8_t *,
                                   std::size_t);

struct Impl
{
    UpdateFn fn;
    const char *name;
};

const Impl &
pickImpl()
{
#ifdef RSSD_CRYPTO_X86
    static constexpr Impl kSse42{updateSse42, "sse4.2"};
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2"))
        return kSse42;
#endif
    static constexpr Impl kSlicing8{updateSlicing8, "slicing8"};
    return kSlicing8;
}

constinit const Dispatch<Impl> kImpl{pickImpl};

} // namespace

std::uint32_t
crc32c(const void *data, std::size_t len, std::uint32_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    return ~kImpl.get().fn(~seed, p, len);
}

std::uint32_t
crc32c(const std::vector<std::uint8_t> &data, std::uint32_t seed)
{
    return crc32c(data.data(), data.size(), seed);
}

std::uint32_t
crc32cReference(const void *data, std::size_t len, std::uint32_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    return ~updateBytewise(~seed, p, len);
}

const char *
crc32cImplName()
{
    return kImpl.get().name;
}

} // namespace rssd::crypto
