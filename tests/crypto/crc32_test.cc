/**
 * @file
 * CRC32C against known vectors and corruption-detection properties.
 */

#include <gtest/gtest.h>

#include <string>

#include "crypto/crc32.hh"

namespace rssd::crypto {
namespace {

TEST(Crc32c, KnownVectors)
{
    // "123456789" -> 0xE3069283 (iSCSI CRC32C check value).
    const std::string msg = "123456789";
    EXPECT_EQ(crc32c(msg.data(), msg.size()), 0xE3069283u);
}

TEST(Crc32c, EmptyIsZero)
{
    EXPECT_EQ(crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, AllZeros32Bytes)
{
    std::vector<std::uint8_t> zeros(32, 0);
    EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
}

TEST(Crc32c, AllOnes32Bytes)
{
    std::vector<std::uint8_t> ones(32, 0xFF);
    EXPECT_EQ(crc32c(ones), 0x62A8AB43u);
}

TEST(Crc32c, DetectsSingleBitFlip)
{
    std::vector<std::uint8_t> data(1024);
    for (std::size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<std::uint8_t>(i);
    const std::uint32_t clean = crc32c(data);
    for (std::size_t byte : {0u, 100u, 1023u}) {
        for (int bit = 0; bit < 8; bit++) {
            data[byte] ^= 1u << bit;
            EXPECT_NE(crc32c(data), clean);
            data[byte] ^= 1u << bit;
        }
    }
}

TEST(Crc32c, DetectsSwappedBytes)
{
    std::vector<std::uint8_t> data = {1, 2, 3, 4, 5};
    const std::uint32_t clean = crc32c(data);
    std::swap(data[1], data[3]);
    EXPECT_NE(crc32c(data), clean);
}

TEST(Crc32c, Rfc3720Vectors)
{
    // RFC 3720 B.4 test patterns (32 bytes each).
    std::vector<std::uint8_t> inc(32), dec(32);
    for (int i = 0; i < 32; i++) {
        inc[i] = static_cast<std::uint8_t>(i);
        dec[i] = static_cast<std::uint8_t>(31 - i);
    }
    EXPECT_EQ(crc32c(inc), 0x46DD794Eu);
    EXPECT_EQ(crc32c(dec), 0x113FDB5Cu);
}

TEST(Crc32c, DispatchedMatchesReferenceEverywhere)
{
    // The dispatched fast path (slicing-by-8/16 or SSE4.2) must be
    // bit-identical to the byte-at-a-time reference for every length,
    // alignment and seed — this is the determinism invariant.
    std::vector<std::uint8_t> data(1024 + 64);
    for (std::size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<std::uint8_t>(i * 131 + 17);

    for (std::size_t offset : {0u, 1u, 3u, 7u, 8u}) {
        for (std::size_t len = 0; len <= 128; len++) {
            ASSERT_EQ(crc32c(data.data() + offset, len),
                      crc32cReference(data.data() + offset, len))
                << "offset " << offset << " len " << len;
        }
        for (std::size_t len : {255u, 256u, 257u, 1000u, 1024u}) {
            ASSERT_EQ(crc32c(data.data() + offset, len),
                      crc32cReference(data.data() + offset, len))
                << "offset " << offset << " len " << len;
        }
    }

    for (std::uint32_t seed : {0u, 1u, 0xdeadbeefu}) {
        EXPECT_EQ(crc32c(data.data(), 777, seed),
                  crc32cReference(data.data(), 777, seed));
    }
}

TEST(Crc32c, EverySupportedKernelMatchesReference)
{
    // Not only the picked kernel: every table entry this CPU can run,
    // so the portable slicing path stays tested on SSE4.2 hosts.
    std::vector<std::uint8_t> data(1024 + 8);
    for (std::size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<std::uint8_t>(i * 131 + 17);

    std::size_t run = 0;
    for (const auto &kernel : crc32cCandidates()) {
        if (!kernel.supported())
            continue;
        run++;
        for (std::size_t offset : {0u, 1u, 7u}) {
            for (std::size_t len = 0; len <= 1024; len++) {
                for (std::uint32_t seed : {0u, 0xdeadbeefu}) {
                    const std::uint8_t *p = data.data() + offset;
                    ASSERT_EQ(~kernel.fn(~seed, p, len),
                              crc32cReference(p, len, seed))
                        << kernel.name << " offset " << offset << " len "
                        << len << " seed " << seed;
                }
            }
        }
    }
    EXPECT_GE(run, 1u);
    EXPECT_STREQ(crc32cCandidates().back().name, "slicing8");
}

TEST(Crc32c, IncrementalSeedingMatchesOneShot)
{
    std::vector<std::uint8_t> data(300);
    for (std::size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<std::uint8_t>(i ^ 0x5a);
    const std::uint32_t whole = crc32c(data.data(), data.size());
    for (std::size_t split : {0u, 1u, 7u, 8u, 150u, 299u, 300u}) {
        const std::uint32_t first = crc32c(data.data(), split);
        EXPECT_EQ(crc32c(data.data() + split, data.size() - split,
                         first),
                  whole)
            << "split " << split;
    }
}

TEST(Crc32c, ImplNameIsKnown)
{
    const std::string name = crc32cImplName();
    EXPECT_TRUE(name == "slicing8" || name == "sse4.2") << name;
}

} // namespace
} // namespace rssd::crypto
