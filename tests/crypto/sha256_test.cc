/**
 * @file
 * SHA-256 and HMAC-SHA256 against FIPS / RFC test vectors, and the
 * dispatched compress pinned to the scalar reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/sha256.hh"

namespace rssd::crypto {
namespace {

std::string
hashHex(const std::string &msg)
{
    return toHex(Sha256::hash(msg.data(), msg.size()));
}

TEST(Sha256, EmptyString)
{
    EXPECT_EQ(hashHex(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc)
{
    EXPECT_EQ(hashHex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
    EXPECT_EQ(hashHex("abcdbcdecdefdefgefghfghighijhijk"
                      "ijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs)
{
    Sha256 ctx;
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; i++)
        ctx.update(chunk.data(), chunk.size());
    EXPECT_EQ(toHex(ctx.finish()),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot)
{
    const std::string msg =
        "The quick brown fox jumps over the lazy dog";
    for (std::size_t split = 0; split <= msg.size(); split++) {
        Sha256 ctx;
        ctx.update(msg.data(), split);
        ctx.update(msg.data() + split, msg.size() - split);
        EXPECT_EQ(toHex(ctx.finish()), hashHex(msg))
            << "split at " << split;
    }
}

TEST(Sha256, ExactBlockBoundaries)
{
    // 55, 56, 63, 64, 65 bytes hit every padding branch.
    for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
        const std::string msg(len, 'x');
        Sha256 one;
        one.update(msg.data(), msg.size());
        Sha256 two;
        for (char c : msg)
            two.update(&c, 1);
        EXPECT_EQ(toHex(one.finish()), toHex(two.finish()))
            << "len " << len;
    }
}

TEST(Sha256, DispatchedMatchesReferenceEverywhere)
{
    // Every length up to 17 blocks, at every alignment: the
    // dispatched compress (SHA-NI or scalar) must be bit-identical to
    // the scalar reference, including multi-block runs.
    std::vector<std::uint8_t> data(1100 + 8);
    for (std::size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<std::uint8_t>(i * 167 + 13);

    for (std::size_t offset = 0; offset < 8; offset++) {
        for (std::size_t len = 0; len <= 1100; len++) {
            const std::uint8_t *p = data.data() + offset;
            ASSERT_EQ(toHex(Sha256::hash(p, len)),
                      toHex(sha256Reference(p, len)))
                << "offset " << offset << " len " << len;
        }
    }
}

TEST(Sha256, SplitUpdatesAcrossEveryBlockBoundary)
{
    // Two updates split at every byte of a 4-block message, then a
    // three-way split straddling each block boundary: the buffered
    // partial block and the whole-block run must compose exactly.
    std::vector<std::uint8_t> msg(256 + 37);
    for (std::size_t i = 0; i < msg.size(); i++)
        msg[i] = static_cast<std::uint8_t>(i * 29 + 5);
    const std::string want = toHex(sha256Reference(msg.data(), msg.size()));

    for (std::size_t split = 0; split <= msg.size(); split++) {
        Sha256 ctx;
        ctx.update(msg.data(), split);
        ctx.update(msg.data() + split, msg.size() - split);
        ASSERT_EQ(toHex(ctx.finish()), want) << "split at " << split;
    }
    for (std::size_t boundary = 64; boundary < msg.size(); boundary += 64) {
        for (std::size_t before = 1; before <= 63; before++) {
            for (std::size_t after : {1u, 63u, 64u, 65u, 129u}) {
                const std::size_t a = boundary - before;
                const std::size_t b = std::min(boundary + after, msg.size());
                Sha256 ctx;
                ctx.update(msg.data(), a);
                ctx.update(msg.data() + a, b - a);
                ctx.update(msg.data() + b, msg.size() - b);
                ASSERT_EQ(toHex(ctx.finish()), want)
                    << "splits at " << a << ", " << b;
            }
        }
    }
}

TEST(Sha256, ReferenceMatchesKnownVectors)
{
    const std::string abc = "abc";
    EXPECT_EQ(toHex(sha256Reference(abc.data(), abc.size())),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(toHex(sha256Reference(nullptr, 0)),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, ImplNameIsKnown)
{
    const std::string name = sha256ImplName();
    EXPECT_TRUE(name == "scalar" || name == "sha-ni") << name;
}

TEST(HmacSha256, Rfc4231Case1)
{
    std::uint8_t key[20];
    std::memset(key, 0x0b, sizeof(key));
    const std::string msg = "Hi There";
    const Digest d = hmacSha256(key, sizeof(key), msg.data(),
                                msg.size());
    EXPECT_EQ(toHex(d),
              "b0344c61d8db38535ca8afceaf0bf12b"
              "881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2)
{
    const std::string key = "Jefe";
    const std::string msg = "what do ya want for nothing?";
    const Digest d = hmacSha256(
        reinterpret_cast<const std::uint8_t *>(key.data()), key.size(),
        msg.data(), msg.size());
    EXPECT_EQ(toHex(d),
              "5bdcc146bf60754e6a042426089575c7"
              "5a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, LongKeyIsHashedFirst)
{
    // RFC 4231 case 6: 131-byte key.
    std::uint8_t key[131];
    std::memset(key, 0xaa, sizeof(key));
    const std::string msg =
        "Test Using Larger Than Block-Size Key - Hash Key First";
    const Digest d = hmacSha256(key, sizeof(key), msg.data(),
                                msg.size());
    EXPECT_EQ(toHex(d),
              "60e431591ee0b67f0d8a26aacbf5b77f"
              "8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, KeySensitivity)
{
    const std::string msg = "payload";
    std::uint8_t k1[] = {1, 2, 3};
    std::uint8_t k2[] = {1, 2, 4};
    EXPECT_NE(toHex(hmacSha256(k1, 3, msg.data(), msg.size())),
              toHex(hmacSha256(k2, 3, msg.data(), msg.size())));
}

TEST(HmacSha256, Rfc4231Case3)
{
    // 20 bytes of 0xaa, 50 bytes of 0xdd.
    std::uint8_t key[20];
    std::memset(key, 0xaa, sizeof(key));
    std::uint8_t msg[50];
    std::memset(msg, 0xdd, sizeof(msg));
    EXPECT_EQ(toHex(hmacSha256(key, sizeof(key), msg, sizeof(msg))),
              "773ea91e36800e46854db8ebd09181a7"
              "2959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231Case4)
{
    std::uint8_t key[25];
    for (int i = 0; i < 25; i++)
        key[i] = static_cast<std::uint8_t>(i + 1);
    std::uint8_t msg[50];
    std::memset(msg, 0xcd, sizeof(msg));
    EXPECT_EQ(toHex(hmacSha256(key, sizeof(key), msg, sizeof(msg))),
              "82558a389a443c0ea4cc819899f2083a"
              "85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacSha256, Rfc4231Case7LongKeyAndData)
{
    std::uint8_t key[131];
    std::memset(key, 0xaa, sizeof(key));
    const std::string msg =
        "This is a test using a larger than block-size key and a "
        "larger than block-size data. The key needs to be hashed "
        "before being used by the HMAC algorithm.";
    EXPECT_EQ(toHex(hmacSha256(key, sizeof(key), msg.data(),
                               msg.size())),
              "9b09ffa71b942fcb27635fbcd5b0e944"
              "bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacSha256, StreamingMatchesOneShotAtEverySplit)
{
    const std::string key = "segment-codec-key";
    const std::string msg =
        "header bytes | compressed encrypted payload bytes .........";
    const auto *kp = reinterpret_cast<const std::uint8_t *>(key.data());
    const Digest want =
        hmacSha256(kp, key.size(), msg.data(), msg.size());

    HmacSha256 mac(kp, key.size());
    for (std::size_t split = 0; split <= msg.size(); split++) {
        mac.reset();
        mac.update(msg.data(), split);
        mac.update(msg.data() + split, msg.size() - split);
        EXPECT_EQ(toHex(mac.finish()), toHex(want))
            << "split at " << split;
    }
}

TEST(HmacSha256, KeyedInstanceIsReusableAndCopyable)
{
    const std::uint8_t key[32] = {9, 8, 7};
    HmacSha256 proto(key, sizeof(key));

    const std::string a = "first message";
    const std::string b = "second message";

    HmacSha256 m1 = proto; // copy precomputed schedule
    m1.update(a.data(), a.size());
    const Digest da = m1.finish();

    HmacSha256 m2 = proto;
    m2.update(b.data(), b.size());
    const Digest db = m2.finish();

    EXPECT_EQ(toHex(da),
              toHex(hmacSha256(key, sizeof(key), a.data(), a.size())));
    EXPECT_EQ(toHex(db),
              toHex(hmacSha256(key, sizeof(key), b.data(), b.size())));
    EXPECT_NE(toHex(da), toHex(db));
}

} // namespace
} // namespace rssd::crypto
