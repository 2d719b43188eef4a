/**
 * @file
 * ChaCha20 against the RFC 8439 test vector, plus roundtrip and
 * keystream-uniqueness properties, and the dispatched batch path
 * pinned to the one-block scalar reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/chacha20.hh"
#include "crypto/entropy.hh"
#include "crypto/sha256.hh"

namespace rssd::crypto {
namespace {

TEST(ChaCha20, Rfc8439Vector)
{
    // RFC 8439 §2.4.2.
    Key256 key;
    for (int i = 0; i < 32; i++)
        key[i] = static_cast<std::uint8_t>(i);
    Nonce96 nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                     0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};

    std::string plain =
        "Ladies and Gentlemen of the class of '99: If I could offer "
        "you only one tip for the future, sunscreen would be it.";
    std::vector<std::uint8_t> buf(plain.begin(), plain.end());

    ChaCha20 cipher(key, nonce, 1);
    cipher.apply(buf);

    const std::uint8_t expect_head[] = {0x6e, 0x2e, 0x35, 0x9a,
                                        0x25, 0x68, 0xf9, 0x80};
    for (int i = 0; i < 8; i++)
        EXPECT_EQ(buf[i], expect_head[i]) << "byte " << i;

    const std::uint8_t expect_tail[] = {0x87, 0x4d};
    EXPECT_EQ(buf[buf.size() - 2], expect_tail[0]);
    EXPECT_EQ(buf[buf.size() - 1], expect_tail[1]);
}

TEST(ChaCha20, RoundtripRestoresPlaintext)
{
    const Key256 key = ChaCha20::deriveKey("test-key");
    const Nonce96 nonce = ChaCha20::nonceFromSequence(7);

    std::vector<std::uint8_t> data(4096);
    for (std::size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<std::uint8_t>(i * 31);
    const auto original = data;

    ChaCha20 enc(key, nonce);
    enc.apply(data);
    EXPECT_NE(data, original);

    ChaCha20 dec(key, nonce);
    dec.apply(data);
    EXPECT_EQ(data, original);
}

TEST(ChaCha20, CiphertextLooksRandom)
{
    // Encrypting zeros yields ~8 bits/byte entropy — this property
    // is what the ransomware detectors key on.
    const Key256 key = ChaCha20::deriveKey("entropy-check");
    std::vector<std::uint8_t> zeros(64 * 1024, 0);
    ChaCha20 c(key, ChaCha20::nonceFromSequence(1));
    c.apply(zeros);
    EXPECT_GT(shannonEntropy(zeros), 7.9);
}

TEST(ChaCha20, DifferentNoncesDifferentStreams)
{
    const Key256 key = ChaCha20::deriveKey("k");
    std::vector<std::uint8_t> a(256, 0), b(256, 0);
    ChaCha20 ca(key, ChaCha20::nonceFromSequence(1));
    ChaCha20 cb(key, ChaCha20::nonceFromSequence(2));
    ca.apply(a);
    cb.apply(b);
    EXPECT_NE(a, b);
}

TEST(ChaCha20, ByteAtATimeMatchesBulk)
{
    const Key256 key = ChaCha20::deriveKey("chunking");
    const Nonce96 nonce = ChaCha20::nonceFromSequence(3);

    std::vector<std::uint8_t> bulk(300, 0xAB), stream(300, 0xAB);
    ChaCha20 cb(key, nonce);
    cb.apply(bulk);

    ChaCha20 cs(key, nonce);
    for (auto &byte : stream)
        cs.apply(&byte, 1);
    EXPECT_EQ(bulk, stream);
}

std::vector<std::uint8_t>
pattern(std::size_t len)
{
    std::vector<std::uint8_t> v(len);
    for (std::size_t i = 0; i < len; i++)
        v[i] = static_cast<std::uint8_t>(i * 73 + 11);
    return v;
}

std::vector<std::uint8_t>
referenceCipher(const Key256 &key, const Nonce96 &nonce,
                std::uint32_t counter, const std::vector<std::uint8_t> &in)
{
    std::vector<std::uint8_t> out(in.size());
    chacha20Reference(key, nonce, counter, in.data(), out.data(),
                      in.size());
    return out;
}

TEST(ChaCha20, DispatchedMatchesReferenceEverywhere)
{
    // Every length past four batches, in place and out of place.
    const Key256 key = ChaCha20::deriveKey("oracle");
    const Nonce96 nonce = ChaCha20::nonceFromSequence(11);
    const std::vector<std::uint8_t> plain = pattern(2100);

    for (std::size_t len = 0; len <= plain.size(); len++) {
        const std::vector<std::uint8_t> in(plain.begin(),
                                           plain.begin() + len);
        const std::vector<std::uint8_t> want =
            referenceCipher(key, nonce, 1, in);

        std::vector<std::uint8_t> inplace = in;
        ChaCha20(key, nonce, 1).apply(inplace);
        ASSERT_EQ(inplace, want) << "in place, len " << len;

        std::vector<std::uint8_t> out(len);
        ChaCha20(key, nonce, 1).apply(in.data(), out.data(), len);
        ASSERT_EQ(out, want) << "out of place, len " << len;
    }
}

TEST(ChaCha20, AppliesStraddlingABatchMatchReference)
{
    // Pairs of applies whose boundary falls on both sides of the
    // 8-block (512-byte) refill and of each block inside it.
    const Key256 key = ChaCha20::deriveKey("straddle");
    const Nonce96 nonce = ChaCha20::nonceFromSequence(5);
    const std::vector<std::uint8_t> plain = pattern(1600);
    const std::vector<std::uint8_t> want =
        referenceCipher(key, nonce, 0, plain);

    for (std::size_t first = 0; first <= 1100; first++) {
        std::vector<std::uint8_t> buf = plain;
        ChaCha20 c(key, nonce);
        c.apply(buf.data(), first);
        c.apply(buf.data() + first, buf.size() - first);
        ASSERT_EQ(buf, want) << "first apply " << first;
    }
}

TEST(ChaCha20, ByteAtATimeMatchesReferenceAcrossBatches)
{
    const Key256 key = ChaCha20::deriveKey("bytewise");
    const Nonce96 nonce = ChaCha20::nonceFromSequence(9);
    std::vector<std::uint8_t> buf = pattern(1500);
    const std::vector<std::uint8_t> want =
        referenceCipher(key, nonce, 3, buf);

    ChaCha20 c(key, nonce, 3);
    for (auto &byte : buf)
        c.apply(&byte, 1);
    EXPECT_EQ(buf, want);
}

TEST(ChaCha20, CounterWrapsInsideABatchLikeReference)
{
    // Starting six blocks below 2^32 wraps the 32-bit counter inside
    // the first batch; every path wraps it the same way.
    const Key256 key = ChaCha20::deriveKey("wrap");
    const Nonce96 nonce = ChaCha20::nonceFromSequence(2);
    const std::vector<std::uint8_t> plain = pattern(1300);
    const std::vector<std::uint8_t> want =
        referenceCipher(key, nonce, 0xFFFFFFFAu, plain);

    std::vector<std::uint8_t> bulk = plain;
    ChaCha20(key, nonce, 0xFFFFFFFAu).apply(bulk);
    EXPECT_EQ(bulk, want);

    // Block 6 of that batch is counter 0: the same keystream as a
    // fresh stream's first block.
    std::vector<std::uint8_t> wrapped(8 * 64, 0), fresh(64, 0);
    ChaCha20(key, nonce, 0xFFFFFFFAu).apply(wrapped);
    ChaCha20(key, nonce, 0).apply(fresh);
    EXPECT_TRUE(std::equal(fresh.begin(), fresh.end(),
                           wrapped.begin() + 6 * 64));
}

TEST(ChaCha20, ImplNameIsKnown)
{
    const std::string name = chacha20ImplName();
    EXPECT_TRUE(name == "generic" || name == "avx2") << name;
}

TEST(ChaCha20, DeriveKeyIsDeterministic)
{
    EXPECT_EQ(ChaCha20::deriveKey("same"), ChaCha20::deriveKey("same"));
    EXPECT_NE(ChaCha20::deriveKey("one"), ChaCha20::deriveKey("two"));
}

} // namespace
} // namespace rssd::crypto
