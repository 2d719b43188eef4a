#include "crypto/chacha20.hh"

#include <algorithm>
#include <cstring>
#include <string>

#include "crypto/dispatch.hh"
#include "crypto/sha256.hh"

namespace rssd::crypto {

namespace {

constexpr std::size_t kBlockBytes = 64;

std::uint32_t
rotl(std::uint32_t x, int n)
{
    return (x << n) | (x >> (32 - n));
}

void
quarterRound(std::array<std::uint32_t, 16> &s, int a, int b, int c, int d)
{
    s[a] += s[b]; s[d] ^= s[a]; s[d] = rotl(s[d], 16);
    s[c] += s[d]; s[b] ^= s[c]; s[b] = rotl(s[b], 12);
    s[a] += s[b]; s[d] ^= s[a]; s[d] = rotl(s[d], 8);
    s[c] += s[d]; s[b] ^= s[c]; s[b] = rotl(s[b], 7);
}

std::uint32_t
load32le(const std::uint8_t *p)
{
    return std::uint32_t(p[0]) | (std::uint32_t(p[1]) << 8) |
           (std::uint32_t(p[2]) << 16) | (std::uint32_t(p[3]) << 24);
}

void
store32le(std::uint8_t *p, std::uint32_t word)
{
    p[0] = static_cast<std::uint8_t>(word);
    p[1] = static_cast<std::uint8_t>(word >> 8);
    p[2] = static_cast<std::uint8_t>(word >> 16);
    p[3] = static_cast<std::uint8_t>(word >> 24);
}

std::array<std::uint32_t, 16>
initialState(const Key256 &key, const Nonce96 &nonce, std::uint32_t counter)
{
    std::array<std::uint32_t, 16> state;
    // "expand 32-byte k"
    state[0] = 0x61707865;
    state[1] = 0x3320646e;
    state[2] = 0x79622d32;
    state[3] = 0x6b206574;
    for (int i = 0; i < 8; i++)
        state[4 + i] = load32le(key.data() + 4 * i);
    state[12] = counter;
    for (int i = 0; i < 3; i++)
        state[13 + i] = load32le(nonce.data() + 4 * i);
    return state;
}

/** One keystream block for @p state: the portable reference. */
void
blockScalar(const std::array<std::uint32_t, 16> &state, std::uint8_t *out)
{
    std::array<std::uint32_t, 16> working = state;
    for (int round = 0; round < 10; round++) {
        quarterRound(working, 0, 4, 8, 12);
        quarterRound(working, 1, 5, 9, 13);
        quarterRound(working, 2, 6, 10, 14);
        quarterRound(working, 3, 7, 11, 15);
        quarterRound(working, 0, 5, 10, 15);
        quarterRound(working, 1, 6, 11, 12);
        quarterRound(working, 2, 7, 8, 13);
        quarterRound(working, 3, 4, 9, 14);
    }
    for (int i = 0; i < 16; i++)
        store32le(out + 4 * i, working[i] + state[i]);
}

void
xorBytes(const std::uint8_t *src, const std::uint8_t *ks, std::uint8_t *dst,
         std::size_t len)
{
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        std::uint64_t d, k;
        std::memcpy(&d, src + i, 8);
        std::memcpy(&k, ks + i, 8);
        d ^= k;
        std::memcpy(dst + i, &d, 8);
    }
    for (; i < len; i++)
        dst[i] = static_cast<std::uint8_t>(src[i] ^ ks[i]);
}

/**
 * Write ChaCha20::kBatchBlocks keystream blocks for @p state to
 * @p out; block j uses counter state[12] + j (mod 2^32).
 */
using BatchFn = void (*)(const std::uint32_t *state, std::uint8_t *out);

/**
 * The batch kernel: lane j of each vector is word i of block j, so
 * one vector instruction advances the same word of all eight blocks.
 * Written once with GCC vector extensions and compiled per target by
 * the wrappers below.
 */
using U32x8 = std::uint32_t __attribute__((vector_size(32)));
static_assert(ChaCha20::kBatchBlocks == 8);

[[gnu::always_inline]] inline void
quarterRoundX8(U32x8 &a, U32x8 &b, U32x8 &c, U32x8 &d)
{
    a += b; d ^= a; d = (d << 16) | (d >> 16);
    c += d; b ^= c; b = (b << 12) | (b >> 20);
    a += b; d ^= a; d = (d << 8) | (d >> 24);
    c += d; b ^= c; b = (b << 7) | (b >> 25);
}

[[gnu::always_inline]] inline void
batchX8(const std::uint32_t *state, std::uint8_t *out)
{
    U32x8 in[16];
    for (int i = 0; i < 16; i++)
        in[i] = U32x8{} + state[i];
    in[12] += U32x8{0, 1, 2, 3, 4, 5, 6, 7};

    U32x8 x[16];
    for (int i = 0; i < 16; i++)
        x[i] = in[i];
    for (int round = 0; round < 10; round++) {
        quarterRoundX8(x[0], x[4], x[8], x[12]);
        quarterRoundX8(x[1], x[5], x[9], x[13]);
        quarterRoundX8(x[2], x[6], x[10], x[14]);
        quarterRoundX8(x[3], x[7], x[11], x[15]);
        quarterRoundX8(x[0], x[5], x[10], x[15]);
        quarterRoundX8(x[1], x[6], x[11], x[12]);
        quarterRoundX8(x[2], x[7], x[8], x[13]);
        quarterRoundX8(x[3], x[4], x[9], x[14]);
    }
    for (int i = 0; i < 16; i++) {
        x[i] += in[i];
        for (int j = 0; j < 8; j++)
            store32le(out + j * kBlockBytes + 4 * i, x[i][j]);
    }
}

#ifdef RSSD_CRYPTO_X86
__attribute__((target("avx2"))) void
batchAvx2(const std::uint32_t *state, std::uint8_t *out)
{
    batchX8(state, out);
}
#endif

void
batchGeneric(const std::uint32_t *state, std::uint8_t *out)
{
    batchX8(state, out);
}

struct BatchImpl
{
    BatchFn fn;
    const char *name;
};

const BatchImpl &
pickBatch()
{
#ifdef RSSD_CRYPTO_X86
    static constexpr BatchImpl kAvx2{batchAvx2, "avx2"};
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        return kAvx2;
#endif
    static constexpr BatchImpl kGeneric{batchGeneric, "generic"};
    return kGeneric;
}

constinit const Dispatch<BatchImpl> kBatch{pickBatch};

} // namespace

ChaCha20::ChaCha20(const Key256 &key, const Nonce96 &nonce,
                   std::uint32_t counter)
    : state_(initialState(key, nonce, counter))
{
}

void
ChaCha20::refill()
{
    kBatch.get().fn(state_.data(), keystream_.data());
    state_[12] += kBatchBlocks; // block counter
    keystreamPos_ = 0;
}

void
ChaCha20::apply(std::uint8_t *data, std::size_t len)
{
    apply(data, data, len);
}

void
ChaCha20::apply(const std::uint8_t *src, std::uint8_t *dst,
                std::size_t len)
{
    while (len > 0) {
        if (keystreamPos_ == keystream_.size())
            refill();
        const std::size_t take =
            std::min(keystream_.size() - keystreamPos_, len);
        xorBytes(src, keystream_.data() + keystreamPos_, dst, take);
        keystreamPos_ += take;
        src += take;
        dst += take;
        len -= take;
    }
}

void
ChaCha20::apply(std::vector<std::uint8_t> &data)
{
    apply(data.data(), data.size());
}

Key256
ChaCha20::deriveKey(const std::string &seed)
{
    const Digest d = Sha256::hash(seed.data(), seed.size());
    Key256 key;
    std::memcpy(key.data(), d.data(), key.size());
    return key;
}

Nonce96
ChaCha20::nonceFromSequence(std::uint64_t seq)
{
    Nonce96 n{};
    for (int i = 0; i < 8; i++)
        n[i] = static_cast<std::uint8_t>(seq >> (8 * i));
    return n;
}

void
chacha20Reference(const Key256 &key, const Nonce96 &nonce,
                  std::uint32_t counter, const std::uint8_t *src,
                  std::uint8_t *dst, std::size_t len)
{
    std::array<std::uint32_t, 16> state = initialState(key, nonce, counter);
    std::uint8_t ks[kBlockBytes];
    while (len > 0) {
        blockScalar(state, ks);
        state[12]++;
        const std::size_t take = std::min(kBlockBytes, len);
        xorBytes(src, ks, dst, take);
        src += take;
        dst += take;
        len -= take;
    }
}

const char *
chacha20ImplName()
{
    return kBatch.get().name;
}

} // namespace rssd::crypto
