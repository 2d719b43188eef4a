#include "crypto/sha256.hh"

#include <cstring>

#include "crypto/dispatch.hh"
#include "sim/logging.hh"

#ifdef RSSD_CRYPTO_X86
#include <immintrin.h>
#endif

namespace rssd::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5,
    0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3,
    0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5,
    0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

std::uint32_t
rotr(std::uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

constexpr std::array<std::uint32_t, 8> kInitState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

/** Absorb one 64-byte block into @p state: the portable reference. */
void
processBlock(std::uint32_t *state, const std::uint8_t *block)
{
    // Rolling 16-word message schedule: w[] is a ring holding the
    // last 16 schedule words, so the expansion runs fused with the
    // rounds instead of materializing all 64 words up front.
    std::uint32_t w[16];
    for (int i = 0; i < 16; i++) {
        w[i] = (std::uint32_t(block[i * 4]) << 24) |
               (std::uint32_t(block[i * 4 + 1]) << 16) |
               (std::uint32_t(block[i * 4 + 2]) << 8) |
               std::uint32_t(block[i * 4 + 3]);
    }

    std::uint32_t a = state[0], b = state[1], c = state[2],
                  d = state[3], e = state[4], f = state[5],
                  g = state[6], h = state[7];

    for (int i = 0; i < 64; i++) {
        std::uint32_t wi;
        if (i < 16) {
            wi = w[i];
        } else {
            const std::uint32_t w15 = w[(i - 15) & 15];
            const std::uint32_t w2 = w[(i - 2) & 15];
            const std::uint32_t s0 =
                rotr(w15, 7) ^ rotr(w15, 18) ^ (w15 >> 3);
            const std::uint32_t s1 =
                rotr(w2, 17) ^ rotr(w2, 19) ^ (w2 >> 10);
            wi = w[i & 15] + s0 + w[(i - 7) & 15] + s1;
            w[i & 15] = wi;
        }
        const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        const std::uint32_t ch = (e & f) ^ (~e & g);
        const std::uint32_t t1 = h + s1 + ch + kK[i] + wi;
        const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        const std::uint32_t t2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

/** Compress @p nblocks consecutive 64-byte blocks into @p state. */
using CompressFn = void (*)(std::uint32_t *state,
                            const std::uint8_t *blocks,
                            std::size_t nblocks);

void
compressScalar(std::uint32_t *state, const std::uint8_t *blocks,
               std::size_t nblocks)
{
    for (; nblocks > 0; nblocks--, blocks += 64)
        processBlock(state, blocks);
}

#ifdef RSSD_CRYPTO_X86
/** Four SHA-NI rounds on message words @p m (schedule group @p g). */
__attribute__((target("sha,sse4.1"), always_inline)) inline void
shaRounds4(__m128i &abef, __m128i &cdgh, __m128i m, int g)
{
    __m128i wk = _mm_add_epi32(
        m, _mm_loadu_si128(reinterpret_cast<const __m128i *>(&kK[4 * g])));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    wk = _mm_shuffle_epi32(wk, 0x0E);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
}

/** Schedule words W[t..t+3] from groups t-16, t-12, t-8 and t-4. */
__attribute__((target("sha,sse4.1"), always_inline)) inline __m128i
shaSchedule(__m128i w16, __m128i w12, __m128i w8, __m128i w4)
{
    const __m128i s0 = _mm_sha256msg1_epu32(w16, w12);
    return _mm_sha256msg2_epu32(
        _mm_add_epi32(s0, _mm_alignr_epi8(w4, w8, 4)), w4);
}

/**
 * SHA-NI compress. The hardware rounds keep the state as ABEF/CDGH
 * register pairs, so the shuffle into and out of that layout happens
 * once per run of blocks, not once per block.
 */
__attribute__((target("sha,sse4.1"))) void
compressShaNi(std::uint32_t *state, const std::uint8_t *blocks,
              std::size_t nblocks)
{
    const __m128i kByteSwap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

    __m128i tmp = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(state));         // DCBA
    __m128i cdgh = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(state + 4));     // HGFE
    tmp = _mm_shuffle_epi32(tmp, 0xB1);                     // CDAB
    cdgh = _mm_shuffle_epi32(cdgh, 0x1B);                   // EFGH
    __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);           // ABEF
    cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);                // CDGH

    for (; nblocks > 0; nblocks--, blocks += 64) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        const auto *p = reinterpret_cast<const __m128i *>(blocks);
        __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128(p), kByteSwap);
        __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128(p + 1), kByteSwap);
        __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128(p + 2), kByteSwap);
        __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128(p + 3), kByteSwap);
        shaRounds4(abef, cdgh, m0, 0);
        shaRounds4(abef, cdgh, m1, 1);
        shaRounds4(abef, cdgh, m2, 2);
        shaRounds4(abef, cdgh, m3, 3);
        for (int g = 4; g < 16; g += 4) {
            m0 = shaSchedule(m0, m1, m2, m3);
            shaRounds4(abef, cdgh, m0, g);
            m1 = shaSchedule(m1, m2, m3, m0);
            shaRounds4(abef, cdgh, m1, g + 1);
            m2 = shaSchedule(m2, m3, m0, m1);
            shaRounds4(abef, cdgh, m2, g + 2);
            m3 = shaSchedule(m3, m0, m1, m2);
            shaRounds4(abef, cdgh, m3, g + 3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    tmp = _mm_shuffle_epi32(abef, 0x1B);                    // FEBA
    cdgh = _mm_shuffle_epi32(cdgh, 0xB1);                   // DCHG
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state),
                     _mm_blend_epi16(tmp, cdgh, 0xF0));     // DCBA
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state + 4),
                     _mm_alignr_epi8(cdgh, tmp, 8));        // HGFE
}
#endif

struct CompressImpl
{
    CompressFn fn;
    const char *name;
};

const CompressImpl &
pickCompress()
{
#ifdef RSSD_CRYPTO_X86
    static constexpr CompressImpl kShaNi{compressShaNi, "sha-ni"};
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sha") &&
        __builtin_cpu_supports("sse4.1"))
        return kShaNi;
#endif
    static constexpr CompressImpl kScalar{compressScalar, "scalar"};
    return kScalar;
}

constinit const Dispatch<CompressImpl> kCompress{pickCompress};

/**
 * Pad the @p len-byte tail in @p buf (64 bytes, of which @p len are
 * message) for a @p total-byte message, compress the final block(s)
 * with @p compress and return the big-endian digest of @p state.
 */
Digest
finalize(std::uint32_t *state, std::uint8_t *buf, std::size_t len,
         std::uint64_t total, CompressFn compress)
{
    // 0x80, zeros, then the 64-bit big-endian bit length in the last
    // 8 bytes — spilling into a second block when the tail leaves no
    // room for the length.
    const std::uint64_t bit_len = total * 8;
    buf[len] = 0x80;
    std::memset(buf + len + 1, 0, 63 - len);
    if (len >= 56) {
        compress(state, buf, 1);
        std::memset(buf, 0, 64);
    }
    for (int i = 0; i < 8; i++)
        buf[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    compress(state, buf, 1);

    Digest out;
    for (int i = 0; i < 8; i++) {
        out[i * 4] = static_cast<std::uint8_t>(state[i] >> 24);
        out[i * 4 + 1] = static_cast<std::uint8_t>(state[i] >> 16);
        out[i * 4 + 2] = static_cast<std::uint8_t>(state[i] >> 8);
        out[i * 4 + 3] = static_cast<std::uint8_t>(state[i]);
    }
    return out;
}

} // namespace

Sha256::Sha256() : state_(kInitState) {}

void
Sha256::update(const void *data, std::size_t len)
{
    panicIf(finished_, "Sha256::update after finish");
    const auto *p = static_cast<const std::uint8_t *>(data);
    totalLen_ += len;
    const CompressFn compress = kCompress.get().fn;

    // Fill a partially filled buffer first.
    if (bufferLen_ > 0) {
        const std::size_t want = 64 - bufferLen_;
        const std::size_t take = std::min(want, len);
        std::memcpy(buffer_.data() + bufferLen_, p, take);
        bufferLen_ += take;
        p += take;
        len -= take;
        if (bufferLen_ == 64) {
            compress(state_.data(), buffer_.data(), 1);
            bufferLen_ = 0;
        }
    }

    // Every whole block in one call.
    if (len >= 64) {
        compress(state_.data(), p, len / 64);
        p += len & ~std::size_t{63};
        len &= 63;
    }

    if (len > 0) {
        std::memcpy(buffer_.data(), p, len);
        bufferLen_ = len;
    }
}

void
Sha256::update(const std::vector<std::uint8_t> &data)
{
    update(data.data(), data.size());
}

Digest
Sha256::finish()
{
    panicIf(finished_, "Sha256::finish called twice");
    finished_ = true;
    return finalize(state_.data(), buffer_.data(), bufferLen_, totalLen_,
                    kCompress.get().fn);
}

Digest
Sha256::hash(const void *data, std::size_t len)
{
    Sha256 ctx;
    ctx.update(data, len);
    return ctx.finish();
}

Digest
Sha256::hash(const std::vector<std::uint8_t> &data)
{
    return hash(data.data(), data.size());
}

Digest
sha256Reference(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::array<std::uint32_t, 8> state = kInitState;
    compressScalar(state.data(), p, len / 64);
    std::array<std::uint8_t, 64> tail{};
    if (len % 64 > 0)
        std::memcpy(tail.data(), p + (len - len % 64), len % 64);
    return finalize(state.data(), tail.data(), len % 64, len,
                    compressScalar);
}

const char *
sha256ImplName()
{
    return kCompress.get().name;
}

HmacSha256::HmacSha256(const std::uint8_t *key, std::size_t key_len)
{
    std::array<std::uint8_t, 64> k{};
    if (key_len > 64) {
        const Digest kd = Sha256::hash(key, key_len);
        std::memcpy(k.data(), kd.data(), kd.size());
    } else {
        std::memcpy(k.data(), key, key_len);
    }

    std::array<std::uint8_t, 64> pad;
    for (int i = 0; i < 64; i++)
        pad[i] = k[i] ^ 0x36;
    innerInit_.update(pad.data(), pad.size());
    for (int i = 0; i < 64; i++)
        pad[i] = k[i] ^ 0x5c;
    outerInit_.update(pad.data(), pad.size());

    ctx_ = innerInit_;
}

void
HmacSha256::update(const void *data, std::size_t len)
{
    ctx_.update(data, len);
}

void
HmacSha256::update(const std::vector<std::uint8_t> &data)
{
    ctx_.update(data.data(), data.size());
}

Digest
HmacSha256::finish()
{
    const Digest inner_digest = ctx_.finish();
    Sha256 outer = outerInit_;
    outer.update(inner_digest.data(), inner_digest.size());
    return outer.finish();
}

void
HmacSha256::reset()
{
    ctx_ = innerInit_;
}

Digest
hmacSha256(const std::uint8_t *key, std::size_t key_len,
           const void *data, std::size_t len)
{
    HmacSha256 mac(key, key_len);
    mac.update(data, len);
    return mac.finish();
}

std::string
toHex(const Digest &d)
{
    static const char *hex = "0123456789abcdef";
    std::string out;
    out.reserve(64);
    for (std::uint8_t byte : d) {
        out.push_back(hex[byte >> 4]);
        out.push_back(hex[byte & 0xf]);
    }
    return out;
}

} // namespace rssd::crypto
