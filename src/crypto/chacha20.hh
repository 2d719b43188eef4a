/**
 * @file
 * ChaCha20 stream cipher (RFC 8439), implemented from scratch.
 *
 * Two users:
 *  - RSSD's offload engine encrypts sealed log segments before they
 *    leave the device over NVMe-oE.
 *  - The ransomware attack models encrypt victim data for real, so
 *    that entropy-based detectors see genuine ciphertext statistics.
 *
 * The keystream is generated eight blocks per refill by one
 * vector-extension kernel, compiled as an AVX2 variant (selected at
 * runtime iff the CPU reports it; crypto/dispatch.hh) and a
 * baseline-ISA variant. `chacha20Reference` is the one-block scalar
 * oracle; every path produces identical bytes.
 */

#ifndef RSSD_CRYPTO_CHACHA20_HH
#define RSSD_CRYPTO_CHACHA20_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "crypto/dispatch.hh"

namespace rssd::crypto {

using Key256 = std::array<std::uint8_t, 32>;
using Nonce96 = std::array<std::uint8_t, 12>;

/**
 * ChaCha20 keystream generator / XOR cipher. Encryption and
 * decryption are the same operation.
 */
class ChaCha20
{
  public:
    /**
     * @param key      256-bit key
     * @param nonce    96-bit nonce; must be unique per (key, stream)
     * @param counter  initial 32-bit block counter (usually 0)
     */
    ChaCha20(const Key256 &key, const Nonce96 &nonce,
             std::uint32_t counter = 0);

    /** XOR the keystream into @p len bytes at @p data, in place. */
    void apply(std::uint8_t *data, std::size_t len);

    /**
     * XOR the keystream over @p len bytes at @p src into @p dst.
     * @p dst must not partially overlap @p src (equal is fine); lets
     * decrypt-and-copy run as one pass instead of copy-then-decrypt.
     */
    void apply(const std::uint8_t *src, std::uint8_t *dst,
               std::size_t len);

    /** Convenience: encrypt/decrypt a whole vector in place. */
    void apply(std::vector<std::uint8_t> &data);

    /** Derive a Key256 from an arbitrary seed string (via SHA-256). */
    static Key256 deriveKey(const std::string &seed);

    /** Build a nonce from a 64-bit sequence number. */
    static Nonce96 nonceFromSequence(std::uint64_t seq);

    /** Keystream blocks generated per refill (one SIMD batch). */
    static constexpr std::size_t kBatchBlocks = 8;

  private:
    void refill();

    std::array<std::uint32_t, 16> state_;
    std::array<std::uint8_t, 64 * kBatchBlocks> keystream_;
    std::size_t keystreamPos_ = 64 * kBatchBlocks; // empty
};

/**
 * XOR the keystream for (@p key, @p nonce, @p counter) over @p len
 * bytes at @p src into @p dst, one block at a time through the
 * portable scalar block function. Slow; exists so tests can pin the
 * dispatched batch path against it.
 */
void chacha20Reference(const Key256 &key, const Nonce96 &nonce,
                       std::uint32_t counter, const std::uint8_t *src,
                       std::uint8_t *dst, std::size_t len);

/** Name of the batch implementation ChaCha20 dispatches to. */
const char *chacha20ImplName();

/**
 * Write ChaCha20::kBatchBlocks keystream blocks for the 16-word
 * RFC 8439 @p state to @p out; block j uses counter state[12] + j
 * (mod 2^32).
 */
using ChaCha20BatchFn = void (*)(const std::uint32_t *state,
                                 std::uint8_t *out);

/**
 * Every keystream batch kernel, in pick order: ChaCha20 runs the
 * first one the CPU supports.
 */
std::span<const Candidate<ChaCha20BatchFn>> chacha20Candidates();

} // namespace rssd::crypto

#endif // RSSD_CRYPTO_CHACHA20_HH
