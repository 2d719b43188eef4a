/**
 * @file
 * SHA-256 (FIPS 180-4), implemented from scratch.
 *
 * Used for the hardware-assisted log's hash chain: each log entry's
 * digest covers the entry payload concatenated with the previous
 * digest, making the operation log tamper-evident (docs/ARCHITECTURE.md, "Table 1 defense
 * properties": tamper-evident forensics), and for the HMAC that
 * authenticates sealed segments.
 *
 * Two compress implementations live behind one entry point:
 *  - a portable scalar block function, the reference every fast path
 *    is tested against (`sha256Reference`);
 *  - a SHA-NI path, compiled into every x86-64 build and selected at
 *    runtime iff the CPU reports the feature (crypto/dispatch.hh).
 * Both produce identical digests for every input.
 */

#ifndef RSSD_CRYPTO_SHA256_HH
#define RSSD_CRYPTO_SHA256_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rssd::crypto {

/** A 256-bit digest. */
using Digest = std::array<std::uint8_t, 32>;

/** Incremental SHA-256 context. */
class Sha256
{
  public:
    Sha256();

    /** Absorb @p len bytes at @p data. */
    void update(const void *data, std::size_t len);
    void update(const std::vector<std::uint8_t> &data);

    /** Finalize and return the digest. The context must not be reused. */
    Digest finish();

    /** One-shot convenience. */
    static Digest hash(const void *data, std::size_t len);
    static Digest hash(const std::vector<std::uint8_t> &data);

  private:
    std::array<std::uint32_t, 8> state_;
    std::array<std::uint8_t, 64> buffer_;
    std::size_t bufferLen_ = 0;
    std::uint64_t totalLen_ = 0;
    bool finished_ = false;
};

/**
 * Incremental HMAC-SHA256 (RFC 2104) with a precomputed key schedule.
 *
 * Construction hashes the ipad/opad key blocks once; each message
 * then costs only the message blocks plus one outer finalization.
 * A long-lived keyed instance (e.g. a segment codec) amortizes the
 * two key blocks across every segment it seals, and update() lets
 * callers feed header + payload without concatenating them first.
 *
 * Reuse pattern: update()* -> finish(), then reset() to start the
 * next message under the same key. Copying a keyed instance is cheap
 * and copies the precomputed schedule, not the key bytes.
 */
class HmacSha256
{
  public:
    HmacSha256(const std::uint8_t *key, std::size_t key_len);

    /** Absorb message bytes. */
    void update(const void *data, std::size_t len);
    void update(const std::vector<std::uint8_t> &data);

    /** Finalize the current message. Call reset() before reuse. */
    Digest finish();

    /** Restart for a new message under the same key. */
    void reset();

  private:
    Sha256 innerInit_; ///< state after absorbing key ^ ipad
    Sha256 outerInit_; ///< state after absorbing key ^ opad
    Sha256 ctx_;       ///< running inner hash of the current message
};

/** One-shot HMAC-SHA256 over @p data with @p key. */
Digest hmacSha256(const std::uint8_t *key, std::size_t key_len,
                  const void *data, std::size_t len);

/**
 * SHA-256 of @p len bytes through the portable scalar compress only.
 * Slow; exists so tests can pin the dispatched path against it.
 */
Digest sha256Reference(const void *data, std::size_t len);

/** Name of the compress implementation Sha256 dispatches to. */
const char *sha256ImplName();

/** Render a digest as lowercase hex. */
std::string toHex(const Digest &d);

} // namespace rssd::crypto

#endif // RSSD_CRYPTO_SHA256_HH
