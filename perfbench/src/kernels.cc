/**
 * @file
 * Outside-in kernel throughputs: the codec and its kernels replayed
 * on a store's own stored copies, after the timed workload phases.
 *
 * Seal side (what offload pays per segment): SegmentCodec::seal,
 * lzCompress, ChaCha20, CRC32C, per-page entropy. Read side (what
 * ingest verify, chain verify, scrub, forensics and history fetch
 * pay): SegmentCodec::verify and open, lzDecompress, SHA-256,
 * HMAC-SHA256. Each kernel runs once over the same sample, so the
 * work is identical run to run; only host time varies.
 */

#include <algorithm>

#include "bench.hh"
#include "compress/lz.hh"
#include "crypto/chacha20.hh"
#include "crypto/crc32.hh"
#include "crypto/entropy.hh"

namespace rssd::perfbench {

namespace {

/** One stored copy with its plaintext forms, prepared untimed. */
struct Sample
{
    const log::SealedSegment *sealed = nullptr;
    const log::SegmentCodec *codec = nullptr;
    log::Segment opened;
    log::Bytes raw;        ///< serialized plaintext
    log::Bytes compressed; ///< lzCompress(raw)
};

/** Time @p body over every sample; MB/s over @p bytes_of. */
template <typename Body, typename BytesOf>
Metric
kernel(const char *name, std::vector<Sample> &samples, Body &&body,
       BytesOf &&bytes_of)
{
    double seconds = 0.0;
    std::uint64_t bytes = 0;
    for (Sample &s : samples) {
        Stopwatch sw;
        body(s);
        seconds += sw.elapsed();
        bytes += bytes_of(s);
    }
    return {name, seconds > 0.0 ? static_cast<double>(bytes) / 1e6 /
                                      seconds
                                : 0.0,
            "MB/s"};
}

} // namespace

void
replayKernels(const remote::BackupStore &store,
              std::uint64_t budget_bytes, Iteration &it,
              std::vector<Metric> &out)
{
    std::vector<Sample> samples;
    std::uint64_t raw_total = 0;
    for (std::uint64_t idx = 0;
         idx < store.segmentCount() && raw_total < budget_bytes; idx++) {
        if (store.segmentPruned(idx))
            continue;
        Sample s;
        s.sealed = &store.sealedSegment(idx);
        s.codec = &store.streamCodec(store.streamOf(idx));
        s.opened = store.openSegment(idx);
        s.raw = s.opened.serialize();
        raw_total += s.raw.size();
        samples.push_back(std::move(s));
    }
    it.require(!samples.empty(), "no stored copy to replay kernels on");

    std::size_t largest = 0;
    for (const Sample &s : samples)
        largest = std::max(largest, s.raw.size());
    log::Bytes scratch(largest);
    const crypto::Key256 key =
        crypto::ChaCha20::deriveKey("perfbench-kernel-replay");

    // -- Seal side ---------------------------------------------------------
    bool reseal_identical = true;
    out.push_back(kernel(
        "log.seal_MBps", samples,
        [&](Sample &s) {
            const log::SealedSegment again = s.codec->seal(s.opened);
            reseal_identical = reseal_identical &&
                               again.payload == s.sealed->payload &&
                               again.hmac == s.sealed->hmac;
        },
        [](const Sample &s) { return s.raw.size(); }));
    it.require(reseal_identical,
               "resealing a stored segment changed its bytes");
    out.push_back(kernel(
        "compress.lz_compress_MBps", samples,
        [](Sample &s) { s.compressed = compress::lzCompress(s.raw); },
        [](const Sample &s) { return s.raw.size(); }));
    out.push_back(kernel(
        "crypto.chacha20_MBps", samples,
        [&](Sample &s) {
            crypto::ChaCha20 cipher(
                key, crypto::ChaCha20::nonceFromSequence(s.sealed->id));
            cipher.apply(s.raw.data(), scratch.data(), s.raw.size());
        },
        [](const Sample &s) { return s.raw.size(); }));
    out.push_back(kernel(
        "crypto.crc32c_MBps", samples,
        [](Sample &s) { crypto::crc32c(s.sealed->payload); },
        [](const Sample &s) { return s.sealed->payload.size(); }));
    out.push_back(kernel(
        "crypto.entropy_MBps", samples,
        [](Sample &s) {
            for (const log::PageRecord &p : s.opened.pages)
                crypto::shannonEntropy(p.content);
        },
        [](const Sample &s) {
            std::uint64_t b = 0;
            for (const log::PageRecord &p : s.opened.pages)
                b += p.content.size();
            return b;
        }));

    // -- Read side ---------------------------------------------------------
    bool verified = true;
    out.push_back(kernel(
        "log.verify_MBps", samples,
        [&](Sample &s) {
            verified = verified && s.codec->verify(*s.sealed);
        },
        [](const Sample &s) { return s.sealed->wireSize(); }));
    it.require(verified, "a stored copy failed HMAC verification");
    out.push_back(kernel(
        "log.open_MBps", samples,
        [](Sample &s) { s.codec->open(*s.sealed); },
        [](const Sample &s) { return s.raw.size(); }));
    bool roundtrip = true;
    out.push_back(kernel(
        "compress.lz_decompress_MBps", samples,
        [&](Sample &s) {
            roundtrip = roundtrip &&
                        compress::lzDecompress(s.compressed,
                                               s.raw.size()) == s.raw;
        },
        [](const Sample &s) { return s.raw.size(); }));
    it.require(roundtrip, "LZ roundtrip changed a segment");
    out.push_back(kernel(
        "crypto.sha256_MBps", samples,
        [](Sample &s) { crypto::Sha256::hash(s.sealed->payload); },
        [](const Sample &s) { return s.sealed->payload.size(); }));
    crypto::HmacSha256 hmac(key.data(), key.size());
    out.push_back(kernel(
        "crypto.hmac_sha256_MBps", samples,
        [&](Sample &s) {
            hmac.reset();
            hmac.update(s.sealed->payload);
            hmac.finish();
        },
        [](const Sample &s) { return s.sealed->payload.size(); }));

    out.push_back({"kernels.sample_bytes", static_cast<double>(raw_total),
                   "bytes"});
}

} // namespace rssd::perfbench
