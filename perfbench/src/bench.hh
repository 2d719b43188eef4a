/**
 * @file
 * Shared pieces of rssd_perfbench: the host stopwatch, the
 * metric record, the per-iteration result every workload returns,
 * the determinism digest and the outside-in kernel replay.
 *
 * Two clocks. Host time (the stopwatch below) measures how fast the
 * simulator produces its answers; it is read only around calls into
 * the libraries and never feeds the simulation. Simulated time comes
 * from the libraries' own VirtualClocks and reports, and is a pure
 * function of the workload and seed — every iteration, traced or
 * not, must reproduce it bit for bit, which the digest checks.
 */

#ifndef RSSD_PERFBENCH_BENCH_HH
#define RSSD_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "crypto/sha256.hh"
#include "remote/backup_store.hh"

namespace rssd::perfbench {

/** Host seconds since an arbitrary epoch. */
inline double
hostSeconds()
{
    // rssd-lint: allow-next-line(D1) benchmark host timer; host seconds are reported, never fed back into the simulation or its digests
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now.time_since_epoch())
        .count();
}

/** Host time elapsed since construction (or the last restart()). */
class Stopwatch
{
  public:
    double elapsed() const { return hostSeconds() - start_; }
    void restart() { start_ = hostSeconds(); }

  private:
    double start_ = hostSeconds();
};

/** One named value with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What one iteration of a workload produced. The host fields are
 * measured; everything else is deterministic for a given seed.
 */
struct Iteration
{
    /** First failed correctness gate; empty when all passed. */
    std::string failure;
    /** Hex SHA-256 over the iteration's deterministic outputs. */
    std::string digest;

    /** Operations attempted / failed: host commands (page
     *  operations on the fleets) plus sealed segments submitted. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Host seconds: object construction, main phase, analysis. */
    double setupS = 0.0;
    double mainS = 0.0;
    double forensicsS = 0.0;
    /** Host-issued write payload of the main phase, bytes. */
    std::uint64_t writeBytes = 0;

    /** Simulated end-to-end metrics (deterministic). */
    std::vector<Metric> sim;
    /** Per-layer metrics; filled only by traced iterations. */
    std::vector<Metric> layers;

    /** Record @p what as the failure unless one is recorded. */
    void
    require(bool ok, const std::string &what)
    {
        if (!ok && failure.empty())
            failure = what;
    }
};

/**
 * One workload: a full iteration, and its set-up alone (host seconds
 * to construct the program's objects, nothing run). @p full_gates
 * asks for the gates too costly to repeat every iteration; the
 * benchmark sets it on the first one and holds the rest to its digest.
 */
struct Workload
{
    const char *name;
    Iteration (*run)(std::uint64_t seed, bool traced, bool full_gates);
    double (*setup)(std::uint64_t seed);
};

Iteration runFleetIngest(std::uint64_t seed, bool traced, bool full_gates);
Iteration runOutbreakForensics(std::uint64_t seed, bool traced,
                               bool full_gates);
Iteration runDeviceReplay(std::uint64_t seed, bool traced,
                          bool full_gates);
double setupFleetIngest(std::uint64_t seed);
double setupOutbreakForensics(std::uint64_t seed);
double setupDeviceReplay(std::uint64_t seed);

/** Incremental SHA-256 over deterministic outputs. */
class DigestBuilder
{
  public:
    void
    add(const std::string &text)
    {
        addU64(text.size());
        sha_.update(text.data(), text.size());
    }

    void
    addU64(std::uint64_t v)
    {
        std::uint8_t le[8];
        for (int i = 0; i < 8; i++)
            le[i] = static_cast<std::uint8_t>(v >> (8 * i));
        sha_.update(le, sizeof le);
    }

    void
    add(const crypto::Digest &d)
    {
        sha_.update(d.data(), d.size());
    }

    std::string finish() { return crypto::toHex(sha_.finish()); }

  private:
    crypto::Sha256 sha_;
};

/**
 * Replay the codec and kernel layers on @p store's own stored
 * copies (at most @p budget_bytes of plaintext, storage order) and
 * append their throughputs in MB/s (10^6 bytes per host second) to
 * @p out. Gates on @p it: every stored copy verifies, opens and
 * reseals to the identical sealed bytes.
 */
void replayKernels(const remote::BackupStore &store,
                   std::uint64_t budget_bytes, Iteration &it,
                   std::vector<Metric> &out);

} // namespace rssd::perfbench

#endif // RSSD_PERFBENCH_BENCH_HH
