/**
 * @file
 * Lightweight statistics collection: counters, means, a
 * log-bucketed latency histogram with percentile queries, and the
 * field tables that declare each reported counter once.
 */

#ifndef RSSD_SIM_STATS_HH
#define RSSD_SIM_STATS_HH

#include <array>
#include <cstdint>
#include <string>

#include "sim/units.hh"

namespace rssd {

/** Running mean / min / max / count over double-valued samples. */
class Summary
{
  public:
    void add(double v);
    void merge(const Summary &other);
    void reset();

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double mean() const { return _count ? _sum / _count : 0.0; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }

  private:
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _min = 0.0;
    double _max = 0.0;
};

/**
 * Latency histogram with logarithmic buckets (2 buckets per octave)
 * covering 1 ns .. ~16 s. Percentiles are answered from bucket
 * boundaries, which is accurate to within ~41% of the true value —
 * plenty for p50/p99 *comparisons* between configurations.
 */
class LatencyHistogram
{
  public:
    static constexpr int kBuckets = 72;

    void add(Tick latency_ns);
    void merge(const LatencyHistogram &other);
    void reset();

    std::uint64_t count() const { return _count; }
    double meanNs() const { return _count ? _sumNs / _count : 0.0; }
    Tick maxNs() const { return _maxNs; }

    /** Latency at percentile @p p (0 < p <= 100), in nanoseconds.
     *  p == 100 returns maxNs() exactly. */
    Tick percentileNs(double p) const;

    /** Render "mean=… p50=… p99=… max=…" for reports. */
    std::string summary() const;

    // Bucket mapping, public for property tests: for every Tick v,
    // v <= bucketUpperBound(bucketFor(v)) must hold (the last bucket
    // is a catch-all whose upper bound is the full Tick range).
    static int bucketFor(Tick v);
    static Tick bucketUpperBound(int b);

  private:
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t _count = 0;
    double _sumNs = 0.0;
    Tick _maxNs = 0;
};

/**
 * One row of a field table: a plain constexpr array of {key, member
 * pointer} rows placed next to a stats struct, e.g.
 *
 *   inline constexpr U64Field<RepairStats> kRepairStatsFields[] = {
 *       {"enqueues", &RepairStats::enqueues}, ...};
 *
 * Metric registration (obs::MetricsRegistry::counters), report
 * emission (sim::JsonWriter::fields) and field-wise sums all walk
 * the same rows, so a counter's name and position are spelled once.
 * Row order is emission order. rssd_lint rule D3 reads the tables a
 * report TU emits, so a row added or removed without a schema bump
 * fails the lint.
 */
template <typename S>
struct U64Field
{
    const char *key;
    std::uint64_t S::*member;
};

/** Format a byte count as a human-readable string ("3.2 GiB"). */
std::string formatBytes(std::uint64_t bytes);

/** Format a tick count as a human-readable string ("12.4 ms"). */
std::string formatTime(Tick t);

} // namespace rssd

#endif // RSSD_SIM_STATS_HH
