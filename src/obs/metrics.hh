/**
 * @file
 * MetricsRegistry: named counters, gauges and latency histograms
 * with one deterministic snapshotJson().
 *
 * Instruments are *sampled*, not pushed: a module registers a name
 * plus a closure that reads its live state, so registration costs
 * nothing on the hot path and a snapshot always reflects the state
 * at the moment it is taken. Registration order is the emission
 * order (stable registration order is part of the determinism
 * contract — same config, same seed, same bytes), and duplicate
 * names panic at registration time rather than silently shadowing.
 *
 * This is the instrumentation floor the per-module ad-hoc totals
 * structs grow toward: OffloadEngine, BackupCluster, RepairEngine,
 * the FleetScheduler and the forensics scanner all register their
 * instruments here (registerMetrics() methods), and callers render
 * one document via sim/json.hh.
 *
 * Field tables: a stats struct that feeds both this registry and a
 * report JSON (RepairStats, OffloadStats, ScanPassCost, the shared
 * ReplicationStats fields) declares its counters once, as a
 * constexpr {key, member pointer} table next to the struct
 * (U64Field, sim/stats.hh). counters() registers one counter per row, named
 * prefix + key, and the report emits the same rows through
 * sim::JsonWriter::fields(), so a report value and the registry
 * sample of the same name can never drift apart.
 *
 * Determinism contract (documented, not libc luck — pinned by
 * tests/obs/metrics_test.cc):
 *  - duplicate or empty instrument names panic at registration time,
 *    and the panic message names the offending instrument;
 *  - integer instruments (counters, levels, histogram summaries)
 *    render via the fixed "%llu" path;
 *  - doubles (gauges, histogram meanNs) render via the pinned
 *    "%.17g" format in sim::JsonWriter::f64() — 17 significant
 *    digits round-trip every IEEE-754 double exactly, so two
 *    identical samples always produce identical bytes.
 */

#ifndef RSSD_OBS_METRICS_HH
#define RSSD_OBS_METRICS_HH

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace rssd::obs {

/** Layout version of the snapshotJson() document. Bump in lockstep
 *  with any change to the snapshot's key set (rssd_lint rule D3
 *  pins the pair via tools/manifests/obs_metrics.keys). */
constexpr std::uint64_t kMetricsSnapshotSchema = 1;

/** The four instrument kinds a registry can hold. */
enum class InstrumentKind : std::uint8_t {
    Counter,   ///< monotonic u64 (rates may be derived)
    Level,     ///< point-in-time u64 (queue depth; no rate)
    Gauge,     ///< point-in-time double
    Histogram, ///< latency distribution snapshot
};

/**
 * One instrument's sampled value — the structured form of a
 * snapshotJson() cell, so the TimeSeriesSampler and HealthMonitor
 * can read values without parsing JSON. Exactly one of u64 / f64 /
 * hist is meaningful, per kind (u64 covers Counter and Level).
 */
struct MetricSample
{
    InstrumentKind kind = InstrumentKind::Counter;
    std::uint64_t u64 = 0;
    double f64 = 0.0;
    LatencyHistogram hist;
};

class MetricsRegistry
{
  public:
    using U64Fn = std::function<std::uint64_t()>;
    using F64Fn = std::function<double()>;
    /** Sampled by value so a provider may merge several live
     *  histograms into the returned snapshot. */
    using HistFn = std::function<LatencyHistogram()>;

    /** Monotonic counter (emitted as a JSON integer). */
    void counter(const std::string &name, U64Fn sample);

    /** One counter per row of a field table (sim/stats.hh), named
     *  @p prefix + row key and registered in row order; each samples
     *  @p stats live, so @p stats must outlive the registry. */
    template <typename S, std::size_t N>
    void
    counters(const std::string &prefix, const S &stats,
             const U64Field<S> (&table)[N])
    {
        for (const U64Field<S> &f : table) {
            counter(prefix + f.key,
                    [&stats, m = f.member] { return stats.*m; });
        }
    }

    /** Integer point-in-time value, e.g. a queue depth (emitted as
     *  a JSON integer; never rate-derived — it may go down). */
    void level(const std::string &name, U64Fn sample);

    /** Point-in-time value (emitted as a JSON number). */
    void gauge(const std::string &name, F64Fn sample);

    /** Latency histogram (emitted as {count, meanNs, p50Ns, p99Ns,
     *  maxNs}). */
    void histogram(const std::string &name, HistFn sample);

    std::size_t size() const { return instruments_.size(); }

    /** Instrument name / kind at registration index @p idx. */
    const std::string &nameAt(std::size_t idx) const;
    InstrumentKind kindAt(std::size_t idx) const;

    /** Index of instrument @p name, or npos when unregistered. */
    static constexpr std::size_t npos = ~std::size_t{0};
    std::size_t indexOf(const std::string &name) const;

    /**
     * Sample every instrument into @p out (resized to size()),
     * registration order. The structured twin of snapshotJson(),
     * shared by the TimeSeriesSampler and HealthMonitor.
     */
    void sampleInto(std::vector<MetricSample> &out) const;

    /**
     * Sample every instrument and render one JSON document, keys in
     * registration order:
     *   {"schema":1,"metrics":{"<name>":<value>,...}}
     */
    std::string snapshotJson() const;

  private:
    struct Instrument
    {
        InstrumentKind kind;
        std::string name;
        U64Fn u64;
        F64Fn f64;
        HistFn hist;
    };

    void claimName(const std::string &name);
    void addU64(InstrumentKind kind, const std::string &name,
                U64Fn sample);

    std::vector<Instrument> instruments_;
    std::set<std::string> names_; ///< duplicate-registration guard
};

} // namespace rssd::obs

#endif // RSSD_OBS_METRICS_HH
