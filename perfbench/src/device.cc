/**
 * @file
 * The device-replay workload: one core::RssdDevice and one
 * nvme::LocalSsd on identical geometry replay the same pre-generated
 * `src` trace closed-loop at queue depth 1 (the paper's P1 setup),
 * with the RSSD offloading into a bench-owned remote::BackupStore.
 *
 * The device is small enough that the replay overwrites it more
 * than twice, so FTL garbage collection and held-page relocation
 * keep cycling. Simulated write latencies are exact (every
 * Completion's ticks, no histogram buckets), which makes the
 * RSSD-vs-LocalSSD overhead exact too.
 */

#include <algorithm>
#include <cstdio>
#include <optional>

#include "bench.hh"
#include "compress/datagen.hh"
#include "core/analyzer.hh"
#include "core/history.hh"
#include "core/rssd_device.hh"
#include "nvme/local_ssd.hh"
#include "workload/generator.hh"

namespace rssd::perfbench {

namespace {

constexpr std::uint64_t kRequests = 5000;
/** Distinct page payloads the writes cycle through (bounds the
 *  bench-owned input memory at 32 MiB). */
constexpr std::size_t kPoolPages = 8192;
constexpr std::uint64_t kKernelBudgetBytes = 16 * units::MiB;

/**
 * The P1 bench FTL (8 channels x 4 chips x 2 planes, same GC
 * watermarks) shrunk to 48 MiB: 3 blocks per plane of 64 pages, so
 * GC still chooses among 192 blocks.
 */
ftl::FtlConfig
ftlConfig()
{
    ftl::FtlConfig cfg;
    cfg.geometry = flash::benchGeometry(1);
    cfg.geometry.blocksPerPlane = 3;
    cfg.geometry.pagesPerBlock = 64;
    cfg.opFraction = 0.07;
    cfg.gcLowWater = 8;
    cfg.gcHighWater = 16;
    return cfg;
}

core::RssdConfig
rssdConfig()
{
    core::RssdConfig cfg;
    cfg.ftl = ftlConfig();
    cfg.segmentPages = 256;
    cfg.pumpThreshold = 512;
    cfg.remote.capacityBytes = 64ull * units::GiB;
    return cfg;
}

/** The replayed request stream and the page payloads it writes. */
struct Inputs
{
    std::uint64_t seed = 0;
    std::vector<workload::Request> requests;
    std::vector<std::uint8_t> pool; ///< kPoolPages pages
    std::uint32_t pageSize = 0;
};

const Inputs &
inputsFor(std::uint64_t seed, std::uint64_t capacity_pages,
          std::uint32_t page_size)
{
    static std::optional<Inputs> cached;
    if (cached && cached->seed == seed)
        return *cached;
    cached.emplace();
    Inputs &in = *cached;
    in.seed = seed;
    in.pageSize = page_size;
    const workload::TraceProfile &profile =
        workload::traceByName("src");
    workload::TraceGenerator gen(profile, capacity_pages, seed);
    in.requests.reserve(kRequests);
    for (std::uint64_t i = 0; i < kRequests; i++)
        in.requests.push_back(gen.next());
    compress::DataGenerator data(seed ^ 0x5eedc0de,
                                 profile.compressibility);
    in.pool.reserve(kPoolPages * page_size);
    for (std::size_t p = 0; p < kPoolPages; p++) {
        const compress::Bytes page = data.page(page_size);
        in.pool.insert(in.pool.end(), page.begin(), page.end());
    }
    return in;
}

/** Fill @p cmd for request @p i; writes take the next pool pages. */
void
makeCommand(const Inputs &in, std::size_t i, std::size_t &pool_cursor,
            nvme::Command &cmd)
{
    const workload::Request &r = in.requests[i];
    cmd.op = r.op;
    cmd.lpa = r.lpa;
    cmd.npages = r.npages;
    cmd.data.clear();
    if (r.op != nvme::Opcode::Write)
        return;
    for (std::uint32_t p = 0; p < r.npages; p++) {
        const auto *page =
            in.pool.data() + (pool_cursor % kPoolPages) * in.pageSize;
        cmd.data.insert(cmd.data.end(), page, page + in.pageSize);
        pool_cursor++;
    }
}

/** Bench-owned remote end that times every ingest it forwards. */
class TimedTarget : public net::CapsuleTarget
{
  public:
    explicit TimedTarget(remote::BackupStore &store) : store_(store) {}

    bool
    ingestSegment(const log::SealedSegment &segment, Tick arrive_at,
                  Tick &ack_ready_at) override
    {
        Stopwatch sw;
        const bool ok =
            store_.ingestSegment(segment, arrive_at, ack_ready_at);
        seconds_ += sw.elapsed();
        return ok;
    }

    double seconds() const { return seconds_; }

  private:
    remote::BackupStore &store_;
    double seconds_ = 0.0;
};

/** Exact nearest-rank @p pct-th percentile of @p sorted, in us. */
double
percentileUs(const std::vector<Tick> &sorted, std::size_t pct)
{
    if (sorted.empty())
        return 0.0;
    const std::size_t rank =
        std::max<std::size_t>(1, (pct * sorted.size() + 99) / 100);
    return static_cast<double>(sorted[rank - 1]) /
           static_cast<double>(units::US);
}

/** The program's objects for one iteration, in construction order. */
struct Rig
{
    /** Traced rigs interpose the timing wrapper between device and
     *  store; untraced ones hand the device the store itself. */
    explicit Rig(bool traced)
        : store(cfg.remote, log::SegmentCodec::fromSeed(cfg.keySeed)),
          rssd(cfg, rssdClock,
               traced ? static_cast<net::CapsuleTarget &>(
                            timed.emplace(store))
                      : store),
          local(cfg.ftl, localClock)
    {
    }

    const core::RssdConfig cfg = rssdConfig();
    VirtualClock rssdClock;
    VirtualClock localClock;
    remote::BackupStore store;
    std::optional<TimedTarget> timed;
    core::RssdDevice rssd;
    nvme::LocalSsd local;
};

} // namespace

double
setupDeviceReplay(std::uint64_t)
{
    Stopwatch sw;
    const Rig rig(false);
    return sw.elapsed();
}

Iteration
runDeviceReplay(std::uint64_t seed, bool traced, bool full_gates)
{
    Iteration it;
    Stopwatch sw;
    Rig rig(traced);
    it.setupS = sw.elapsed();
    core::RssdDevice &rssd = rig.rssd;
    nvme::LocalSsd &local = rig.local;
    remote::BackupStore &store = rig.store;

    const Inputs &in =
        inputsFor(seed, rssd.capacityPages(), rssd.pageSize());
    const std::size_t n = in.requests.size();

    // -- Main phase: RSSD replay + drain -----------------------------------
    std::vector<Tick> rssd_lat(n);
    std::vector<Tick> local_lat(n);
    std::vector<std::uint8_t> written(rssd.capacityPages(), 0);
    std::uint64_t pages_written = 0;
    std::uint64_t rssd_failed = 0;
    std::uint64_t local_failed = 0;
    nvme::Command cmd;
    std::size_t cursor = 0;
    double submit_s = 0.0;
    for (std::size_t i = 0; i < n; i++) {
        makeCommand(in, i, cursor, cmd);
        sw.restart();
        const nvme::Completion c = rssd.submit(cmd);
        submit_s += sw.elapsed();
        rssd_failed += c.ok() ? 0 : 1;
        rssd_lat[i] = c.latency();
        if (cmd.op == nvme::Opcode::Write) {
            pages_written += cmd.npages;
            std::fill_n(written.begin() + static_cast<std::ptrdiff_t>(
                                              cmd.lpa),
                        cmd.npages, 1);
        }
    }
    const Tick rssd_elapsed = rig.rssdClock.now();
    const double ingest_in_submit = traced ? rig.timed->seconds() : 0.0;
    sw.restart();
    rssd.drainOffload();
    const double drain_s = sw.elapsed();
    it.mainS = submit_s + drain_s;
    it.writeBytes = pages_written * rssd.pageSize();

    // -- The same inputs through the undefended baseline -------------------
    cursor = 0;
    double local_s = 0.0;
    for (std::size_t i = 0; i < n; i++) {
        makeCommand(in, i, cursor, cmd);
        sw.restart();
        const nvme::Completion c = local.submit(cmd);
        local_s += sw.elapsed();
        local_failed += c.ok() ? 0 : 1;
        local_lat[i] = c.latency();
    }
    const Tick local_elapsed = rig.localClock.now();

    // -- Analysis: history fetch + post-attack analyzer --------------------
    sw.restart();
    core::DeviceHistory history(rssd, store, remote::kDefaultStream);
    const double history_s = sw.elapsed();
    core::PostAttackAnalyzer analyzer(history);
    sw.restart();
    const core::AnalysisReport analysis = analyzer.analyze();
    const double analyze_s = sw.elapsed();
    it.forensicsS = history_s + analyze_s;

    // -- Deterministic outputs --------------------------------------------
    const remote::BackupStore::StreamTail tail =
        store.streamTail(remote::kDefaultStream);
    DigestBuilder digest;
    for (std::size_t i = 0; i < n; i++) {
        digest.addU64(rssd_lat[i]);
        digest.addU64(local_lat[i]);
    }
    digest.addU64(rssd_elapsed);
    digest.addU64(local_elapsed);
    digest.addU64(tail.lastId);
    digest.add(tail.chainTail);
    digest.addU64(store.stats().segmentsAccepted);
    digest.addU64(store.stats().bytesStored);
    digest.addU64(analysis.totalEntries);
    digest.addU64(analysis.finding.implicatedOps);
    it.digest = digest.finish();

    const core::OffloadStats &off = rssd.offload().stats();
    const net::TransportStats &tx = rssd.transport().stats();
    it.attempted = 2 * n + off.segmentsSealed;
    it.failed = rssd_failed + local_failed + tx.segmentsRejected;

    std::vector<Tick> writes;
    for (std::size_t i = 0; i < n; i++) {
        if (in.requests[i].op == nvme::Opcode::Write)
            writes.push_back(rssd_lat[i]);
    }
    std::sort(writes.begin(), writes.end());

    it.sim.push_back({"sim_makespan_ms",
                      static_cast<double>(rssd_elapsed) /
                          static_cast<double>(units::MS),
                      "ms"});
    it.sim.push_back({"remote_bytes_per_user_byte",
                      static_cast<double>(store.usedBytes()) /
                          static_cast<double>(it.writeBytes),
                      "ratio"});
    it.sim.push_back({"sim_write_p50_us", percentileUs(writes, 50), "us"});
    it.sim.push_back({"sim_write_p99_us", percentileUs(writes, 99), "us"});
    it.sim.push_back({"sim_write_samples",
                      static_cast<double>(writes.size()), "count"});
    it.sim.push_back({"sim_overhead_pct",
                      (static_cast<double>(rssd_elapsed) -
                       static_cast<double>(local_elapsed)) /
                          static_cast<double>(local_elapsed) * 100.0,
                      "%"});

    // -- Correctness gates ----------------------------------------------
    it.require(rssd_failed == 0, "RSSD command failed");
    it.require(local_failed == 0, "LocalSSD command failed");
    it.require(tx.segmentsRejected == 0, "store refused a segment");
    it.require(pages_written >= 2 * rssd.capacityPages(),
               "replay overwrote the device less than twice");
    // The store's own full-chain pass costs as much as the analysis;
    // later iterations are held to the first one's digest instead.
    if (full_gates) {
        std::printf("  device-replay: %llu pages written over %llu "
                    "exported (%.2fx)\n",
                    static_cast<unsigned long long>(pages_written),
                    static_cast<unsigned long long>(rssd.capacityPages()),
                    static_cast<double>(pages_written) /
                        static_cast<double>(rssd.capacityPages()));
        it.require(store.verifyFullChain(), "store chain after drain");
    }
    it.require(analysis.chainIntact, "analyzer evidence chain");
    // Read back every written LPA from both devices.
    for (std::uint64_t lpa = 0; lpa < written.size(); lpa++) {
        if (written[lpa] == 0)
            continue;
        const nvme::Completion a = rssd.readPage(lpa);
        const nvme::Completion b = local.readPage(lpa);
        if (!a.ok() || !b.ok() || a.data != b.data) {
            it.require(false, "read-back differs between RSSD and "
                              "LocalSSD");
            break;
        }
    }

    if (!traced)
        return it;

    // -- Per-layer (traced) -------------------------------------------------
    std::vector<Metric> &m = it.layers;
    const double ingest_s = rig.timed->seconds();
    m.push_back({"remote.ingest_s", ingest_s, "s"});
    m.push_back({"core.submit_s", submit_s, "s"});
    m.push_back({"core.device_self_s", submit_s - ingest_in_submit, "s"});
    m.push_back({"core.drain_s", drain_s, "s"});
    m.push_back({"nvme.local_submit_s", local_s, "s"});
    m.push_back({"core.history_s", history_s, "s"});
    m.push_back({"core.analyze_s", analyze_s, "s"});
    m.push_back({"core.analyzer.implicated_ops",
                 static_cast<double>(analysis.finding.implicatedOps),
                 "count"});
    replayKernels(store, kKernelBudgetBytes, it, m);

    const ftl::FtlStats &f = rssd.ftl().stats();
    m.push_back({"core.offload.segments_sealed",
                 static_cast<double>(off.segmentsSealed), "count"});
    m.push_back({"core.offload.bytes_raw",
                 static_cast<double>(off.bytesRaw), "bytes"});
    m.push_back({"core.offload.bytes_sealed",
                 static_cast<double>(off.bytesSealed), "bytes"});
    m.push_back({"core.offload.compression_ratio",
                 off.compressionRatio(), "ratio"});
    m.push_back({"core.offload.parks", static_cast<double>(off.parks),
                 "count"});
    m.push_back({"net.transport.bytes_sent",
                 static_cast<double>(tx.bytesSent), "bytes"});
    m.push_back({"net.transport.retransmits",
                 static_cast<double>(tx.retransmits), "count"});
    m.push_back({"remote.ingest.segments_accepted",
                 static_cast<double>(store.stats().segmentsAccepted),
                 "count"});
    m.push_back({"remote.ingest.segments_rejected",
                 static_cast<double>(store.stats().segmentsRejected),
                 "count"});
    m.push_back({"remote.copies_per_sealed_segment",
                 static_cast<double>(store.liveSegmentCount()) /
                     static_cast<double>(off.segmentsSealed),
                 "ratio"});
    m.push_back({"ftl.waf", f.waf(), "ratio"});
    m.push_back({"ftl.gc_erases", static_cast<double>(f.gcErases),
                 "count"});
    m.push_back({"ftl.gc_held_moves", static_cast<double>(f.gcHeldMoves),
                 "count"});
    m.push_back({"core.seal_p99_us",
                 static_cast<double>(
                     rssd.offload().sealLatency().percentileNs(99)) /
                     static_cast<double>(units::US),
                 "us-bucket"});
    return it;
}

} // namespace rssd::perfbench
