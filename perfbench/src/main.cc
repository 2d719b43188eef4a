/**
 * @file
 * rssd_perfbench: run one benchmark workload for a fixed host-time
 * budget and print its metrics as one JSON line.
 *
 *   rssd_perfbench --workload fleet-ingest|outbreak-forensics|
 *                  device-replay [--seed N] [--seconds S] [--trace 0|1]
 *
 * --trace 0 repeats untraced iterations until the budget is spent and
 * reports the end-to-end metrics: host-time medians over the
 * iterations (at a nominal host speed, see kNominalReferenceS),
 * simulated values (identical in every iteration) and peak memory. --trace 1 alternates untraced and traced iterations
 * and reports the per-layer metrics (medians over traced
 * iterations) plus the tracing overhead: the traced phase sums minus
 * the untraced ones.
 *
 * Every iteration passes the workload's correctness gates, and every
 * iteration — traced or not — must produce the same determinism
 * digest and simulated values; otherwise the run prints
 * "correct": false with no metrics and exits 1.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hh"

using namespace rssd;
using namespace rssd::perfbench;

namespace {

constexpr Workload kWorkloads[] = {
    {"fleet-ingest", runFleetIngest, setupFleetIngest},
    {"outbreak-forensics", runOutbreakForensics, setupOutbreakForensics},
    {"device-replay", runDeviceReplay, setupDeviceReplay},
};

/** The per-layer metrics, in BENCHMARK.json order. A workload that
 *  does not exercise a layer reports it as 0. */
struct LayerDef
{
    const char *name;
    const char *unit;
};

constexpr LayerDef kLayers[] = {
    {"fleet.ctor_s", "s"},
    {"fleet.run_s", "s"},
    {"remote.verify_all_s", "s"},
    {"remote.ingest_s", "s"},
    {"core.submit_s", "s"},
    {"core.device_self_s", "s"},
    {"core.drain_s", "s"},
    {"core.history_s", "s"},
    {"core.recovery_s", "s"},
    {"core.analyze_s", "s"},
    {"core.analyzer.implicated_ops", "count"},
    {"nvme.local_submit_s", "s"},
    {"forensics.scan_s", "s"},
    {"forensics.analyze_s", "s"},
    {"forensics.segments_verified", "count"},
    {"forensics.bytes_verified", "bytes"},
    {"forensics.cache_hit_ratio", "ratio"},
    {"log.seal_MBps", "MB/s"},
    {"compress.lz_compress_MBps", "MB/s"},
    {"crypto.chacha20_MBps", "MB/s"},
    {"crypto.crc32c_MBps", "MB/s"},
    {"crypto.entropy_MBps", "MB/s"},
    {"log.verify_MBps", "MB/s"},
    {"log.open_MBps", "MB/s"},
    {"compress.lz_decompress_MBps", "MB/s"},
    {"crypto.sha256_MBps", "MB/s"},
    {"crypto.hmac_sha256_MBps", "MB/s"},
    {"kernels.sample_bytes", "bytes"},
    {"core.offload.segments_sealed", "count"},
    {"core.offload.bytes_raw", "bytes"},
    {"core.offload.bytes_sealed", "bytes"},
    {"core.offload.compression_ratio", "ratio"},
    {"core.offload.parks", "count"},
    {"net.transport.bytes_sent", "bytes"},
    {"net.transport.retransmits", "count"},
    {"remote.ingest.segments_accepted", "count"},
    {"remote.ingest.segments_rejected", "count"},
    {"remote.copies_per_sealed_segment", "ratio"},
    {"remote.quorum_writes", "count"},
    {"remote.repair.segments_copied", "count"},
    {"remote.scrub.segments_verified", "count"},
    {"remote.scrub.corruptions_found", "count"},
    {"ftl.waf", "ratio"},
    {"ftl.gc_erases", "count"},
    {"ftl.gc_held_moves", "count"},
    {"detect.alarms", "count"},
    {"obs.health_samples", "count"},
    {"core.seal_p99_us", "us-bucket"},
    {"remote.queue_wait_p99_us", "us-bucket"},
    {"remote.quorum_wait_p99_us", "us-bucket"},
    {"sim_repair_converge_ms", "ms"},
    {"sim_restore_makespan_ms", "ms"},
    {"sim_write_p50_us", "us"},
    {"sim_write_p99_us", "us"},
    {"sim_write_samples", "count"},
    {"sim_overhead_pct", "%"},
    {"failed_frac", "ratio"},
    {"host.reference_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.overhead_pct", "%"},
};

/** Simulated end-to-end metrics every workload reports. */
constexpr const char *kSimEndToEnd[] = {"sim_makespan_ms",
                                        "remote_bytes_per_user_byte"};

constexpr std::size_t kMinIterations = 3;
/** Extra set-up-only samples per run (set-up takes microseconds to
 *  milliseconds, so one per iteration is too few for a steady
 *  median). */
constexpr int kSetupSamples = 101;

/**
 * Host time is reported at a nominal host speed. The host is shared
 * and its speed drifts by tens of percent over minutes, so each
 * iteration's host measurements are multiplied by kNominalReferenceS
 * over the mean time a fixed reference loop took just before and
 * just after it. The loop is bench-owned integer code shaped like
 * SHA-256 rounds: no change to the libraries can move it, while a
 * slower or faster host moves both. kNominalReferenceS is its
 * typical time on the host in README.md.
 */
constexpr std::uint32_t kReferenceRounds = 40000000;
constexpr double kNominalReferenceS = 0.135;

/** Keeps the reference loop's result live. */
volatile std::uint32_t referenceSink = 0;

double
referenceSeconds()
{
    Stopwatch sw;
    std::uint32_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
    for (std::uint32_t k = 0; k < kReferenceRounds; k++) {
        const std::uint32_t s1 = (e >> 6 | e << 26) ^ (e >> 11 | e << 21);
        const std::uint32_t t1 = h + s1 + ((e & f) ^ (~e & g)) + k;
        const std::uint32_t s0 = (a >> 2 | a << 30) ^ (a >> 13 | a << 19);
        const std::uint32_t t2 = s0 + ((a & b) ^ (a & c) ^ (b & c));
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    referenceSink = a ^ e;
    return sw.elapsed();
}

/** Rescale @p it's host measurements by @p scale (nominal/actual). */
void
toNominal(Iteration &it, double scale)
{
    it.setupS *= scale;
    it.mainS *= scale;
    it.forensicsS *= scale;
    for (Metric &m : it.layers) {
        if (m.unit == "s")
            m.value *= scale;
        else if (m.unit == "MB/s")
            m.value /= scale;
    }
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "rssd_perfbench: %s\nusage: rssd_perfbench --workload "
                 "fleet-ingest|outbreak-forensics|device-replay "
                 "[--seed N] [--seconds S] [--trace 0|1]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseU64(const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        usage("expected a whole number");
    return v;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
phaseSum(const Iteration &it)
{
    return it.setupS + it.mainS + it.forensicsS;
}

const Metric *
find(const std::vector<Metric> &metrics, const std::string &name)
{
    for (const Metric &m : metrics) {
        if (m.name == name)
            return &m;
    }
    return nullptr;
}

bool
knownLayer(const std::string &name)
{
    for (const LayerDef &l : kLayers) {
        if (name == l.name)
            return true;
    }
    return false;
}

/** First reason the iterations do not hold up; empty when sound. */
std::string
checkIterations(const std::vector<Iteration> &all)
{
    for (const Iteration &it : all) {
        if (!it.failure.empty())
            return "gate failed: " + it.failure;
        if (it.digest != all.front().digest)
            return "determinism digest differs between iterations";
        if (it.sim.size() != all.front().sim.size())
            return "simulated metrics differ between iterations";
        for (std::size_t i = 0; i < it.sim.size(); i++) {
            if (it.sim[i].name != all.front().sim[i].name ||
                it.sim[i].value != all.front().sim[i].value) {
                return "simulated metric " + it.sim[i].name +
                       " differs between iterations";
            }
        }
        for (const Metric &m : it.layers) {
            if (!knownLayer(m.name))
                return "undeclared per-layer metric " + m.name;
        }
    }
    return {};
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    const char *sep = "";
    for (const Metric &m : metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    m.name.c_str(), m.value, m.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 7;
    std::uint64_t seconds = 35;
    bool trace = false;
    for (int i = 1; i < argc; i++) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload") {
            for (const Workload &w : kWorkloads) {
                if (std::strcmp(value, w.name) == 0)
                    workload = &w;
            }
            if (workload == nullptr)
                usage("unknown workload");
        } else if (flag == "--seed") {
            seed = parseU64(value);
        } else if (flag == "--seconds") {
            seconds = parseU64(value);
        } else if (flag == "--trace") {
            const std::uint64_t t = parseU64(value);
            if (t > 1)
                usage("--trace takes 0 or 1");
            trace = t == 1;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (workload == nullptr)
        usage("--workload is required");

    std::printf("rssd_perfbench: workload %s, seed %llu, %llu s, "
                "trace %d\n",
                workload->name, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(seconds), trace ? 1 : 0);
    std::fflush(stdout);

    // Untraced iterations (and, with --trace 1, a traced twin after
    // each) until the next round would overrun the budget.
    const auto budget = static_cast<double>(seconds);
    std::vector<Iteration> untraced;
    std::vector<Iteration> traced;
    Stopwatch total;
    std::vector<double> references{referenceSeconds()};
    // Nominal scale for a measurement taken since the last reference.
    const auto nominalScale = [&references]() {
        const double before = references.back();
        references.push_back(referenceSeconds());
        return kNominalReferenceS / ((before + references.back()) / 2.0);
    };
    double round_s = 0.0;
    while (true) {
        Stopwatch round;
        for (int pass = 0; pass < (trace ? 2 : 1); pass++) {
            const bool tr = pass == 1;
            Iteration it =
                workload->run(seed, tr, untraced.empty() && !tr);
            const double scale = nominalScale();
            std::printf("  %s iteration %zu: setup %.4f s, main %.4f s, "
                        "analysis %.4f s, reference %.4f s, digest "
                        "%s%s%s\n",
                        tr ? "traced  " : "untraced",
                        (tr ? traced : untraced).size() + 1, it.setupS,
                        it.mainS, it.forensicsS, references.back(),
                        it.digest.c_str(),
                        it.failure.empty() ? "" : ", FAILED: ",
                        it.failure.c_str());
            std::fflush(stdout);
            toNominal(it, scale);
            const bool failed = !it.failure.empty();
            (tr ? traced : untraced).push_back(std::move(it));
            if (failed)
                break;
        }
        round_s = round.elapsed();
        const std::size_t need = trace ? 1 : kMinIterations;
        if (!untraced.back().failure.empty() ||
            (!traced.empty() && !traced.back().failure.empty()))
            break;
        if (untraced.size() >= need &&
            total.elapsed() + round_s > budget)
            break;
    }

    std::vector<Iteration> all = untraced;
    all.insert(all.end(), traced.begin(), traced.end());
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const Iteration &it : all) {
        attempted += it.attempted;
        failed += it.failed;
    }
    std::string problem = checkIterations(all);
    if (problem.empty() && failed != 0)
        problem = "operations failed";
    if (!problem.empty()) {
        std::printf("FAIL: %s\n", problem.c_str());
        printResult(false, attempted, failed, {});
        return 1;
    }
    const Iteration &first = all.front();
    std::printf("digest %s seed %llu: %s\n", workload->name,
                static_cast<unsigned long long>(seed),
                first.digest.c_str());

    std::vector<Metric> out;
    if (!trace) {
        std::vector<double> setup, mibps, analysis;
        for (int i = 0; i < kSetupSamples; i++)
            setup.push_back(workload->setup(seed));
        const double setup_scale = nominalScale();
        for (double &t : setup)
            t *= setup_scale;
        for (const Iteration &it : untraced) {
            setup.push_back(it.setupS);
            mibps.push_back(static_cast<double>(it.writeBytes) /
                            static_cast<double>(units::MiB) / it.mainS);
            analysis.push_back(it.forensicsS);
        }
        rusage usage_now{};
        getrusage(RUSAGE_SELF, &usage_now);
        out.push_back({"setup_s", median(setup), "s"});
        out.push_back({"host_write_MiBps", median(mibps), "MiB/s"});
        out.push_back({"forensics_s", median(analysis), "s"});
        out.push_back({"peak_rss_MiB",
                       static_cast<double>(usage_now.ru_maxrss) / 1024.0,
                       "MiB"});
        for (const char *name : kSimEndToEnd) {
            const Metric *m = find(first.sim, name);
            if (m == nullptr) {
                std::printf("FAIL: workload reported no %s\n", name);
                printResult(false, attempted, failed, {});
                return 1;
            }
            out.push_back(*m);
        }
    } else {
        std::vector<double> plain_sum, traced_sum;
        for (const Iteration &it : untraced)
            plain_sum.push_back(phaseSum(it));
        for (const Iteration &it : traced)
            traced_sum.push_back(phaseSum(it));
        const double overhead = median(traced_sum) - median(plain_sum);
        for (const LayerDef &l : kLayers) {
            double value = 0.0;
            std::vector<double> samples;
            for (const Iteration &it : traced) {
                if (const Metric *m = find(it.layers, l.name))
                    samples.push_back(m->value);
            }
            if (!samples.empty()) {
                value = median(samples);
            } else if (const Metric *m = find(first.sim, l.name)) {
                value = m->value;
            } else if (std::strcmp(l.name, "failed_frac") == 0) {
                value = static_cast<double>(failed) /
                        static_cast<double>(attempted);
            } else if (std::strcmp(l.name, "host.reference_s") == 0) {
                value = median(references);
            } else if (std::strcmp(l.name, "trace.overhead_s") == 0) {
                value = overhead;
            } else if (std::strcmp(l.name, "trace.overhead_pct") == 0) {
                value = overhead / median(plain_sum) * 100.0;
            }
            out.push_back({l.name, value, l.unit});
        }
    }
    for (const Metric &m : out) {
        if (!std::isfinite(m.value)) {
            std::printf("FAIL: metric %s is not finite\n", m.name.c_str());
            printResult(false, attempted, failed, {});
            return 1;
        }
    }
    printResult(true, attempted, failed, out);
    return 0;
}
