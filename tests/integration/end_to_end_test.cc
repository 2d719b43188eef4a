/**
 * @file
 * End-to-end integration: the full paper story in one scenario —
 * normal use, a stealthy multi-phase attack, offload, analysis,
 * recovery — plus cross-module consistency checks.
 */

#include <gtest/gtest.h>

#include "attack/ransomware.hh"
#include "baseline/rssd_defense.hh"
#include "core/analyzer.hh"
#include "core/recovery.hh"
#include "core/rssd_device.hh"
#include "forensics/evidence.hh"
#include "nvme/local_ssd.hh"
#include "workload/generator.hh"

namespace rssd {
namespace {

core::RssdConfig
config()
{
    core::RssdConfig cfg = core::RssdConfig::forTests();
    cfg.segmentPages = 32;
    cfg.pumpThreshold = 48;
    return cfg;
}

TEST(EndToEnd, FullIncidentLifecycle)
{
    VirtualClock clock;
    core::RssdDevice dev(config(), clock);

    // --- Phase 1: months of normal use (compressed) --------------------
    attack::VictimDataset victim(0, 96);
    victim.populate(dev);

    workload::TraceGenerator gen(workload::traceByName("usr"),
                                 dev.capacityPages(), 21);
    workload::ReplayOptions opts;
    opts.maxRequests = 1500;
    opts.withContent = true;
    workload::replay(dev, clock, gen, opts);
    clock.advance(units::HOUR);

    // Some victim pages edited after the generic churn. The working
    // set is placed mid-device, so victims at LPA 0..95 are intact.
    ASSERT_DOUBLE_EQ(victim.intactFraction(dev), 1.0);

    // --- Phase 2: the attack (timing-style, stealthy) -------------------
    const Tick attack_start = clock.now();
    attack::TimingAttack::Params params;
    params.encryptionInterval = units::SEC;
    params.benignOpsPerEncrypt = 24;
    attack::TimingAttack attack(params);
    attack.run(dev, clock, victim);
    ASSERT_DOUBLE_EQ(victim.intactFraction(dev), 0.0);

    // --- Phase 3: post-attack analysis ---------------------------------
    dev.drainOffload();
    core::DeviceHistory history(dev);
    ASSERT_TRUE(history.verifyEvidenceChain());

    core::PostAttackAnalyzer analyzer(history);
    const core::AnalysisReport analysis = analyzer.analyze();
    ASSERT_TRUE(analysis.chainIntact);
    ASSERT_TRUE(analysis.finding.detected);
    // The detected window starts at (or before) the real start.
    EXPECT_LE(analysis.finding.attackStart, attack_start +
              params.encryptionInterval);

    // --- Phase 4: recovery ----------------------------------------------
    core::RecoveryEngine engine(history);
    const core::RecoveryReport recovery = engine.recoverToLogSeq(
        analysis.finding.recommendedRecoverySeq);
    EXPECT_TRUE(recovery.ok());
    EXPECT_DOUBLE_EQ(victim.intactFraction(dev), 1.0);
    EXPECT_GT(recovery.pagesRestored, 0u);
}

TEST(EndToEnd, PerformanceOverheadIsSmall)
{
    // The paper's <1% claim, at test scale: RSSD throughput within a
    // few percent of the undefended LocalSSD on the same trace.
    const auto &profile = workload::traceByName("ts");

    VirtualClock c_base;
    ftl::FtlConfig ftl_cfg = config().ftl;
    nvme::LocalSsd base(ftl_cfg, c_base);
    workload::TraceGenerator g1(profile, base.capacityPages(), 31);
    workload::ReplayOptions opts;
    opts.maxRequests = 4000;
    const workload::ReplayStats s_base =
        workload::replay(base, c_base, g1, opts);

    VirtualClock c_rssd;
    core::RssdDevice rssd(config(), c_rssd);
    workload::TraceGenerator g2(profile, rssd.capacityPages(), 31);
    const workload::ReplayStats s_rssd =
        workload::replay(rssd, c_rssd, g2, opts);

    ASSERT_EQ(s_base.errors, 0u);
    ASSERT_EQ(s_rssd.errors, 0u);
    const double base_mibps = s_base.writeMiBps(base.pageSize());
    const double rssd_mibps = s_rssd.writeMiBps(rssd.pageSize());
    EXPECT_GT(rssd_mibps, base_mibps * 0.93);
}

TEST(EndToEnd, LifetimeImpactIsSmall)
{
    const auto &profile = workload::traceByName("wdev");

    VirtualClock c_base;
    nvme::LocalSsd base(config().ftl, c_base);
    workload::TraceGenerator g1(profile, base.capacityPages(), 41);
    workload::ReplayOptions opts;
    opts.maxRequests = 8000;
    workload::replay(base, c_base, g1, opts);

    VirtualClock c_rssd;
    core::RssdDevice rssd(config(), c_rssd);
    workload::TraceGenerator g2(profile, rssd.capacityPages(), 41);
    workload::replay(rssd, c_rssd, g2, opts);

    const double waf_base = base.ftl().stats().waf();
    const double waf_rssd = rssd.ftl().stats().waf();
    // Retained pages are offloaded, not GC-copied forever: WAF must
    // stay close to baseline.
    EXPECT_LT(waf_rssd, waf_base * 1.25 + 0.1);
}

TEST(EndToEnd, AnalyzerAndRecoveryAgreeAfterMixedAttacks)
{
    // Trimming + classic burst in one incident.
    VirtualClock clock;
    core::RssdDevice dev(config(), clock);
    attack::VictimDataset victim(0, 64);
    attack::VictimDataset victim2(64, 64);
    victim.populate(dev);
    victim2.populate(dev);
    clock.advance(units::MINUTE);

    attack::ClassicRansomware classic;
    classic.run(dev, clock, victim);
    attack::TrimmingAttack trimming;
    trimming.run(dev, clock, victim2);

    dev.drainOffload();
    core::DeviceHistory history(dev);
    core::PostAttackAnalyzer analyzer(history);
    const core::AnalysisReport report = analyzer.analyze();
    ASSERT_TRUE(report.finding.detected);

    core::RecoveryEngine engine(history);
    ASSERT_TRUE(engine
                    .recoverToLogSeq(
                        report.finding.recommendedRecoverySeq)
                    .ok());
    EXPECT_DOUBLE_EQ(victim.intactFraction(dev), 1.0);
    EXPECT_DOUBLE_EQ(victim2.intactFraction(dev), 1.0);
}

TEST(EndToEnd, RssdDefenseWrapperMatchesManualPipeline)
{
    VirtualClock clock;
    baseline::RssdDefense defense(config(), clock);
    attack::VictimDataset victim(0, 64);
    victim.populate(defense.device());

    const Tick t0 = clock.now();
    attack::ClassicRansomware attack;
    attack.run(defense.device(), clock, victim);
    defense.attemptRecovery(victim, t0);

    EXPECT_TRUE(defense.lastAnalysis().chainIntact);
    EXPECT_TRUE(defense.lastRecovery().ok());
    EXPECT_DOUBLE_EQ(victim.intactFraction(defense.device()), 1.0);
}

/** Writes @p pages pages (LPAs cycling over 16) and drains offload,
 *  then leaves a few more entries in the local (un-offloaded) tail. */
void
writeWithLocalTail(core::RssdDevice &dev, int pages)
{
    for (int i = 0; i < pages + 3; i++) {
        if (i == pages)
            dev.drainOffload();
        dev.writePage(static_cast<flash::Lpa>(i % 16),
                      std::vector<std::uint8_t>(
                          dev.pageSize(), static_cast<std::uint8_t>(i)));
    }
}

/** Log entries held by the first @p k stored segments of @p stream. */
std::uint64_t
entriesBefore(const remote::BackupStore &store, remote::StreamId stream,
              std::uint64_t k)
{
    std::uint64_t n = 0;
    for (std::uint64_t i = 0; i < k; i++)
        n += store.openSegment(store.streamSegments(stream)[i])
                 .entries.size();
    return n;
}

TEST(EndToEnd, OneStoredFaultFailsEveryReaderClosed)
{
    // The same rot in the k-th stored segment, read by every stored-
    // chain reader: each must stop at the fault, say so, and keep
    // running — never abort, never merge past it.
    core::RssdConfig cfg = core::RssdConfig::forTests();
    cfg.segmentPages = 8;
    cfg.pumpThreshold = 8;
    constexpr std::uint64_t k = 2;

    VirtualClock clock, twin_clock;
    core::RssdDevice dev(cfg, clock);
    core::RssdDevice twin(cfg, twin_clock);
    writeWithLocalTail(dev, 64);
    writeWithLocalTail(twin, 64);
    ASSERT_GT(dev.opLog().size(), 0u);
    remote::BackupStore &store = dev.backupStore();
    ASSERT_GT(store.streamSegments(remote::kDefaultStream).size(), k + 1);
    store.injectBitRot(remote::kDefaultStream, k, 7, 5);

    // 1. The store's own whole-stream check.
    EXPECT_FALSE(store.verifyStreamChain(remote::kDefaultStream));
    EXPECT_TRUE(twin.backupStore().verifyStreamChain(
        remote::kDefaultStream));

    // 2. DeviceHistory + analyzer: chain reported broken, history
    //    ends with the segment before the rot (no later segment and
    //    no local tail), fetch cost unchanged.
    core::DeviceHistory history(dev);
    core::DeviceHistory twin_history(twin);
    EXPECT_EQ(history.chainFault(), log::ChainFault::BadAuthentication);
    EXPECT_EQ(twin_history.chainFault(), log::ChainFault::None);
    core::PostAttackAnalyzer analyzer(history);
    EXPECT_FALSE(analyzer.analyze().chainIntact);
    EXPECT_FALSE(history.verifyEvidenceChain());

    const std::uint64_t prefix = entriesBefore(
        twin.backupStore(), remote::kDefaultStream, k);
    ASSERT_GT(prefix, 0u);
    ASSERT_EQ(history.entries().size(), prefix);
    for (std::uint64_t i = 0; i < prefix; i++)
        EXPECT_EQ(history.entries()[i].chain,
                  twin_history.entries()[i].chain);
    EXPECT_GT(twin_history.entries().size(), prefix);

    EXPECT_EQ(history.cost().segmentsFetched,
              twin_history.cost().segmentsFetched);
    EXPECT_EQ(history.cost().bytesFetched,
              twin_history.cost().bytesFetched);
    EXPECT_EQ(history.cost().fetchCompleteAt,
              twin_history.cost().fetchCompleteAt);

    // Recovery refuses a history cut short by the fault rather than
    // restoring the part it can see.
    core::RecoveryEngine engine(history);
    const core::RecoveryReport rec = engine.recoverToLogSeq(0);
    EXPECT_TRUE(rec.chainBroken);
    EXPECT_FALSE(rec.ok());
    EXPECT_EQ(rec.pagesRestored, 0u);

    // 3. The forensics scanner on a cluster copy with the same rot.
    remote::BackupClusterConfig ccfg;
    ccfg.shards = 1;
    remote::BackupCluster cluster(ccfg);
    remote::ClusterPortal portal(cluster, 0);
    VirtualClock fleet_clock;
    core::RssdDevice fleet_dev(cfg, fleet_clock, portal);
    cluster.attachDevice(0, fleet_dev.codec());
    writeWithLocalTail(fleet_dev, 64);
    cluster.mutableShardStore(0).injectBitRot(0, k, 7, 5);

    forensics::EvidenceScanner scanner(cluster);
    scanner.scan();
    const forensics::StreamEvidence &ev = scanner.evidence(0);
    EXPECT_FALSE(ev.intact);
    EXPECT_EQ(ev.fault, history.chainFault());
    EXPECT_EQ(ev.segmentsVerified, k);
    EXPECT_EQ(ev.entries.size(),
              entriesBefore(cluster.shardStore(0), 0, k));
}

} // namespace
} // namespace rssd
