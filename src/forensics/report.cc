#include "forensics/report.hh"

#include "sim/json.hh"

namespace rssd::forensics {
namespace {

using sim::JsonWriter;

void
emitCost(JsonWriter &j, const ScanPassCost &c)
{
    j.open('{');
    j.fields(c, kScanPassCostFields);
    j.close('}');
}

void
emitFinding(JsonWriter &j, const DeviceFinding &f)
{
    j.open('{');
    j.key("device"); j.u64(f.device);
    j.key("shard"); j.u64(f.shard);
    j.key("chainIntact"); j.boolean(f.chainIntact);
    j.key("fault"); j.str(log::chainFaultName(f.fault));
    j.key("segments"); j.u64(f.segments);
    j.key("entries"); j.u64(f.entries);
    j.key("detected"); j.boolean(f.finding.detected);
    j.key("firstSuspectSeq"); j.u64(f.finding.firstSuspectSeq);
    j.key("lastSuspectSeq"); j.u64(f.finding.lastSuspectSeq);
    j.key("implicatedOps"); j.u64(f.finding.implicatedOps);
    j.key("attackStartNs"); j.u64(f.finding.attackStart);
    j.key("attackEndNs"); j.u64(f.finding.attackEnd);
    j.key("recoverySeq"); j.u64(f.finding.recommendedRecoverySeq);
    j.key("highOverHighWrites"); j.u64(f.highOverHighWrites);
    j.key("floodSuspect"); j.boolean(f.floodSuspect);
    j.key("segmentsPruned"); j.u64(f.segmentsPruned);
    j.key("entriesPruned"); j.u64(f.entriesPruned);
    j.key("reanchors"); j.u64(f.reanchors);
    j.key("replicas"); j.u64(f.replicas);
    j.key("replicasAlive"); j.u64(f.replicasAlive);
    j.key("tailVotes"); j.u64(f.tailVotes);
    j.key("failovers"); j.u64(f.failovers);
    j.close('}');
}

void
emitPlan(JsonWriter &j, const RestorePlan &p)
{
    j.open('{');
    j.key("policy"); j.str(planPolicyName(p.policy));
    j.key("restores");
    j.open('[');
    for (const ScheduledRestore &r : p.restores) {
        j.elem();
        j.open('{');
        j.key("device"); j.u64(r.device);
        j.key("shard"); j.u64(r.shard);
        j.key("bytes"); j.u64(r.bytes);
        j.key("startNs"); j.u64(r.startAt);
        j.key("finishNs"); j.u64(r.finishAt);
        j.close('}');
    }
    j.close(']');
    j.key("makespanNs"); j.u64(p.makespan);
    j.key("meanCompletionNs"); j.u64(p.meanCompletion);
    j.close('}');
}

} // namespace

std::string
ForensicsReport::toJson() const
{
    std::string out;
    out.reserve(4096 + correlation.findings.size() * 512);
    JsonWriter j(out);

    j.open('{');
    j.key("schema"); j.u64(kForensicsReportSchema);

    j.key("source");
    j.open('{');
    j.key("devices"); j.u64(devices);
    j.key("shards"); j.u64(shards);
    j.key("replication"); j.u64(replication);
    j.key("liveShards"); j.u64(liveShards);
    j.key("segments"); j.u64(totalSegments);
    j.key("bytesStored"); j.u64(totalBytesStored);
    j.key("segmentsPruned"); j.u64(totalSegmentsPruned);
    j.key("bytesPruned"); j.u64(totalBytesPruned);
    j.close('}');

    j.key("scan");
    j.open('{');
    j.key("passes"); j.u64(scanPasses);
    j.key("lastPass"); emitCost(j, lastPass);
    j.key("total"); emitCost(j, totalCost);
    j.close('}');

    j.key("devices");
    j.open('[');
    for (const DeviceFinding &f : correlation.findings) {
        j.elem();
        emitFinding(j, f);
    }
    j.close(']');

    j.key("correlation");
    j.open('{');
    j.key("anyDetected"); j.boolean(correlation.anyDetected);
    j.key("patientZero");
    j.u64(correlation.anyDetected ? correlation.patientZero : 0);
    j.key("infectionOrder");
    j.open('[');
    for (const DeviceId d : correlation.infectionOrder) {
        j.elem();
        j.u64(d);
    }
    j.close(']');
    j.key("spread");
    j.open('[');
    for (const SpreadEdge &e : correlation.spread) {
        j.elem();
        j.open('{');
        j.key("from"); j.u64(e.from);
        j.key("to"); j.u64(e.to);
        j.key("lagNs"); j.u64(e.lag);
        j.close('}');
    }
    j.close(']');
    j.key("campaign");
    j.str(campaignClassName(correlation.campaignClass));
    j.close('}');

    j.key("plans");
    j.open('[');
    for (const RestorePlan &p : plans) {
        j.elem();
        emitPlan(j, p);
    }
    j.close(']');

    j.key("recovery");
    j.open('{');
    j.key("executed"); j.boolean(recoveryExecuted);
    j.key("devices");
    j.open('[');
    for (const RecoveryOutcome &r : recovery) {
        j.elem();
        j.open('{');
        j.key("device"); j.u64(r.device);
        j.key("restoredFromShard"); j.u64(r.restoredFromShard);
        j.key("recoverySeq"); j.u64(r.recoverySeq);
        j.key("pagesRestored"); j.u64(r.pagesRestored);
        j.key("restoredFromRemote"); j.u64(r.restoredFromRemote);
        j.key("unresolved"); j.u64(r.unresolved);
        j.key("beforePrunedHorizon");
        j.boolean(r.beforePrunedHorizon);
        j.key("victimIntactBefore"); j.f64(r.victimIntactBefore);
        j.key("victimIntactAfter"); j.f64(r.victimIntactAfter);
        j.close('}');
    }
    j.close(']');
    j.close('}');

    j.key("groundTruth");
    j.open('{');
    j.key("known"); j.boolean(truth.known);
    j.key("scenario"); j.str(truth.scenario);
    j.key("anyInfected"); j.boolean(truth.anyInfected);
    j.key("patientZero");
    j.u64(truth.anyInfected ? truth.patientZero : 0);
    j.key("infectionOrder");
    j.open('[');
    for (const DeviceId d : truth.infectionOrder) {
        j.elem();
        j.u64(d);
    }
    j.close(']');
    j.key("patientZeroMatch"); j.boolean(patientZeroMatch);
    j.key("infectionOrderMatch"); j.boolean(infectionOrderMatch);
    j.key("campaignClassMatch"); j.boolean(campaignClassMatch);
    j.close('}');

    j.close('}');
    out += '\n';
    return out;
}

} // namespace rssd::forensics
