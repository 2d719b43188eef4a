#include "fleet/report.hh"

#include "sim/json.hh"

namespace rssd::fleet {
namespace {

using sim::JsonWriter;

void
emitDevice(JsonWriter &j, const DeviceReport &d)
{
    j.open('{');
    j.key("device"); j.u64(d.device);
    j.key("shard"); j.u64(d.shard);
    j.key("replicas");
    j.open('[');
    for (const remote::ShardId r : d.replicas) {
        j.elem();
        j.u64(r);
    }
    j.close(']');
    j.key("replicasLive"); j.u64(d.replicasLive);
    j.key("quarantinedCopies"); j.u64(d.quarantinedCopies);
    j.key("role"); j.str(d.role);
    j.key("attackStart"); j.u64(d.attackStart);
    j.key("attack");
    j.open('{');
    j.key("name"); j.str(d.attack.attack);
    j.key("pagesEncrypted"); j.u64(d.attack.pagesEncrypted);
    j.key("pagesTrimmed"); j.u64(d.attack.pagesTrimmed);
    j.key("junkPagesWritten"); j.u64(d.attack.junkPagesWritten);
    j.key("writeErrors"); j.u64(d.attack.writeErrors);
    j.key("startedAt"); j.u64(d.attack.startedAt);
    j.key("finishedAt"); j.u64(d.attack.finishedAt);
    j.close('}');
    j.key("victimIntact"); j.f64(d.victimIntact);
    j.key("alarms"); j.u64(d.alarms);
    j.key("firstAlarmDetector"); j.str(d.firstAlarmDetector);
    j.key("firstAlarmAt"); j.u64(d.firstAlarmAt);
    j.key("benignOps"); j.u64(d.benignOps);
    j.key("loggedWrites"); j.u64(d.rssd.loggedWrites);
    j.key("loggedTrims"); j.u64(d.rssd.loggedTrims);
    j.key("backpressureStalls"); j.u64(d.rssd.backpressureStalls);
    j.key("deviceFullErrors"); j.u64(d.rssd.deviceFullErrors);
    j.fields(d.offload, core::kOffloadStatsFields);
    j.key("retransmits"); j.u64(d.transport.retransmits);
    j.key("wireBytes"); j.u64(d.transport.bytesSent);
    j.key("finishedAt"); j.u64(d.finishedAt);
    j.close('}');
}

void
emitShard(JsonWriter &j, const ShardReport &s)
{
    j.open('{');
    j.key("shard"); j.u64(s.shard);
    j.key("status"); j.str(s.status);
    j.key("devices"); j.u64(s.devices);
    j.key("segmentsAccepted"); j.u64(s.segmentsAccepted);
    j.key("segmentsRejected"); j.u64(s.segmentsRejected);
    j.key("duplicates"); j.u64(s.duplicates);
    j.key("rejectedBytes"); j.u64(s.rejectedBytes);
    j.key("batches"); j.u64(s.batches);
    j.key("meanBatchSegments"); j.f64(s.meanBatchSegments);
    j.key("maxBatchFill"); j.u64(s.maxBatchFill);
    j.key("backpressureStalls"); j.u64(s.backpressureStalls);
    j.key("backlogP50Ns"); j.u64(s.backlogP50);
    j.key("backlogP99Ns"); j.u64(s.backlogP99);
    j.key("usedBytes"); j.u64(s.usedBytes);
    j.key("capacityBytes"); j.u64(s.capacityBytes);
    j.key("segmentsPruned"); j.u64(s.segmentsPruned);
    j.key("bytesPruned"); j.u64(s.bytesPruned);
    j.key("heldStreams"); j.u64(s.heldStreams);
    j.key("quarantined"); j.u64(s.quarantined);
    j.key("chainOk"); j.boolean(s.chainOk);
    j.close('}');
}

void
emitLatencyStage(JsonWriter &j, const char *name,
                 const LatencyHistogram &h)
{
    j.key(name);
    j.open('{');
    j.key("count"); j.u64(h.count());
    j.key("p50Ns"); j.u64(h.count() > 0 ? h.percentileNs(50) : 0);
    j.key("p99Ns"); j.u64(h.count() > 0 ? h.percentileNs(99) : 0);
    j.key("maxNs"); j.u64(h.maxNs());
    j.close('}');
}

} // namespace

std::string
FleetReport::toJson() const
{
    std::string out;
    out.reserve(4096 + deviceReports.size() * 1024);
    JsonWriter j(out);

    j.open('{');
    j.key("schema"); j.u64(kFleetReportSchema);
    j.key("fleet");
    j.open('{');
    j.key("devices"); j.u64(devices);
    j.key("shards"); j.u64(shards);
    j.key("replication"); j.u64(replication);
    j.key("liveShards"); j.u64(liveShards);
    j.key("scenario"); j.str(scenario);
    j.key("seed"); j.u64(seed);
    j.key("opsPerDevice"); j.u64(opsPerDevice);
    j.close('}');

    j.key("totals");
    j.open('{');
    j.key("pagesEncrypted"); j.u64(totalPagesEncrypted);
    j.key("pagesTrimmed"); j.u64(totalPagesTrimmed);
    j.key("junkPages"); j.u64(totalJunkPages);
    j.key("alarms"); j.u64(totalAlarms);
    j.key("segments"); j.u64(totalSegments);
    j.key("bytesStored"); j.u64(totalBytesStored);
    j.key("backpressureStalls"); j.u64(totalBackpressureStalls);
    j.key("segmentsPruned"); j.u64(totalSegmentsPruned);
    j.key("bytesPruned"); j.u64(totalBytesPruned);
    j.fields(replicationStats, remote::kReplicationStatsFields);
    j.key("offloadAckP50Ns");
    j.u64(offloadAckLatency.count() > 0
              ? offloadAckLatency.percentileNs(50)
              : 0);
    j.key("offloadAckP99Ns");
    j.u64(offloadAckLatency.count() > 0
              ? offloadAckLatency.percentileNs(99)
              : 0);
    j.key("makespanNs"); j.u64(makespan);
    j.key("allChainsOk"); j.boolean(allChainsOk);
    j.close('}');

    j.key("repair");
    j.open('{');
    j.key("enabled"); j.boolean(repairEnabled);
    j.fields(repairStats, remote::kRepairStatsFields);
    j.key("degradedAtEnd"); j.u64(degradedAtEnd);
    j.key("quarantinedAtEnd"); j.u64(quarantinedAtEnd);
    j.key("convergedAtNs"); j.u64(repairConvergedAt);
    j.close('}');

    j.key("latency");
    j.open('{');
    emitLatencyStage(j, "seal", sealLatency);
    emitLatencyStage(j, "queueWait", queueWaitLatency);
    emitLatencyStage(j, "quorumWait", quorumWaitLatency);
    emitLatencyStage(j, "repairCopy", repairCopyLatency);
    j.close('}');

    j.key("health");
    j.open('{');
    j.key("enabled"); j.boolean(health.enabled);
    j.key("intervalNs"); j.u64(health.interval);
    j.key("samples"); j.u64(health.samples);
    j.key("lastSampleAtNs"); j.u64(health.lastSampleAt);
    j.key("alertsRaised"); j.u64(health.alertsRaised);
    j.key("alertsOpen"); j.u64(health.alertsOpen);
    j.key("worstSeverity"); j.str(health.worstSeverity);
    j.key("rules");
    j.open('[');
    for (const HealthRuleReport &r : health.rules) {
        j.elem();
        j.open('{');
        j.key("id"); j.str(r.id);
        j.key("metric"); j.str(r.metric);
        j.key("severity"); j.str(r.severity);
        j.key("raised"); j.u64(r.raised);
        j.key("open"); j.boolean(r.open);
        j.close('}');
    }
    j.close(']');
    j.key("alerts");
    j.open('[');
    for (const HealthAlertReport &a : health.alerts) {
        j.elem();
        j.open('{');
        j.key("rule"); j.str(a.rule);
        j.key("severity"); j.str(a.severity);
        j.key("raisedAtNs"); j.u64(a.raisedAt);
        j.key("clearedAtNs"); j.u64(a.clearedAt);
        j.key("open"); j.boolean(a.open);
        j.key("observed"); j.u64(a.observed);
        j.close('}');
    }
    j.close(']');
    j.close('}');

    j.key("devices");
    j.open('[');
    for (const DeviceReport &d : deviceReports) {
        j.elem();
        emitDevice(j, d);
    }
    j.close(']');

    j.key("shards");
    j.open('[');
    for (const ShardReport &s : shardReports) {
        j.elem();
        emitShard(j, s);
    }
    j.close(']');

    j.close('}');
    out += '\n';
    return out;
}

} // namespace rssd::fleet
