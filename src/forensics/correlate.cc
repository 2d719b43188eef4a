#include "forensics/correlate.hh"

#include <algorithm>

namespace rssd::forensics {

const char *
campaignClassName(CampaignClass c)
{
    switch (c) {
      case CampaignClass::Benign: return "benign";
      case CampaignClass::Outbreak: return "outbreak";
      case CampaignClass::Staggered: return "staggered";
      case CampaignClass::ShardFlood: return "shard-flood";
    }
    return "?";
}

Correlation
correlate(const EvidenceScanner &scanner,
          const CorrelationConfig &config)
{
    Correlation out;

    for (const DeviceId id : scanner.devices()) {
        const StreamEvidence &ev = scanner.evidence(id);
        DeviceFinding f;
        f.device = id;
        f.shard = ev.shard;
        f.chainIntact = ev.intact;
        f.fault = ev.fault;
        f.segments = ev.segmentsVerified;
        f.entries = ev.entries.size();
        core::OfflineScanStats stats;
        f.finding =
            core::scanEntries(ev.entries, config.scan, &stats);
        f.highOverHighWrites = stats.highOverHighWrites;
        f.floodSuspect = f.finding.detected &&
                         f.highOverHighWrites >=
                             config.floodWriteThreshold;
        f.segmentsPruned = ev.segmentsPruned;
        f.entriesPruned = ev.entriesPruned;
        f.reanchors = ev.reanchors;
        f.replicas = ev.replicas;
        f.replicasAlive = ev.replicasAlive;
        f.tailVotes = ev.tailVotes;
        f.failovers = ev.failovers;
        out.findings.push_back(std::move(f));
    }

    // Infection order: detected devices by first implicated op
    // timestamp, ties toward the lower device id.
    std::vector<const DeviceFinding *> detected;
    for (const DeviceFinding &f : out.findings) {
        if (f.finding.detected)
            detected.push_back(&f);
    }
    std::sort(detected.begin(), detected.end(),
              [](const DeviceFinding *a, const DeviceFinding *b) {
                  if (a->finding.attackStart != b->finding.attackStart)
                      return a->finding.attackStart <
                             b->finding.attackStart;
                  return a->device < b->device;
              });

    out.anyDetected = !detected.empty();
    for (const DeviceFinding *f : detected)
        out.infectionOrder.push_back(f->device);
    if (out.anyDetected)
        out.patientZero = out.infectionOrder.front();
    for (std::size_t i = 0; i + 1 < detected.size(); i++) {
        SpreadEdge e;
        e.from = detected[i]->device;
        e.to = detected[i + 1]->device;
        e.lag = detected[i + 1]->finding.attackStart -
                detected[i]->finding.attackStart;
        out.spread.push_back(e);
    }

    // Campaign shape. Flood signature dominates; otherwise the
    // median spread-edge lag separates a detonation from lateral
    // movement. The median, not the first-to-last span: one device
    // whose first implicated op trails its detonation must not turn
    // a simultaneous outbreak into a staggered one.
    if (!out.anyDetected) {
        out.campaignClass = CampaignClass::Benign;
    } else if (std::any_of(detected.begin(), detected.end(),
                           [](const DeviceFinding *f) {
                               return f->floodSuspect;
                           })) {
        out.campaignClass = CampaignClass::ShardFlood;
    } else {
        std::vector<Tick> lags;
        for (const SpreadEdge &e : out.spread)
            lags.push_back(e.lag);
        const auto mid = lags.begin() + lags.size() / 2;
        std::nth_element(lags.begin(), mid, lags.end());
        const Tick median_lag = lags.empty() ? 0 : *mid;
        out.campaignClass = median_lag <= config.outbreakSpanMax
            ? CampaignClass::Outbreak
            : CampaignClass::Staggered;
    }
    return out;
}

} // namespace rssd::forensics
