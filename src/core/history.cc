#include "core/history.hh"

#include "sim/logging.hh"

namespace rssd::core {

DeviceHistory::DeviceHistory(RssdDevice &device)
    : device_(device)
{
    build(device.backupStore(), remote::kDefaultStream);
}

DeviceHistory::DeviceHistory(RssdDevice &device,
                             const remote::BackupStore &store,
                             remote::StreamId stream)
    : device_(device)
{
    build(store, stream);
}

DeviceHistory::DeviceHistory(RssdDevice &device,
                             const remote::BackupCluster &cluster,
                             remote::DeviceId id)
    : device_(device)
{
    const remote::ShardId src = cluster.chainVerifyingReplicaOf(id);
    panicIf(src == remote::kNoShard,
            "DeviceHistory: no live replica holds the stream");
    sourceShard_ = src;
    build(cluster.shardStore(src), id);
}

void
DeviceHistory::build(const remote::BackupStore &store,
                     remote::StreamId stream)
{
    RssdDevice &device = device_;
    VirtualClock &clock = device.clock();

    // Retention-GC horizon: entries before the first surviving
    // logSeq were expired remotely; the signed prune record is the
    // trusted statement of where history now begins.
    if (const log::PruneRecord *rec = store.pruneRecordOf(stream)) {
        pruned_ = true;
        horizonSeq_ = rec->entriesPruned;
    }

    // Fetch this device's sealed segments back over the
    // server->device direction of the link, in chain order. (In a
    // shared shard store only the device's own stream is fetched —
    // other tenants' evidence is neither needed nor decryptable
    // with this device's key.) Every stored segment crosses the
    // link, whether or not it verifies below.
    Tick t = clock.now();
    for (const std::uint32_t idx : store.streamSegments(stream)) {
        const std::uint64_t wire = store.sealedSegment(idx).wireSize();
        t = device.link().rx().transmit(wire, t);
        cost_.segmentsFetched++;
        cost_.bytesFetched += wire;
    }
    cost_.fetchCompleteAt = t;
    clock.advanceTo(t);

    // Verify and open in one pass with the device's own key: HMACs,
    // segment order and the per-entry chain (the same rules the
    // store enforced at ingest). Only the verified prefix is merged;
    // a fault leaves the suffix — and the local tail that would
    // splice onto it — out of the history.
    log::SegmentChainVerifier verifier;
    std::uint64_t pos = 0;
    // Sized once for the whole surviving history (remote + local
    // tail): growing it segment by segment fragments the heap.
    entries_.reserve(device.opLog().totalAppended() - horizonSeq_);
    fault_ = store.replayStream(
        stream, device.codec(), verifier, pos,
        [this](log::Segment &opened) {
            for (log::LogEntry &e : opened.entries)
                entries_.push_back(std::move(e));
            // Keep only the page records; the entries now live once.
            opened.entries = std::vector<log::LogEntry>();
            segments_.push_back(std::move(opened));
        });
    // The local tail must extend the last verified segment's chain
    // tail — or, with no surviving segments, the prune record's
    // anchor (everything offloaded was expired) / the genesis digest
    // (nothing was ever offloaded).
    spliceTail_ = pos > 0 ? verifier.chainTail()
                          : log::OperationLog::genesisDigest();
    if (fault_ == log::ChainFault::None) {
        for (const log::LogEntry &e : device.opLog().entries())
            entries_.push_back(e);
    }

    for (std::uint32_t i = 0; i < entries_.size(); i++)
        indexEntry(i);

    // Version records: remote page records first...
    for (const log::Segment &seg : segments_) {
        for (const log::PageRecord &p : seg.pages) {
            VersionRecord v;
            v.lpa = p.lpa;
            v.dataSeq = p.dataSeq;
            v.source = VersionSource::RemoteSegment;
            v.remote = &p;
            versions_.emplace(p.dataSeq, v);
        }
    }
    // ...then pages still held locally (not yet offloaded)...
    const ftl::PageMappedFtl &ftl = device.ftl();
    for (const log::LogEntry &e : entries_) {
        if (e.op != log::OpKind::Write)
            continue;
        if (versions_.count(e.dataSeq))
            continue;
        const auto held =
            device.retention().findByDataSeq(e.dataSeq);
        if (held) {
            VersionRecord v;
            v.lpa = held->lpa;
            v.dataSeq = held->dataSeq;
            v.source = VersionSource::HeldOnDevice;
            v.ppa = held->ppa;
            versions_.emplace(v.dataSeq, v);
        }
    }
    // ...and finally the live mappings.
    for (flash::Lpa lpa = 0; lpa < ftl.logicalPages(); lpa++) {
        const flash::Ppa ppa = ftl.mappingOf(lpa);
        if (ppa == flash::kInvalidPpa)
            continue;
        const std::uint64_t seq = ftl.nand().oob(ppa).seq;
        if (versions_.count(seq))
            continue;
        VersionRecord v;
        v.lpa = lpa;
        v.dataSeq = seq;
        v.source = VersionSource::LiveOnDevice;
        v.ppa = ppa;
        versions_.emplace(seq, v);
    }
}

void
DeviceHistory::indexEntry(std::uint32_t idx)
{
    const log::LogEntry &e = entries_[idx];
    byLpa_[e.lpa].push_back(idx);
    if (e.op == log::OpKind::Write)
        entropyBySeq_[e.dataSeq] = e.entropy;
}

bool
DeviceHistory::verifyEvidenceChain() const
{
    // The remote chain was verified as it was decoded; what is left
    // is the local tail chain and the splice between the two.
    return fault_ == log::ChainFault::None &&
           device_.opLog().verifyHeldChain() &&
           device_.opLog().anchorDigest() == spliceTail_;
}

const VersionRecord *
DeviceHistory::findVersion(std::uint64_t data_seq) const
{
    const auto it = versions_.find(data_seq);
    return it == versions_.end() ? nullptr : &it->second;
}

const std::vector<std::uint8_t> &
DeviceHistory::contentOf(const VersionRecord &version) const
{
    switch (version.source) {
      case VersionSource::RemoteSegment:
        return version.remote->content;
      case VersionSource::HeldOnDevice:
      case VersionSource::LiveOnDevice:
        return device_.ftl().nand().content(version.ppa);
    }
    return emptyContent_;
}

const std::vector<std::uint32_t> &
DeviceHistory::entriesFor(flash::Lpa lpa) const
{
    const auto it = byLpa_.find(lpa);
    return it == byLpa_.end() ? emptyIndex_ : it->second;
}

float
DeviceHistory::entropyOf(std::uint64_t data_seq) const
{
    const auto it = entropyBySeq_.find(data_seq);
    return it == entropyBySeq_.end() ? detect::kNoEntropy : it->second;
}

} // namespace rssd::core
