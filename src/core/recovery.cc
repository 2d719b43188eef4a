#include "core/recovery.hh"

#include <unordered_map>

namespace rssd::core {

RecoveryEngine::RecoveryEngine(DeviceHistory &history)
    : history_(history)
{
}

RecoveryReport
RecoveryEngine::recoverToTime(Tick t)
{
    // Find the first entry past t; entries are in timestamp order.
    // logSeqs are dense but start at the pruned horizon, not
    // necessarily 0 — target by the entry's own logSeq.
    const auto &entries = history_.entries();
    std::uint64_t target = entries.empty()
        ? history_.prunedHorizonSeq()
        : entries.back().logSeq + 1;
    for (const log::LogEntry &e : entries) {
        if (e.timestamp > t) {
            target = e.logSeq;
            break;
        }
    }
    // A time before the oldest surviving entry names a pre-horizon
    // state: refuse loudly (the entries that defined it are gone).
    // With NO surviving entries, every time target is unprovably
    // post-horizon — same refusal, never a silent no-op "success".
    if (history_.pruned() &&
        (entries.empty() || t < entries.front().timestamp)) {
        RecoveryReport report;
        report.startedAt = history_.device().clock().now();
        report.finishedAt = report.startedAt;
        report.beforePrunedHorizon = true;
        return report;
    }
    return recoverToLogSeq(target);
}

RecoveryReport
RecoveryEngine::recoverToLogSeq(std::uint64_t target_seq)
{
    return recoverFiltered(target_seq,
                           [](flash::Lpa) { return true; });
}

RecoveryReport
RecoveryEngine::recoverRange(flash::Lpa first, std::uint64_t count,
                             std::uint64_t target_seq)
{
    return recoverFiltered(target_seq, [first, count](flash::Lpa lpa) {
        return lpa >= first && lpa < first + count;
    });
}

template <typename InScope>
RecoveryReport
RecoveryEngine::recoverFiltered(std::uint64_t target_seq,
                                InScope &&in_scope)
{
    RssdDevice &device = history_.device();
    RecoveryReport report;
    report.startedAt = device.clock().now();
    report.bytesFetched = history_.cost().bytesFetched;

    // Trust and retention-GC guards: a history cut short by a chain
    // fault, or a target before the first surviving entry, cannot
    // be reconstructed — fail clearly instead of restoring part of
    // it.
    report.chainBroken = history_.chainFault() != log::ChainFault::None;
    report.beforePrunedHorizon =
        history_.pruned() && target_seq < history_.prunedHorizonSeq();
    if (report.chainBroken || report.beforePrunedHorizon) {
        report.finishedAt = report.startedAt;
        return report;
    }

    // 1. Replay: live version of each touched LBA at the target.
    //    kNoDataSeq means "unmapped at target".
    std::unordered_map<flash::Lpa, std::uint64_t> live;
    for (const log::LogEntry &e : history_.entries()) {
        if (e.logSeq >= target_seq)
            break;
        if (e.op == log::OpKind::Write)
            live[e.lpa] = e.dataSeq;
        else if (e.op == log::OpKind::Trim)
            live[e.lpa] = log::kNoDataSeq;
    }

    // 2. Collect the LBAs that were touched anywhere in history;
    //    anything written only after the target must be rolled back
    //    too (to its pre-target state, usually unmapped).
    std::unordered_map<flash::Lpa, bool> touched;
    for (const log::LogEntry &e : history_.entries())
        touched[e.lpa] = true;

    const ftl::PageMappedFtl &ftl = device.ftl();
    for (const auto &[lpa, _] : touched) {
        if (!in_scope(lpa))
            continue;
        report.lpasExamined++;

        const auto it = live.find(lpa);
        const std::uint64_t want =
            it == live.end() ? log::kNoDataSeq : it->second;

        // Pruned-history guard: "no entry before the target" is
        // only proof of emptiness when history is complete. If this
        // LPA's earliest surviving entry replaced a pre-horizon
        // version (prevDataSeq points behind the horizon), its
        // pre-target state existed but was expired — count it
        // unresolved instead of destructively trimming it.
        if (it == live.end() && history_.pruned()) {
            const auto &idxs = history_.entriesFor(lpa);
            if (!idxs.empty() &&
                history_.entries()[idxs.front()].prevDataSeq !=
                    log::kNoDataSeq) {
                report.unresolved++;
                continue;
            }
        }

        // Current state.
        const flash::Ppa cur_ppa = ftl.mappingOf(lpa);
        const std::uint64_t have = cur_ppa == flash::kInvalidPpa
            ? log::kNoDataSeq
            : ftl.nand().oob(cur_ppa).seq;

        if (want == have)
            continue;

        if (want == log::kNoDataSeq) {
            // Roll back to "never written / trimmed".
            device.trimPage(lpa);
            report.unmappedRestored++;
            continue;
        }

        const VersionRecord *version = history_.findVersion(want);
        if (!version) {
            report.unresolved++;
            continue;
        }

        const std::vector<std::uint8_t> &content =
            history_.contentOf(*version);
        device.writePage(lpa, content);
        report.pagesRestored++;
        if (version->source == VersionSource::RemoteSegment)
            report.restoredFromRemote++;
        else
            report.restoredFromLocal++;
    }

    report.finishedAt = device.clock().now();
    return report;
}

} // namespace rssd::core
