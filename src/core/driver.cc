#include "core/driver.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iterator>
#include <latch>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "core/config_flags.hh"
#include "trace/buffer.hh"
#include "trace/candidates.hh"
#include "trace/iter.hh"
#include "trace/page_index.hh"

namespace xfd::core
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now() - t0).count();
}

/** Paranoia mode: XFD_DELTA_VALIDATE is set. */
bool
deltaValidate()
{
    static const bool validate =
        std::getenv("XFD_DELTA_VALIDATE") != nullptr;
    return validate;
}

/**
 * Paranoia mode (XFD_DELTA_VALIDATE=1): @p pool must equal @p image
 * byte for byte after every restore, at campaign start (the snapshot
 * against the pool it was taken from) and at campaign end (the pool
 * against the final pre-failure image). A mismatch means a mutation
 * path missed markDirty() or the write-log index missed a write. The
 * equivalence suite runs its campaigns under this check.
 */
void
validatePool(const pm::CowImage &image, const pm::PmPool &pool,
             const char *what, std::uint32_t seq)
{
    if (!deltaValidate())
        return;
    std::size_t off = image.firstMismatch(pool.data());
    if (off != SIZE_MAX) {
        panic("%s diverged at seq %u: pool offset %#zx (page %zu) "
              "pool=%02x",
              what, seq, off, off / DetectorConfig::deltaPageSize,
              pool.data()[off]);
    }
}

/**
 * The shadow's frontier, its build billed to the plan phase as an
 * uncounted interval.
 */
CellFrontier
frontierOf(const ShadowPM &shadow, CampaignStats &stats)
{
    obs::ScopedPhase timer(&stats.phases, obs::Phase::Plan);
    timer.setCount(0);
    return shadow.frontier();
}

} // namespace

Driver::PreCursor::PreCursor(AddrRange range,
                             const DetectorConfig &cfg,
                             const pm::CowImage &initial)
    : shadow(range, cfg, true), image(initial)
{
    if (cfg.crashStatesOn() || cfg.crashImageMode) {
        durable = initial;
        shadow.reportDecided(&decided);
    }
}

Driver::PointCandidates::PointCandidates(const ShadowPM &shadow,
                                         const CellFrontier &cf,
                                         const trace::TraceBuffer &pre)
    : commitBits(cf.seqs.size())
{
    for (std::size_t b = 0; b < cf.seqs.size(); b++) {
        const auto &e = pre[cf.seqs[b]];
        if (shadow.overlapsCommitVar({e.addr, e.addr + e.size}))
            commitBits.set(b);
        for (const CellRun &r : cf.runsOf[b]) {
            runs.push_back({shadow.cellAddr(r.first),
                            shadow.cellAddr(r.end),
                            static_cast<std::uint32_t>(b)});
        }
    }
    std::sort(runs.begin(), runs.end(),
              [](const RunBit &x, const RunBit &y) { return x.lo < y.lo; });
    maxHi.reserve(runs.size());
    Addr hi = 0;
    for (const RunBit &r : runs) {
        hi = std::max(hi, r.hi);
        maxHi.push_back(hi);
    }
}

trace::SubsetMask
Driver::PointCandidates::readBits(const RecoveryRun &run) const
{
    // Bit b is read iff a cell of cf.runsOf[b] overlaps the footprint.
    // Per range: the runs starting before its end, walked down while
    // the running maximum of their ends still reaches its begin.
    trace::SubsetMask bits(commitBits.size());
    if (runs.empty())
        return bits;
    const Addr lo = runs.front().lo;
    const Addr hi = maxHi.back();
    run.forEachRead([&](AddrRange r) {
        if (r.end <= lo || r.begin >= hi)
            return;
        auto it = std::lower_bound(
            runs.begin(), runs.end(), r.end,
            [](const RunBit &x, Addr a) { return x.lo < a; });
        for (auto i = static_cast<std::size_t>(it - runs.begin());
             i-- > 0 && maxHi[i] > r.begin;) {
            if (runs[i].hi > r.begin)
                bits.set(runs[i].bit);
        }
    });
    return bits;
}

const Driver::PointCandidates::Executed *
Driver::PointCandidates::match(const trace::SubsetMask &mask) const
{
    for (const Executed &e : executed) {
        if (mask.agreesOn(e.mask, e.decisive))
            return &e;
    }
    return nullptr;
}

/**
 * Campaign-global crash-state context: parsed --crash-states knobs and
 * the equivalence-class pruning set all workers share.
 */
struct Driver::CrashStateCtx
{
    bool exhaustive = false;
    std::size_t sampleCount = 0;
    std::mutex lock;
    /**
     * The pruning set, keyed on (group id, mask): per group id, each
     * mask's representative — the failure point whose run of that
     * candidate stands for every later one.
     */
    std::vector<std::map<trace::SubsetMask, std::uint32_t>> seen;
};

void
CampaignStats::merge(CampaignStats &&o)
{
    postExecutions += o.postExecutions;
    postTraceEntries += o.postTraceEntries;
    crashStatesEnumerated += o.crashStatesEnumerated;
    crashStatesExplored += o.crashStatesExplored;
    crashStatesPruned += o.crashStatesPruned;
    crashStatesReadEquivalent += o.crashStatesReadEquivalent;
    crashPruned.insert(crashPruned.end(),
                       std::make_move_iterator(o.crashPruned.begin()),
                       std::make_move_iterator(o.crashPruned.end()));
    crashReadEquivalent.insert(
        crashReadEquivalent.end(),
        std::make_move_iterator(o.crashReadEquivalent.begin()),
        std::make_move_iterator(o.crashReadEquivalent.end()));
    checksPerformed += o.checksPerformed;
    checksSkipped += o.checksSkipped;
    for (std::size_t i = 0; i < trace::opCount; i++)
        postOps[i] += o.postOps[i];
    postExecLatencyUs.merge(o.postExecLatencyUs);
    restore.merge(o.restore);
    // Phase counts are serial/parallel-invariant; with workers the
    // summed seconds are CPU time.
    phases.merge(o.phases);
}

std::size_t
CampaignResult::count(BugType t) const
{
    std::size_t n = 0;
    for (const auto &b : bugs) {
        if (b.type == t)
            n++;
    }
    return n;
}

std::string
CampaignResult::summary() const
{
    std::string batched;
    if (stats.batchGroups) {
        batched = strprintf(", batched %zu groups (+%zu folded)",
                            stats.batchGroups, stats.lintPrunedPoints);
    } else if (stats.lintPrunedPoints) {
        batched =
            strprintf(", lint-pruned %zu", stats.lintPrunedPoints);
    }
    std::string s = strprintf(
        "=== XFDetector report: %zu finding(s) ===\n"
        "failure points: %zu (candidates %zu, elided %zu%s), "
        "post-failure executions: %zu\n"
        "time: pre %.3fs, post %.3fs, backend %.3fs\n",
        bugs.size(), stats.failurePoints, stats.orderingCandidates,
        stats.elidedPoints, batched.c_str(), stats.postExecutions,
        stats.preSeconds(), stats.postSeconds(), stats.backendSeconds());
    if (stats.crashStatesEnumerated) {
        s += strprintf(
            "crash states: %zu partial candidate(s) explored "
            "(+%zu pruned as equivalent, +%zu read-equivalent), "
            "partial-image findings: %zu\n",
            stats.crashStatesExplored, stats.crashStatesPruned,
            stats.crashStatesReadEquivalent, partialImageFindings());
    }
    for (const auto &b : bugs)
        s += b.str() + "\n";
    return s;
}

std::size_t
CampaignResult::partialImageFindings() const
{
    std::size_t n = 0;
    for (const auto &b : bugs) {
        if (b.persistedMask.size() && !b.persistedMask.all())
            n++;
    }
    return n;
}

std::string
CampaignResult::fingerprint() const
{
    // One line per finding, sorted: the same identity the test
    // harness and the CI batch-smoke job compare. Deliberately
    // excludes occurrence counts, failure-point seqs and provenance —
    // those legitimately differ between serial, parallel and batched
    // schedules; the finding *set* must not.
    std::vector<std::string> lines;
    lines.reserve(bugs.size());
    for (const auto &b : bugs) {
        lines.push_back(strprintf("%s|%s|%s|%s", bugTypeId(b.type),
                                  b.reader.str().c_str(),
                                  b.writer.str().c_str(),
                                  b.note.c_str()));
    }
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const auto &l : lines) {
        out += l;
        out += '\n';
    }
    return out;
}

std::optional<BugReport>
runRecovery(pm::PmPool &pool, const ProgramFn &post, RecoveryRun &out)
{
    // Callers reuse one record per cursor: it keeps its capacity, so
    // a trace does not regrow from empty.
    out.trace.clear();
    out.untracedReads.clear();
    trace::PmRuntime rt(pool, out.trace, trace::Stage::PostFailure);
    rt.setEntryCap(1u << 20);
    rt.recordUntracedReads(&out.untracedReads);
    // Ring-buffered emission; no same-value elision post-failure
    // (recovery rewriting identical bytes still re-establishes
    // consistency, so every post write must be traced).
    rt.setBatching(true);
    std::optional<BugReport> failure;
    try {
        post(rt);
    } catch (const trace::StageComplete &) {
    } catch (const trace::PostFailureAbort &abort) {
        failure.emplace();
        failure->reader = abort.loc;
        failure->note = abort.reason;
    } catch (const pm::BadPmAccess &bad) {
        // The post-failure stage dereferenced a corrupted persistent
        // pointer — the emulated equivalent of the resumption
        // segfault in the paper's Figure 1.
        failure.emplace();
        failure->addr = bad.addr;
        failure->size = static_cast<std::uint32_t>(bad.size);
        failure->note = strprintf("post-failure crash: %s", bad.what());
    }
    if (failure)
        failure->type = BugType::RecoveryFailure;
    rt.setBatching(false); // flush the ring into out.trace
    return failure;
}

Driver::Driver(pm::PmPool &p, DetectorConfig c) : pool(p), cfg(c)
{
}

double
Driver::runBaseline(const ProgramFn &pre, bool traced)
{
    trace::TraceBuffer buf;
    trace::PmRuntime rt(pool, buf, trace::Stage::PreFailure);
    rt.setTracing(traced);
    rt.setBatching(true);
    auto t0 = std::chrono::steady_clock::now();
    try {
        pre(rt);
    } catch (const trace::StageComplete &) {
    }
    return secondsSince(t0);
}

void
Driver::advance(PreCursor &cur, const trace::TraceBuffer &pre,
                std::uint32_t to)
{
    using trace::Op;

    ShadowPM &shadow = cur.shadow;
    for (std::uint32_t &i = cur.cursor; i < to; i++) {
        const auto &e = pre[i];
        bool detectable = e.has(trace::flagInRoi) &&
                          !e.has(trace::flagInternal) &&
                          !e.has(trace::flagSkipDetection);
        switch (e.op) {
          case Op::Write:
          case Op::NtWrite:
            cur.image.applyWrite(e.addr, e.data.data(), e.data.size());
            if (!e.has(trace::flagImageOnly)) {
                shadow.preWrite(e.addr, e.size, e.seq,
                                e.op == Op::NtWrite);
            } else if (!cur.durable.empty()) {
                // Allocator zero-fill and friends: image data with no
                // persistence semantics. Both images take it at once,
                // so it is never part of any frontier.
                cur.durable.applyWrite(e.addr, e.data.data(),
                                       e.data.size());
            }
            break;
          case Op::Clwb:
          case Op::ClflushOpt:
          case Op::Clflush:
            if (shadow.preFlush(e.addr, e.seq,
                                e.has(trace::flagRepair)) &&
                detectable && cfg.reportPerformanceBugs) {
                BugReport r;
                r.type = BugType::Performance;
                r.addr = e.addr;
                r.size = e.size;
                r.reader = e.loc;
                r.note = "redundant writeback: no modified data in line";
                cur.perf.report(std::move(r));
            }
            break;
          case Op::Sfence:
          case Op::Mfence:
            shadow.preFence();
            break;
          case Op::Alloc:
            shadow.preAlloc(e.addr, e.size, e.seq);
            break;
          case Op::Free:
            shadow.preFree(e.addr, e.size);
            break;
          case Op::CommitVar:
            shadow.registerCommitVar(e.addr, e.size);
            break;
          case Op::CommitRange:
            shadow.registerCommitRange(e.aux, e.addr, e.size);
            break;
          case Op::TxAdd: {
            AddrRange r{e.addr, e.addr + e.size};
            bool duplicate = false;
            for (const auto &prev : cur.openTxAdds) {
                if (prev.begin <= r.begin && r.end <= prev.end) {
                    duplicate = true;
                    break;
                }
            }
            if (duplicate && detectable && cfg.reportPerformanceBugs) {
                BugReport br;
                br.type = BugType::Performance;
                br.addr = e.addr;
                br.size = e.size;
                br.reader = e.loc;
                br.note = "duplicated TX_ADD of the same PM object";
                cur.perf.report(std::move(br));
            }
            if (!duplicate)
                cur.openTxAdds.push_back(r);
            break;
          }
          case Op::LibCall:
            if (trace::isTxBoundary(e))
                cur.openTxAdds.clear();
            break;
          default:
            break;
        }
        if (!cur.decided.empty()) {
            // The oracle's persistCellBytes: a retired or freed cell's
            // content is decided, so the durable image takes its bytes
            // and candidates build on them.
            for (const CellRun &r : cur.decided) {
                cur.durable.copyFrom(cur.image, shadow.cellAddr(r.first),
                                     (r.end - r.first) * cfg.granularity);
            }
            cur.decided.clear();
        }
    }
}

void
Driver::replayPost(PreCursor &cur, const trace::TraceBuffer &pre,
                   const trace::TraceBuffer &post, std::uint32_t fp,
                   BugSink &sink, bool suppressSemantic)
{
    using trace::Op;

    ShadowPM &shadow = cur.shadow;
    shadow.beginPostReplay();
    for (const auto &e : post) {
        switch (e.op) {
          case Op::Write:
          case Op::NtWrite:
            // Post-failure writes overwrite the old data; reading the
            // location afterwards is unconditionally fine (§5.4).
            shadow.postWrite(e.addr, e.size);
            break;
          case Op::Alloc:
            shadow.postWrite(e.addr, e.size);
            break;
          case Op::CommitVar:
            shadow.registerCommitVar(e.addr, e.size);
            break;
          case Op::CommitRange:
            shadow.registerCommitRange(e.aux, e.addr, e.size);
            break;
          case Op::Read: {
            if (!e.has(trace::flagInRoi) || e.has(trace::flagInternal) ||
                e.has(trace::flagSkipDetection)) {
                break;
            }
            ReadCheckResult res = shadow.checkPostRead(e.addr, e.size);
            if (res.verdict != ReadCheck::Race &&
                res.verdict != ReadCheck::SemanticBug) {
                break;
            }
            if (res.verdict == ReadCheck::SemanticBug && suppressSemantic)
                break;
            BugReport r;
            r.type = res.verdict == ReadCheck::Race
                         ? BugType::CrossFailureRace
                         : BugType::CrossFailureSemantic;
            r.addr = res.addr;
            r.size = e.size;
            r.reader = e.loc;
            if (res.writerSeq != ReadCheckResult::noSeq)
                r.writer = pre[res.writerSeq].loc;
            r.failurePoint = fp;
            if (res.uninitialized)
                r.note = "location allocated but never initialized";
            else if (res.verdict == ReadCheck::SemanticBug)
                r.note = res.stale
                             ? "stale: last modified before the pre-last "
                               "commit write"
                             : "uncommitted: modified after the last "
                               "commit write";
            sink.report(std::move(r));
            break;
          }
          default:
            break;
        }
    }
    shadow.endPostReplay();
}

void
Driver::handleFailurePoint(PreCursor &cur, pm::PmPool &exec_pool,
                           const trace::TraceBuffer &pre,
                           const ProgramFn &post, std::uint32_t fp,
                           std::uint32_t group, BugSink &sink,
                           CampaignStats &stats,
                           const obs::PhaseSinks &sinks)
{
    obs::Timeline *tl = sinks.timeline;
    int track = sinks.track;
    obs::SpanScope fp_span(tl, tl ? strprintf("fp#%u", fp)
                                  : std::string(),
                           "fp", track);

    // Findings collect in a local sink first: the per-failure-point
    // hook must see a finding's recurrence at later points (the
    // worker sink dedups across points).
    BugSink local;

    {
        obs::ScopedPhase timer(&stats.phases, obs::Phase::Restore, sinks,
                               "reconstruct", "backend");
        {
            obs::SpanScope s2(tl, "advance", "backend", track);
            advance(cur, pre, fp);
        }
        obs::SpanScope s3(tl, "restore-pool", "backend", track);
        restoreAnchor(cur, exec_pool, cur.image, fp, stats.restore);
    }
    if (sinks.live)
        sinks.live->count("failure_points");

    // This point's write frontier: the in-flight (not durably
    // persisted) write seqs as of fp, ascending — the causal
    // candidates for anything the post-failure stage trips over, and
    // the bit order of every candidate mask. Without a crash-state
    // mode only findings read it: runCandidate builds it for them.
    std::optional<CellFrontier> cf;
    if (csCtx || cfg.crashImageMode)
        cf = frontierOf(cur.shadow, stats);

    std::vector<trace::SubsetMask> masks;
    if (csCtx)
        masks = planCrashStates(pre, fp, group, *cf, stats);
    // Executed candidates are kept for reuse only while partial masks
    // remain to compare against them.
    std::optional<PointCandidates> kept;
    if (!masks.empty()) {
        obs::ScopedPhase timer(&stats.phases, obs::Phase::Plan);
        timer.setCount(0);
        kept.emplace(cur.shadow, *cf, pre);
    }

    // The point's own candidate: the paper's footnote-3 image (every
    // frontier write persisted), or under --crash-image none of them.
    trace::SubsetMask own(cf ? cf->seqs.size() : 0);
    if (!cfg.crashImageMode)
        own.setAll();
    PointCandidates *point = kept ? &*kept : nullptr;
    runCandidate(cur, exec_pool, pre, post, fp, cf, own, local, stats,
                 sinks, point, point != nullptr);

    // Partial candidates merge into the same per-point sink, each
    // annotated with its own persisted mask, before the hook fires.
    // A mask that matches an executed candidate of this point on the
    // bits its recovery read and on every commit-variable bit would
    // replay that execution (DESIGN.md §14): it reuses the findings.
    if (!masks.empty()) {
        obs::SpanScope span(tl,
                            tl ? strprintf("crash-states@fp#%u", fp)
                               : std::string(),
                            "crash-states", track);
        for (std::size_t i = 0; i < masks.size(); i++) {
            if (reuseCandidate(cur, exec_pool, pre, post, fp, *cf,
                               masks[i], *kept, local, stats, sinks))
                continue;
            stats.crashStatesExplored++;
            runCandidate(cur, exec_pool, pre, post, fp, cf, masks[i],
                         local, stats, sinks, point,
                         i + 1 < masks.size());
            if (sinks.live)
                sinks.live->count("crash_candidates");
        }
    }

    if (observer)
        observer->notifyFailurePoint(fp, local);
    sink.merge(local);
}

void
Driver::restoreAnchor(PreCursor &cur, pm::PmPool &exec_pool,
                      const pm::CowImage &image, std::uint32_t to,
                      pm::DeltaRestoreStats &stats)
{
    // The exec pool matches the working image as of the previous
    // restore except on (a) pages the image gained since, (b) pages
    // the previous executions soiled, and (c) the cursor's pending
    // pages. Copy exactly that union.
    std::set<std::uint32_t> pages;
    pages.swap(cur.pendingPages);
    deltaStore->collectPages(cur.lastRestoredSeq, to, pages);
    exec_pool.drainDirtyPages(pages);
    pm::restorePages(image, exec_pool, deltaStore->pageSize(), pages,
                     stats);
    cur.lastRestoredSeq = to;
    validatePool(image, exec_pool, "delta restore", to);
}

void
Driver::runCandidate(PreCursor &cur, pm::PmPool &exec_pool,
                     const trace::TraceBuffer &pre, const ProgramFn &post,
                     std::uint32_t fp, std::optional<CellFrontier> &cf,
                     const trace::SubsetMask &mask, BugSink &sink,
                     CampaignStats &stats, const obs::PhaseSinks &sinks,
                     PointCandidates *point, bool keep)
{
    // The commit-variable timestamps assume recovery observes the
    // *latest* commit write, which only the all-updates image
    // guarantees. Under --crash-image, or on a candidate that drops a
    // commit-variable write, recovery may act on an older committed
    // epoch, so commit-window (condition (3)) verdicts are not sound.
    bool suppress_semantic = cfg.crashImageMode;
    if (!mask.all()) {
        obs::ScopedPhase timer(&stats.phases, obs::Phase::Restore,
                               {nullptr, 0, sinks.live});
        restoreCandidate(cur, exec_pool, pre, fp, *cf, mask,
                         stats.restore);
        // Any other partial mask is a --crash-states candidate, whose
        // point always comes with its commit bits.
        if (!suppress_semantic) {
            suppress_semantic = !mask.agreesOn(point->commitBits,
                                               point->commitBits);
        }
    }

    BugSink cand;
    std::optional<BugReport> failure;
    {
        // The interval covers the runtime's construction (its emit
        // ring) and counting the trace's ops.
        obs::ScopedPhase timer(&stats.phases, obs::Phase::RecoveryExec,
                               sinks, "post-exec", "post");
        failure = runRecovery(exec_pool, post, cur.post);
        trace::countOps(cur.post.trace, stats.postOps);
        stats.postExecLatencyUs.sample(timer.stop() * 1e6);
        if (failure) {
            BugReport r = *failure;
            r.writer = pre[fp].loc;
            r.failurePoint = fp;
            cand.report(std::move(r));
        }
        stats.postExecutions++;
        stats.postTraceEntries += cur.post.trace.size();
    }
    // The interval covers turning the trace into findings: the replay,
    // their provenance and the merge.
    obs::ScopedPhase timer(&stats.phases, obs::Phase::Classify, sinks,
                           "replay", "backend");
    replayPost(cur, pre, cur.post.trace, fp, cand, suppress_semantic);

    // Provenance: the point's frontier, plus which of its writes this
    // candidate image contained. A frontier built here is the anchor's
    // (classification leaves the open runs as they were), so every
    // write is in.
    if (!cand.empty()) {
        trace::SubsetMask anchor;
        const trace::SubsetMask *m = &mask;
        if (!cf) {
            cf = cur.shadow.frontier();
            anchor = trace::SubsetMask(cf->seqs.size());
            anchor.setAll();
            m = &anchor;
        }
        cand.annotate([&](BugReport &b) {
            b.frontierSeqs = cf->seqs;
            b.persistedMask = *m;
        });
        recordFindings(sinks, fp, cf->seqs, *m, cand);
    }
    sink.merge(cand);
    if (keep) {
        PointCandidates::Executed &e = point->executed.emplace_back();
        e.mask = mask;
        e.decisive = point->readBits(cur.post);
        e.decisive |= point->commitBits;
        e.findings = std::move(cand);
        if (deltaValidate()) {
            e.trace = cur.post.trace;
            e.failure = std::move(failure);
        }
    }
}

bool
Driver::reuseCandidate(PreCursor &cur, pm::PmPool &exec_pool,
                       const trace::TraceBuffer &pre,
                       const ProgramFn &post, std::uint32_t fp,
                       const CellFrontier &cf,
                       const trace::SubsetMask &mask,
                       const PointCandidates &point, BugSink &sink,
                       CampaignStats &stats, const obs::PhaseSinks &sinks)
{
    const PointCandidates::Executed *rep;
    {
        // Matching, and merging the representative's findings again
        // under this mask, is classification work. No execution
        // happens, so the interval is uncounted.
        obs::ScopedPhase timer(&stats.phases, obs::Phase::Classify);
        timer.setCount(0);
        rep = point.match(mask);
        if (!rep)
            return false;
        stats.crashStatesReadEquivalent++;
        stats.crashReadEquivalent.push_back({fp, rep->mask, mask});
        BugSink cand = rep->findings;
        cand.annotate([&](BugReport &b) { b.persistedMask = mask; });
        recordFindings(sinks, fp, cf.seqs, mask, cand);
        sink.merge(cand);
    }
    if (!deltaValidate())
        return true;
    // Execute the skipped candidate anyway, outside every counter: it
    // must replay the representative's trace and outcome exactly.
    pm::DeltaRestoreStats uncounted;
    restoreCandidate(cur, exec_pool, pre, fp, cf, mask, uncounted);
    std::optional<BugReport> failure =
        runRecovery(exec_pool, post, cur.post);
    const trace::TraceBuffer &got = cur.post.trace;
    std::size_t n = std::min(got.size(), rep->trace.size());
    std::size_t at = 0;
    while (at < n && trace::sameEntry(got[at], rep->trace[at]))
        at++;
    bool same_outcome =
        failure.has_value() == rep->failure.has_value() &&
        (!failure || (failure->note == rep->failure->note &&
                      failure->reader == rep->failure->reader &&
                      failure->addr == rep->failure->addr));
    if (at < n || got.size() != rep->trace.size() || !same_outcome) {
        panic("read-equivalent candidate %s of fp %u diverged from "
              "%s: post-trace entry %zu of %zu/%zu, outcome %s",
              mask.toHex().c_str(), fp, rep->mask.toHex().c_str(), at,
              got.size(), rep->trace.size(),
              same_outcome ? "same" : "differs");
    }
    return true;
}

void
Driver::restoreCandidate(PreCursor &cur, pm::PmPool &exec_pool,
                         const trace::TraceBuffer &pre, std::uint32_t fp,
                         const CellFrontier &cf,
                         const trace::SubsetMask &mask,
                         pm::DeltaRestoreStats &stats)
{
    const ShadowPM &shadow = cur.shadow;
    // The pool holds the anchor image or an earlier candidate of this
    // point, plus its own dirt. Only the pages of in-flight cells
    // separate the anchor from the durable image, and every open cell
    // carries some frontier write.
    std::set<std::uint32_t> pages;
    if (cur.pendingPages.empty()) {
        for (const auto &runs : cf.runsOf) {
            for (const CellRun &r : runs) {
                std::uint32_t last =
                    deltaStore->pageOf(shadow.cellAddr(r.end - 1));
                for (std::uint32_t p =
                         deltaStore->pageOf(shadow.cellAddr(r.first));
                     p <= last; p++) {
                    pages.insert(p);
                }
            }
        }
    }
    exec_pool.drainDirtyPages(pages);
    pm::restorePages(cur.durable, exec_pool, deltaStore->pageSize(), pages,
                     stats);
    cur.pendingPages.insert(pages.begin(), pages.end());
    validatePool(cur.durable, exec_pool, "candidate restore", fp);

    // Apply the persisted subset in ascending seq order; only cells
    // still carrying the event are undecided (mirrors the oracle's
    // applyMask byte for byte). Payload-elided same-value writes
    // (empty data) have nothing to materialize.
    for (std::size_t b = 0; b < mask.size(); b++) {
        if (!mask.test(b))
            continue;
        const auto &e = pre[cf.seqs[b]];
        if (e.size == 0 || e.data.empty())
            continue;
        for (const CellRun &r : cf.runsOf[b]) {
            Addr lo = std::max(shadow.cellAddr(r.first), e.addr);
            Addr hi = std::min(shadow.cellAddr(r.end),
                               static_cast<Addr>(e.addr + e.size));
            std::memcpy(exec_pool.data() + (lo - exec_pool.base()),
                        e.data.data() + (lo - e.addr), hi - lo);
            exec_pool.markDirty(lo, hi - lo);
        }
    }
}

void
Driver::recordFindings(const obs::PhaseSinks &sinks, std::uint32_t fp,
                       const std::vector<std::uint32_t> &frontier,
                       const trace::SubsetMask &mask, const BugSink &sink)
{
    obs::Timeline *tl = sinks.timeline;
    if (!tl)
        return;
    for (const auto &b : sink.bugs()) {
        std::vector<std::pair<std::string, std::string>> args;
        args.emplace_back("type", bugTypeId(b.type));
        args.emplace_back("reader", b.reader.str());
        args.emplace_back("writer", b.writer.str());
        args.emplace_back("failure_point", strprintf("%u", fp));
        std::string seqs;
        for (std::uint32_t s : frontier) {
            if (!seqs.empty())
                seqs += ',';
            seqs += strprintf("%u", s);
        }
        args.emplace_back("frontier", std::move(seqs));
        args.emplace_back("persisted_mask", mask.toHex());
        tl->recordInstant(strprintf("finding@fp#%u", fp), "finding",
                          sinks.track, tl->nowUs(), std::move(args));
    }
}

std::vector<trace::SubsetMask>
Driver::planCrashStates(const trace::TraceBuffer &pre, std::uint32_t fp,
                        std::uint32_t group, const CellFrontier &cf,
                        CampaignStats &stats)
{
    std::vector<trace::SubsetMask> keep;
    if (cf.seqs.empty())
        return keep;
    // Planning (enumeration, prune lookups) bills to the plan phase,
    // counted once per enumerated candidate so phase counts stay
    // serial == parallel.
    obs::ScopedPhase timer(&stats.phases, obs::Phase::Plan);
    std::vector<trace::FrontierEvent> events;
    events.reserve(cf.seqs.size());
    for (std::uint32_t s : cf.seqs)
        events.push_back(trace::FrontierEvent{s, pre[s].addr, pre[s].size});
    trace::CandidateSet cset(std::move(events), cf.chains);

    // The point's equivalence group (PointGroups, fixed at plan time)
    // keys both the sampler stream — equivalent points sample
    // identical mask sequences, keeping delta and batched schedules
    // fingerprint-identical — and the pruning set.
    trace::CandidateSet::EnumerateOptions eopt;
    eopt.exhaustive = csCtx->exhaustive;
    eopt.frontierLimit = cfg.oracleFrontierLimit;
    eopt.sampleCount = csCtx->sampleCount;
    eopt.seed = cfg.crashStatesSeed;
    eopt.stream = group;
    auto en = cset.enumerate(eopt);
    std::size_t enumerated = en.masks.size() - 1;
    stats.crashStatesEnumerated += enumerated;
    timer.setCount(enumerated);

    // Structurally identical candidates execute once per campaign:
    // recovery is a function of the crash image, which (group, mask)
    // determines up to batching equivalence.
    for (std::size_t ci = 1; ci < en.masks.size(); ci++) {
        trace::SubsetMask &mask = en.masks[ci];
        std::uint32_t rep;
        bool fresh;
        {
            std::lock_guard<std::mutex> lock(csCtx->lock);
            auto it = csCtx->seen[group].try_emplace(mask, fp);
            rep = it.first->second;
            fresh = it.second;
        }
        if (fresh) {
            keep.push_back(std::move(mask));
        } else {
            stats.crashStatesPruned++;
            stats.crashPruned.push_back({fp, rep, mask.toHex()});
        }
    }
    return keep;
}

CampaignResult
Driver::run(const ProgramFn &pre, const ProgramFn &post)
{
    return runParallel(pre, post, 1);
}

CampaignResult
Driver::runParallel(const ProgramFn &pre, const ProgramFn &post,
                    unsigned threads)
{
    if (std::string err = checkDetectorConfig(cfg); !err.empty())
        throw std::invalid_argument(err);
    if (threads == 0)
        threads = 1;
    CampaignResult result;
    result.runConfig = cfg;
    result.stats.threads = threads;

    // Left set by a run that a pre-failure stage threw out of.
    csCtx = nullptr;
    CrashStateCtx cs_ctx;
    if (cfg.crashStatesOn()) {
        std::size_t n = 0;
        DetectorConfig::parseCrashStates(cfg.crashStates,
                                         cs_ctx.exhaustive, n);
        // Exhaustive mode still samples frontiers beyond the
        // --oracle-frontier bound; match the oracle's fallback width.
        cs_ctx.sampleCount = n ? n : 64;
        csCtx = &cs_ctx;
    }

    obs::Timeline *tl =
        observer && observer->timeline.enabled() ? &observer->timeline
                                                 : nullptr;
    // The live registry costs one atomic load here; campaigns without
    // a live output (--live-port/--live-jsonl) never touch it again.
    obs::LiveMetrics *live =
        observer && observer->live.enabled() ? &observer->live
                                             : nullptr;

    // Campaign-level intervals span the main track (0).
    obs::PhaseTotals &phases = result.stats.phases;

    // The campaign-start snapshot copies the pool's may-be-nonzero
    // pages and leaves the rest pristine; every cursor's working and
    // durable image forks it for O(pages) pointer copies.
    pm::CowImage initial;
    {
        obs::ScopedPhase timer(&phases, obs::Phase::Plan, {tl},
                               "snapshot");
        timer.setCount(0);
        initial = pm::CowImage(pool);
    }
    validatePool(initial, pool, "campaign-start snapshot", 0);

    // Step 1: pre-failure stage, traced.
    trace::TraceBuffer pre_trace;
    {
        trace::PmRuntime rt(pool, pre_trace, trace::Stage::PreFailure);
        rt.setBatching(true);
        rt.setSameValueElision(cfg.elideSameValueWrites);
        obs::ScopedPhase timer(&phases, obs::Phase::TraceCapture,
                               {tl, 0, live}, "pre-failure");
        try {
            pre(rt);
        } catch (const trace::StageComplete &) {
        }
        rt.setBatching(false); // flush the ring into pre_trace
        trace::countOps(pre_trace, result.stats.preOps);
        timer.stop();
        result.stats.sameValueElided = rt.sameValueElided();
    }
    result.stats.preTraceEntries = pre_trace.size();
    if (live)
        live->count("pre_trace_entries", pre_trace.size());

    if (observer)
        observer->notifyPreTrace(pre_trace);

    // Step 2: plan failure points before each ordering point.
    FailurePlan plan;
    {
        obs::ScopedPhase timer(&phases, obs::Phase::Plan, {tl},
                               "plan-failure-points");
        plan = planFailurePoints(pre_trace, cfg);
    }

    // Step 2b: group the planned points by candidate equivalence —
    // same ordering-point location, same lint frontier signature —
    // once, before any point runs. Under --backend=batched each group
    // is one scheduling unit and only its representative executes
    // (the post-failure stage could only rediscover its findings; the
    // oracle differential campaign re-checks every folded point).
    // --crash-states samples and prunes per group.
    std::uint32_t total_units =
        static_cast<std::uint32_t>(plan.points.size());
    PointGroups groups;
    if (groupsFailurePoints(cfg) && !plan.points.empty()) {
        obs::ScopedPhase timer(&phases, obs::Phase::LintPrune, {tl},
                               "group-failure-points");
        groups = groupFailurePoints(pre_trace, plan.points, cfg);
    }
    struct WorkItem
    {
        std::uint32_t fp;
        std::uint32_t weight;
        std::uint32_t group;
    };
    std::vector<WorkItem> schedule;
    if (cfg.batchingOn()) {
        const BatchPlan &batches = groups.batches;
        result.stats.lintPrunedPoints = batches.foldedPoints();
        result.stats.batchGroups = batches.groups.size();
        schedule.reserve(batches.groups.size());
        for (std::uint32_t g = 0; g < batches.groups.size(); g++) {
            schedule.push_back(
                {batches.groups[g].rep,
                 static_cast<std::uint32_t>(batches.groups[g].weight()),
                 g});
        }
    } else {
        schedule.reserve(plan.points.size());
        for (std::size_t i = 0; i < plan.points.size(); i++) {
            schedule.push_back(
                {plan.points[i], 1,
                 groups.groupOf.empty() ? 0 : groups.groupOf[i]});
        }
    }
    if (csCtx)
        cs_ctx.seen.resize(groups.batches.groups.size());
    result.stats.failurePoints = schedule.size();
    result.stats.orderingCandidates = plan.candidates;
    result.stats.elidedPoints = plan.elided;
    result.stats.poolBytes = pool.size();

    if (live)
        live->gauge("failure_points_planned", total_units);

    // Index the write log by page once; workers share it read-only.
    // Its cost bills to planning: both prepare the per-point loop.
    // The sync set bounds where any working image can differ from a
    // pool that is zero or holds the pre-failure stage's final image:
    // the pool's may-be-nonzero pages, which cover the snapshot's and
    // every page the pre-failure stage wrote. Every cursor starts with
    // it pending, so its first restore brings the exec pool in line
    // the way every later one does.
    std::uint32_t trace_end =
        static_cast<std::uint32_t>(pre_trace.size());
    pm::ImageDeltaStore delta_store;
    std::set<std::uint32_t> sync_pages;
    {
        obs::ScopedPhase timer(&phases, obs::Phase::Plan, {tl},
                               "index-write-log");
        delta_store = trace::buildDeltaStore(
            pre_trace, DetectorConfig::deltaPageSize, pool.range());
        pool.collectMayBeNonzeroPages(sync_pages);
    }
    deltaStore = &delta_store;

    threads = static_cast<unsigned>(
        std::min<std::size_t>(threads, std::max<std::size_t>(
                                           schedule.size(), 1)));

    // Steps 3-4: per schedule item (failure point, or signature group
    // under --backend=batched), reconstruct the image, run the
    // post-failure stage, and check its trace against the shadow PM.
    // Workers pull items off a shared index — dynamic load balancing
    // with no handoff of cursors: each worker's won items are still
    // in ascending seq order, so its shadow/image cursors advance
    // monotonically. Findings land in per-item sinks and merge in
    // item order after the join, so the merged result is identical
    // whatever the worker count or item-to-worker assignment.
    std::deque<BugSink> item_sinks(schedule.size());
    std::deque<CampaignStats> stats(threads);
    std::deque<PreCursor> cursors;
    for (unsigned t = 0; t < threads; t++) {
        cursors.emplace_back(pool.range(), cfg, initial);
        cursors.back().pendingPages = sync_pages;
    }

    std::vector<int> tracks(threads, 0);
    if (tl && threads > 1) {
        for (unsigned t = 0; t < threads; t++)
            tracks[t] = tl->registerTrack(strprintf("worker-%u", t));
    }
    // Item i < threads is pre-assigned to worker i (every worker is
    // guaranteed work when there is enough to go around, and each
    // gets a warm cursor); the rest of the schedule is pulled off
    // the shared index. A worker's sequence of item indices is
    // strictly increasing either way, keeping its cursors monotonic.
    std::atomic<std::size_t> next_item{threads};
    std::atomic<std::size_t> units_done{0};
    std::atomic<std::size_t> bugs_found{0};
    std::mutex progress_lock;
    std::latch start_gate(threads);

    auto worker = [&](unsigned t) {
        if (threads > 1)
            setThreadLogLabel(strprintf("w%u", t));
        // Each worker executes post-failure stages on its own pool
        // replica at the same base address.
        pm::PmPool *exec_pool = &pool;
        std::unique_ptr<pm::PmPool> local;
        if (threads > 1) {
            local = std::make_unique<pm::PmPool>(pool.size(),
                                                 pool.base());
            exec_pool = local.get();
        }
        const obs::PhaseSinks sinks{tl, tracks[t], live};
        // All workers start pulling together — otherwise the first
        // spawned thread can drain a short queue before its peers
        // finish setting up their pool replicas.
        start_gate.arrive_and_wait();
        // Dedup across this worker's items, for progress counting
        // only (the authoritative dedup is the post-join merge).
        BugSink seen;
        bool first = true;
        for (;;) {
            std::size_t i;
            if (first) {
                first = false;
                i = t;
            } else {
                i = next_item.fetch_add(1, std::memory_order_relaxed);
            }
            if (i >= schedule.size())
                break;
            handleFailurePoint(cursors[t], *exec_pool, pre_trace, post,
                               schedule[i].fp, schedule[i].group,
                               item_sinks[i], stats[t], sinks);
            bool progress = observer && observer->wantsProgress();
            if (progress || live) {
                std::size_t before = seen.size();
                seen.merge(item_sinks[i]);
                std::size_t fresh = seen.size() - before;
                if (fresh) {
                    bugs_found += fresh;
                    if (live)
                        live->count("bugs", fresh);
                }
                // A finished group accounts for all its folded
                // members, so rates and ETAs track actual coverage.
                std::size_t done =
                    units_done.fetch_add(schedule[i].weight) +
                    schedule[i].weight;
                if (live) {
                    live->gauge("failure_points_done",
                                static_cast<double>(done));
                }
                if (progress) {
                    std::lock_guard<std::mutex> lock(progress_lock);
                    observer->notifyProgress(
                        {done, total_units, bugs_found.load()});
                }
            }
        }
        cursors[t].shadow.endPostReplay();
        stats[t].checksPerformed = cursors[t].shadow.checksPerformed();
        stats[t].checksSkipped = cursors[t].shadow.checksSkipped();
        if (threads > 1)
            setThreadLogLabel("");
    };

    // Zero anchor tick: lets progress consumers (the CLI meter's ETA
    // in particular) anchor their per-point rate at loop start, so
    // the first finished item — a whole signature group under
    // --backend=batched — is priced into the rate instead of lost to
    // the anchor.
    if (observer && observer->wantsProgress())
        observer->notifyProgress({0, total_units, 0});

    if (threads == 1) {
        worker(0);
    } else {
        std::vector<std::thread> pool_threads;
        for (unsigned t = 0; t < threads; t++)
            pool_threads.emplace_back(worker, t);
        for (auto &th : pool_threads)
            th.join();
    }

    // Merge findings in item order: deterministic and identical to
    // the serial campaign regardless of which worker won which item.
    BugSink merged;
    for (auto &s : item_sinks)
        merged.merge(s);
    for (CampaignStats &worker_stats : stats)
        result.stats.merge(std::move(worker_stats));
    csCtx = nullptr;

    // Every cursor started at entry 0 and only moved forward, so the
    // one that got furthest (the lowest on ties) has applied each
    // entry it passed exactly once. Advanced to the end of the trace,
    // it reports the performance bugs and counts the FSM edges of the
    // whole trace once, serial or threaded, and holds the final
    // pre-failure image. The advance is an uncounted restore interval.
    PreCursor &last = *std::max_element(
        cursors.begin(), cursors.end(),
        [](const PreCursor &a, const PreCursor &b) {
            return a.cursor < b.cursor;
        });
    {
        obs::ScopedPhase timer(&phases, obs::Phase::Restore, {tl},
                               "advance-to-end");
        timer.setCount(0);
        advance(last, pre_trace, trace_end);
    }
    merged.merge(last.perf);
    result.stats.shadowFsm = last.shadow.fsmCounters();
    // The pool is left holding the final pre-failure image. Worker
    // replicas leave it untouched since the pre-failure stage; a
    // serial campaign ran on it, and one more anchor restore of its
    // cursor, to the end of the trace, returns it. The restore is an
    // uncounted interval outside the restore counters.
    if (threads == 1) {
        obs::ScopedPhase timer(&phases, obs::Phase::Restore, {tl},
                               "restore-final-image");
        timer.setCount(0);
        pm::DeltaRestoreStats uncounted;
        restoreAnchor(last, pool, last.image, trace_end, uncounted);
    }
    validatePool(last.image, pool, "final pool image", trace_end);
    deltaStore = nullptr;

    result.bugs = merged.bugs();
    return result;
}

} // namespace xfd::core
