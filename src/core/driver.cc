#include "core/driver.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <latch>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/logging.hh"
#include "core/crash_cells.hh"
#include "lint/frontier.hh"
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

/**
 * Paranoia mode (XFD_DELTA_VALIDATE=1): after any restore the exec
 * pool must equal the source image byte-for-byte; a mismatch means a
 * mutation path missed markDirty() or the write-log index missed a
 * write. The equivalence suite runs its campaigns under this check.
 */
void
validateRestore(const pm::CowImage &src, const pm::PmPool &exec_pool,
                std::uint32_t fp, std::size_t page_size)
{
    static const bool validate =
        std::getenv("XFD_DELTA_VALIDATE") != nullptr;
    if (!validate)
        return;
    std::size_t off = src.firstMismatch(exec_pool.data());
    if (off != SIZE_MAX) {
        panic("delta restore diverged at fp %u: pool offset %#zx "
              "(page %zu) pool=%02x",
              fp, off, off / page_size, exec_pool.data()[off]);
    }
}

} // namespace

/**
 * A cursor's crash-state exploration state: the cell model, the lint
 * frontier state that keys candidate groups, and the groups this
 * cursor has already rendered.
 */
struct Driver::PreCursor::CsState
{
    CsState(AddrRange range, const DetectorConfig &cfg)
        : cells(range, cfg.granularity),
          lint(cfg.granularity, cfg.eadrOn())
    {
    }

    CrashCells cells;
    /** Cells the entry being advanced over persisted (scratch). */
    std::vector<std::uint64_t> persisted;
    /**
     * Lint frontier state advanced to lintCursor — the equivalence
     * signature feeding the candidate pruning key and the sampler
     * stream (the same identity --backend=batched folds points by).
     */
    lint::FrontierState lint;
    std::uint32_t lintCursor = 0;

    /** One candidate equivalence group: sampler stream + global id. */
    struct Group
    {
        std::uint64_t stream = 0;
        std::uint32_t id = 0;
    };
    /** Ordering-point location + signature id (per cursor). */
    struct GroupKey
    {
        const char *file;
        unsigned line;
        const char *func;
        std::uint32_t sig;

        bool operator==(const GroupKey &) const = default;
    };
    struct GroupKeyHash
    {
        std::size_t
        operator()(const GroupKey &k) const
        {
            std::size_t h = std::hash<const void *>()(k.file);
            h = h * 31 + std::hash<const void *>()(k.func);
            return h * 31 + (std::size_t{k.line} << 32 | k.sig);
        }
    };
    /**
     * Rendered groups. Equal pointers name equal strings, so a key
     * never maps to two groups; equal strings behind distinct
     * pointers just render twice and intern to the same id.
     */
    std::unordered_map<GroupKey, Group, GroupKeyHash> groups;
};

Driver::PreCursor::PreCursor(AddrRange range,
                             const DetectorConfig &cfg,
                             const pm::CowImage &initial,
                             bool explore)
    : shadow(range, cfg), image(initial)
{
    // Under eADR every frontier is empty, so every candidate is the
    // anchor and the cell model is skipped.
    if (explore && (cfg.crashStatesOn() || cfg.crashImageMode) &&
        !cfg.eadrOn()) {
        durable = initial;
        cs = std::make_unique<CsState>(range, cfg);
    }
}

Driver::PreCursor::~PreCursor() = default;

/**
 * Campaign-global crash-state context: parsed --crash-states knobs
 * plus the equivalence-class pruning set all workers share.
 */
struct Driver::CrashStateCtx
{
    bool exhaustive = false;
    std::size_t sampleCount = 0;
    std::mutex lock;
    /**
     * Group string (location '|' signature) -> campaign-global id,
     * dense in first-seen order. Ids are only compared for equality,
     * so the order in which workers first see groups does not matter.
     */
    std::unordered_map<std::string, std::uint32_t> groupIds;
    /**
     * The pruning set, keyed on (group id, mask): per group id, each
     * mask's representative — the failure point whose run of that
     * candidate stands for every later one.
     */
    std::vector<std::map<trace::SubsetMask, std::uint32_t>> seen;
};

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
        stats.preSeconds, stats.postSeconds, stats.backendSeconds);
    if (stats.crashStatesExplored || stats.crashStatesPruned) {
        s += strprintf(
            "crash states: %zu partial candidate(s) explored "
            "(+%zu pruned as equivalent), partial-image findings: "
            "%zu\n",
            stats.crashStatesExplored, stats.crashStatesPruned,
            partialImageFindings());
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
Driver::advanceShadow(PreCursor &cur, const trace::TraceBuffer &pre,
                      std::uint32_t to, BugSink *perf_sink)
{
    using trace::Op;

    ShadowPM &shadow = cur.shadow;
    for (std::uint32_t &i = cur.shadowCursor; i < to; i++) {
        const auto &e = pre[i];
        bool detectable = e.has(trace::flagInRoi) &&
                          !e.has(trace::flagInternal) &&
                          !e.has(trace::flagSkipDetection);
        switch (e.op) {
          case Op::Write:
          case Op::NtWrite:
            if (!e.has(trace::flagImageOnly)) {
                shadow.preWrite(e.addr, e.size, e.seq,
                                e.op == Op::NtWrite);
            }
            break;
          case Op::Clwb:
          case Op::ClflushOpt:
          case Op::Clflush:
            if (shadow.preFlush(e.addr, e.seq,
                                e.has(trace::flagRepair)) &&
                detectable &&
                perf_sink && cfg.reportPerformanceBugs) {
                BugReport r;
                r.type = BugType::Performance;
                r.addr = e.addr;
                r.size = e.size;
                r.reader = e.loc;
                r.note = "redundant writeback: no modified data in line";
                perf_sink->report(std::move(r));
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
            if (duplicate && detectable && perf_sink &&
                cfg.reportPerformanceBugs) {
                BugReport br;
                br.type = BugType::Performance;
                br.addr = e.addr;
                br.size = e.size;
                br.reader = e.loc;
                br.note = "duplicated TX_ADD of the same PM object";
                perf_sink->report(std::move(br));
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
    }
}

void
Driver::advanceImage(PreCursor &cur, const trace::TraceBuffer &pre,
                     std::uint32_t to)
{
    using trace::Op;

    const bool eadr = cfg.eadrOn();
    PreCursor::CsState *cs = cur.cs.get();
    for (std::uint32_t &i = cur.imageCursor; i < to; i++) {
        const auto &e = pre[i];
        if (e.isWrite())
            cur.image.applyWrite(e.addr, e.data.data(), e.data.size());
        if (cs) {
            if (e.isWrite() && e.has(trace::flagImageOnly)) {
                // Allocator zero-fill and friends: image data with no
                // persistence semantics. Both images take it at once,
                // so it is never part of any frontier.
                cur.durable.applyWrite(e.addr, e.data.data(),
                                       e.data.size());
                continue;
            }
            // The oracle's persistCellBytes: a retired or freed cell's
            // content is decided, so the durable image takes its bytes
            // (adjacent cells as one run) and candidates build on them.
            cs->cells.apply(e, cs->persisted);
            const auto &p = cs->persisted;
            for (std::size_t a = 0; a < p.size();) {
                std::size_t b = a + 1;
                while (b < p.size() && p[b] == p[b - 1] + 1)
                    b++;
                cur.durable.copyFrom(cur.image, cs->cells.cellAddr(p[a]),
                                     (b - a) * cs->cells.granularity());
                a = b;
            }
            cs->persisted.clear();
        } else if (eadr) {
            // Flush-free persistency: a store is durable on arrival,
            // so it is never part of a write frontier.
            continue;
        } else if (e.isWrite()) {
            // The write is in flight until a fence lands its line.
            Addr last = lineBase(e.addr + (e.size ? e.size - 1 : 0));
            for (Addr l = lineBase(e.addr); l <= last;
                 l += cacheLineSize) {
                cur.inflight[l].push_back(e.seq);
                if (e.op == Op::NtWrite)
                    cur.inflightPending.insert(l);
            }
        } else if (e.isFlush()) {
            // Flushing moves the line toward durability; it lands at
            // the next fence.
            if (cur.inflight.count(e.addr))
                cur.inflightPending.insert(e.addr);
        } else if (e.isFence()) {
            for (Addr l : cur.inflightPending)
                cur.inflight.erase(l);
            cur.inflightPending.clear();
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
                           BugSink &sink, CampaignStats &stats,
                           const WorkerObs &wobs)
{
    obs::Timeline *tl = wobs.timeline;
    obs::SpanScope fp_span(tl, tl ? strprintf("fp#%u", fp)
                                  : std::string(),
                           "fp", wobs.track);

    // Findings collect in a local sink first: the per-failure-point
    // hook must see a finding's recurrence at later points (the
    // worker sink dedups across points).
    BugSink local;

    auto tb0 = std::chrono::steady_clock::now();
    {
        obs::SpanScope span(tl, "reconstruct", "backend", wobs.track);
        // Performance bugs are collected by the dedicated full-trace
        // advance, not here (workers would double-report them).
        {
            obs::SpanScope s2(tl, "advance-shadow", "backend",
                              wobs.track);
            advanceShadow(cur, pre, fp, nullptr);
        }
        {
            obs::SpanScope s2(tl, "advance-image", "backend",
                              wobs.track);
            advanceImage(cur, pre, fp);
        }
        obs::SpanScope s3(tl, "restore-pool", "backend", wobs.track);
        restoreAnchor(cur, exec_pool, fp, stats);
    }
    // The phase entry reuses the exact interval that feeds
    // backendSeconds, so restore + classify attribute the backend
    // identically in a serial campaign.
    double restore_s = secondsSince(tb0);
    stats.backendSeconds += restore_s;
    stats.phases.note(obs::Phase::Restore, restore_s);
    if (wobs.live) {
        wobs.live->count("failure_points");
        wobs.live->count("restore_us",
                         static_cast<std::uint64_t>(restore_s * 1e6));
    }

    // This point's write frontier: the in-flight (not durably
    // persisted) write seqs as of fp, ascending — the causal
    // candidates for anything the post-failure stage trips over, and
    // the bit order of every candidate mask. The cell model supplies
    // it (built once per point, so masks match the oracle's bit for
    // bit); anchor-only campaigns keep the cheaper line-granular
    // bookkeeping.
    CellFrontier cf;
    if (cur.cs) {
        auto tp = std::chrono::steady_clock::now();
        cf = cur.cs->cells.frontier();
        stats.phases.note(obs::Phase::Plan, secondsSince(tp), 0);
    } else {
        for (const auto &ent : cur.inflight)
            cf.seqs.insert(cf.seqs.end(), ent.second.begin(),
                           ent.second.end());
        std::sort(cf.seqs.begin(), cf.seqs.end());
        cf.seqs.erase(std::unique(cf.seqs.begin(), cf.seqs.end()),
                      cf.seqs.end());
    }

    // The point's own candidate: the paper's footnote-3 image (every
    // frontier write persisted), or under --crash-image none of them.
    trace::SubsetMask own(cf.seqs.size());
    if (!cfg.crashImageMode)
        own.setAll();
    runCandidate(cur, exec_pool, pre, post, fp, cf, own, local, stats,
                 wobs);

    // Partial candidates merge into the same per-point sink, each
    // annotated with its own persisted mask, before the hook fires.
    if (csCtx && cur.cs) {
        std::vector<trace::SubsetMask> masks =
            planCrashStates(cur, pre, fp, cf, stats);
        if (!masks.empty()) {
            obs::SpanScope span(tl,
                                tl ? strprintf("crash-states@fp#%u", fp)
                                   : std::string(),
                                "crash-states", wobs.track);
            for (const auto &mask : masks) {
                runCandidate(cur, exec_pool, pre, post, fp, cf, mask,
                             local, stats, wobs);
                if (wobs.live)
                    wobs.live->count("crash_candidates");
            }
        }
    }

    if (observer)
        observer->notifyFailurePoint(fp, local);
    sink.merge(local);
}

void
Driver::restoreAnchor(PreCursor &cur, pm::PmPool &exec_pool,
                      std::uint32_t fp, CampaignStats &stats)
{
    bool checkpoint_due = cfg.deltaCheckpointInterval != 0 &&
                          cur.sinceCheckpoint >= cfg.deltaCheckpointInterval;
    if (!deltaStore) {
        pm::restoreFull(cur.image, exec_pool, stats.restore);
    } else if (!cur.execSynced || checkpoint_due) {
        // Chunk start or checkpoint cadence: resync from scratch. A
        // fresh pool is all zeros and any working image can differ
        // from zero only where the write log landed or the initial
        // snapshot was nonzero (chunkSyncPages), so restoring that
        // set plus the exec pool's own dirt is byte-equivalent to the
        // old full O(pool) copy.
        std::set<std::uint32_t> pages = *chunkSyncPages;
        exec_pool.drainDirtyPages(pages);
        pm::restorePages(cur.image, exec_pool, deltaStore->pageSize(),
                         pages, stats.restore);
        stats.restore.syncRestores++;
        cur.execSynced = true;
        cur.sinceCheckpoint = 0;
    } else {
        // The exec pool matches the working image as of the previous
        // restore except on (a) pages the image gained since, (b)
        // pages the previous executions soiled, and (c) pages a
        // candidate restore took from the durable image. Copy exactly
        // that union.
        std::set<std::uint32_t> pages = std::move(cur.candidatePages);
        deltaStore->collectPages(cur.lastRestoredSeq, fp, pages);
        exec_pool.drainDirtyPages(pages);
        pm::restorePages(cur.image, exec_pool, deltaStore->pageSize(),
                         pages, stats.restore);
        cur.sinceCheckpoint++;
    }
    cur.candidatePages.clear();
    cur.lastRestoredSeq = fp;
    validateRestore(cur.image, exec_pool, fp, cfg.deltaPageSize);
}

void
Driver::runCandidate(PreCursor &cur, pm::PmPool &exec_pool,
                     const trace::TraceBuffer &pre, const ProgramFn &post,
                     std::uint32_t fp, const CellFrontier &cf,
                     const trace::SubsetMask &mask, BugSink &sink,
                     CampaignStats &stats, const WorkerObs &wobs)
{
    // The commit-variable timestamps assume recovery observes the
    // *latest* commit write, which only the all-updates image
    // guarantees. Under --crash-image, or on a candidate that drops a
    // commit-variable write, recovery may act on an older committed
    // epoch, so commit-window (condition (3)) verdicts are not sound.
    bool suppress_semantic = cfg.crashImageMode;
    if (!mask.all()) {
        auto t0 = std::chrono::steady_clock::now();
        restoreCandidate(cur, exec_pool, pre, fp, cf, mask, stats);
        double restore_s = secondsSince(t0);
        stats.backendSeconds += restore_s;
        stats.phases.note(obs::Phase::Restore, restore_s);
        if (wobs.live) {
            wobs.live->count("restore_us",
                             static_cast<std::uint64_t>(restore_s * 1e6));
        }
        const auto &cvars = cur.cs->cells.commitVars();
        for (std::size_t b = 0; b < mask.size() && !suppress_semantic;
             b++) {
            if (mask.test(b))
                continue;
            const auto &e = pre[cf.seqs[b]];
            AddrRange ev{e.addr, e.addr + e.size};
            for (const auto &cv : cvars)
                suppress_semantic = suppress_semantic || cv.overlaps(ev);
        }
    }

    BugSink cand;
    runPost(cur, exec_pool, pre, post, fp, cand, stats, wobs);

    auto t1 = std::chrono::steady_clock::now();
    {
        obs::SpanScope span(wobs.timeline, "replay", "backend",
                            wobs.track);
        replayPost(cur, pre, cur.postTrace, fp, cand, suppress_semantic);
    }
    double classify_s = secondsSince(t1);
    stats.backendSeconds += classify_s;
    stats.phases.note(obs::Phase::Classify, classify_s);
    if (wobs.live) {
        wobs.live->count("classify_us",
                         static_cast<std::uint64_t>(classify_s * 1e6));
    }

    // Provenance: the point's frontier, plus which of its writes this
    // candidate image contained.
    cand.annotate([&](BugReport &b) {
        b.frontierSeqs = cf.seqs;
        b.persistedMask = mask;
    });
    recordFindings(wobs, fp, cf.seqs, mask, cand);
    sink.merge(cand);
}

void
Driver::restoreCandidate(PreCursor &cur, pm::PmPool &exec_pool,
                         const trace::TraceBuffer &pre, std::uint32_t fp,
                         const CellFrontier &cf,
                         const trace::SubsetMask &mask,
                         CampaignStats &stats)
{
    const CrashCells &cells = cur.cs->cells;
    if (!deltaStore) {
        pm::restoreFull(cur.durable, exec_pool, stats.restore);
    } else {
        // The pool holds the anchor image or an earlier candidate of
        // this point, plus its own dirt. Only the pages of in-flight
        // cells separate the anchor from the durable image, and every
        // open cell carries some frontier write.
        std::set<std::uint32_t> pages;
        if (cur.candidatePages.empty()) {
            for (const auto &runs : cf.runsOf) {
                for (const CellRun &r : runs) {
                    std::uint32_t last =
                        deltaStore->pageOf(cells.cellAddr(r.end - 1));
                    for (std::uint32_t p =
                             deltaStore->pageOf(cells.cellAddr(r.first));
                         p <= last; p++) {
                        pages.insert(p);
                    }
                }
            }
        }
        exec_pool.drainDirtyPages(pages);
        pm::restorePages(cur.durable, exec_pool, deltaStore->pageSize(),
                         pages, stats.restore);
        cur.candidatePages.insert(pages.begin(), pages.end());
    }
    validateRestore(cur.durable, exec_pool, fp, cfg.deltaPageSize);

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
            Addr lo = std::max(cells.cellAddr(r.first), e.addr);
            Addr hi = std::min(cells.cellAddr(r.end),
                               static_cast<Addr>(e.addr + e.size));
            std::memcpy(exec_pool.data() + (lo - exec_pool.base()),
                        e.data.data() + (lo - e.addr), hi - lo);
            exec_pool.markDirty(lo, hi - lo);
        }
    }
}

void
Driver::runPost(PreCursor &cur, pm::PmPool &exec_pool,
                const trace::TraceBuffer &pre, const ProgramFn &post,
                std::uint32_t fp, BugSink &sink, CampaignStats &stats,
                const WorkerObs &wobs)
{
    obs::SpanScope span(wobs.timeline, "post-exec", "post", wobs.track);
    // One buffer per cursor, cleared per execution: it keeps its
    // capacity, so a trace does not regrow from empty.
    cur.postTrace.clear();
    // The interval covers the runtime's construction (its emit ring).
    auto t0 = std::chrono::steady_clock::now();
    trace::PmRuntime rt(exec_pool, cur.postTrace,
                        trace::Stage::PostFailure);
    rt.setEntryCap(1u << 20);
    // Ring-buffered emission; no same-value elision post-failure
    // (recovery rewriting identical bytes still re-establishes
    // consistency, so every post write must be traced).
    rt.setBatching(true);
    try {
        post(rt);
    } catch (const trace::StageComplete &) {
    } catch (const trace::PostFailureAbort &abort) {
        BugReport r;
        r.type = BugType::RecoveryFailure;
        r.reader = abort.loc;
        r.writer = pre[fp].loc;
        r.failurePoint = fp;
        r.note = abort.reason;
        sink.report(std::move(r));
    } catch (const pm::BadPmAccess &bad) {
        // The post-failure stage dereferenced a corrupted persistent
        // pointer — the emulated equivalent of the resumption
        // segfault in the paper's Figure 1.
        BugReport r;
        r.type = BugType::RecoveryFailure;
        r.addr = bad.addr;
        r.size = static_cast<std::uint32_t>(bad.size);
        r.writer = pre[fp].loc;
        r.failurePoint = fp;
        r.note = strprintf("post-failure crash: wild PM access at %#llx",
                           static_cast<unsigned long long>(bad.addr));
        sink.report(std::move(r));
    }
    rt.setBatching(false); // flush the ring before reading counts
    double post_s = secondsSince(t0);
    stats.postSeconds += post_s;
    stats.phases.note(obs::Phase::RecoveryExec, post_s);
    if (wobs.postLatency)
        wobs.postLatency->push_back(post_s);
    if (wobs.postOps) {
        const auto &ops = rt.opCounts();
        for (std::size_t i = 0; i < ops.size(); i++)
            (*wobs.postOps)[i] += ops[i];
    }
    if (wobs.live)
        wobs.live->sample("post_exec_latency_us", post_s * 1e6);
    stats.postExecutions++;
    stats.postTraceEntries += cur.postTrace.size();
}

void
Driver::recordFindings(const WorkerObs &wobs, std::uint32_t fp,
                       const std::vector<std::uint32_t> &frontier,
                       const trace::SubsetMask &mask, const BugSink &sink)
{
    obs::Timeline *tl = wobs.timeline;
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
                          wobs.track, tl->nowUs(), std::move(args));
    }
}

std::vector<trace::SubsetMask>
Driver::planCrashStates(PreCursor &cur, const trace::TraceBuffer &pre,
                        std::uint32_t fp, const CellFrontier &cf,
                        CampaignStats &stats)
{
    std::vector<trace::SubsetMask> keep;
    if (cf.seqs.empty())
        return keep;
    // Planning (group key, enumeration, prune lookups) bills to the
    // plan phase, noted once per enumerated candidate so phase counts
    // stay serial == parallel.
    auto tp = std::chrono::steady_clock::now();
    PreCursor::CsState &cs = *cur.cs;
    std::vector<trace::FrontierEvent> events;
    events.reserve(cf.seqs.size());
    for (std::uint32_t s : cf.seqs)
        events.push_back(trace::FrontierEvent{s, pre[s].addr, pre[s].size});
    trace::CandidateSet cset(std::move(events), cf.chains);

    // Candidate equivalence class: ordering-point source location +
    // lint frontier signature — the identity --backend=batched folds
    // failure points by. It keys both the sampler stream (equivalent
    // points sample identical mask sequences, keeping full, delta and
    // batched schedules fingerprint-identical) and the campaign-global
    // pruning set. Its string renders and hashes once per (location,
    // signature) per cursor and interns to a campaign-global id.
    for (; cs.lintCursor < fp; cs.lintCursor++)
        cs.lint.apply(pre[cs.lintCursor]);
    lint::FrontierSignature sig = cs.lint.signature();
    const trace::SrcLoc &loc = pre[fp].loc;
    auto [git, fresh_group] =
        cs.groups.try_emplace({loc.file, loc.line, loc.func, sig.id()});
    PreCursor::CsState::Group &group = git->second;
    if (fresh_group) {
        std::string str = loc.str() + '|' + sig.str();
        group.stream = 1469598103934665603ull; // FNV-1a 64
        for (char ch : str)
            group.stream = (group.stream ^ static_cast<unsigned char>(ch)) *
                           1099511628211ull;
        std::lock_guard<std::mutex> lock(csCtx->lock);
        auto [it, fresh] = csCtx->groupIds.try_emplace(
            std::move(str),
            static_cast<std::uint32_t>(csCtx->groupIds.size()));
        if (fresh)
            csCtx->seen.emplace_back();
        group.id = it->second;
    }

    trace::CandidateSet::EnumerateOptions eopt;
    eopt.exhaustive = csCtx->exhaustive;
    eopt.frontierLimit = cfg.oracleFrontierLimit;
    eopt.sampleCount = csCtx->sampleCount;
    eopt.seed = cfg.crashStatesSeed;
    eopt.stream = group.stream;
    auto en = cset.enumerate(eopt);
    std::size_t enumerated = en.masks.size() - 1;
    stats.crashStatesEnumerated += enumerated;

    // Structurally identical candidates execute once per campaign:
    // recovery is a function of the crash image, which (group, mask)
    // determines up to batching equivalence.
    for (std::size_t ci = 1; ci < en.masks.size(); ci++) {
        trace::SubsetMask &mask = en.masks[ci];
        std::uint32_t rep;
        bool fresh;
        {
            std::lock_guard<std::mutex> lock(csCtx->lock);
            auto it = csCtx->seen[group.id].try_emplace(mask, fp);
            rep = it.first->second;
            fresh = it.second;
        }
        if (fresh) {
            stats.crashStatesExplored++;
            keep.push_back(std::move(mask));
        } else {
            stats.crashStatesPruned++;
            stats.crashPruned.push_back({fp, rep, mask.toHex()});
        }
    }
    stats.phases.note(obs::Phase::Plan, secondsSince(tp), enumerated);
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
    if (threads == 0)
        threads = 1;
    CampaignResult result;
    result.runConfig = cfg;
    result.stats.threads = threads;

    if (cfg.crashStatesOn() && cfg.crashImageMode) {
        fatal("--crash-states explores partial crash images itself "
              "and cannot combine with --crash-image");
    }
    CrashStateCtx cs_ctx;
    if (cfg.crashStatesOn() && !cfg.eadrOn()) {
        bool exhaustive = false;
        std::size_t n = 0;
        if (!DetectorConfig::parseCrashStates(cfg.crashStates,
                                              exhaustive, n)) {
            fatal("bad --crash-states mode \"%s\" (expected anchor, "
                  "sample:<n> or exhaustive)",
                  cfg.crashStates.c_str());
        }
        cs_ctx.exhaustive = exhaustive;
        // Exhaustive mode still samples frontiers beyond the
        // --oracle-frontier bound; match the oracle's fallback width.
        cs_ctx.sampleCount = n ? n : 64;
        csCtx = &cs_ctx;
    }

    obs::Timeline *tl =
        observer && observer->timeline.enabled() ? &observer->timeline
                                                 : nullptr;
    // The live registry costs one atomic load here; campaigns without
    // a live output (--live/--live-port/--live-jsonl) never touch it
    // again.
    obs::LiveMetrics *live =
        observer && observer->live.enabled() ? &observer->live
                                             : nullptr;

    // The campaign-start snapshot: one O(pool) copy into CoW pages;
    // every cursor's working/durable image forks it for O(pages)
    // pointer copies.
    pm::CowImage initial(pool);

    // Step 1: pre-failure stage, traced.
    trace::TraceBuffer pre_trace;
    std::array<std::uint64_t, trace::opCount> pre_ops{};
    {
        obs::SpanScope span(tl, "pre-failure", "phase", 0);
        trace::PmRuntime rt(pool, pre_trace, trace::Stage::PreFailure);
        rt.setBatching(true);
        rt.setSameValueElision(cfg.elideSameValueWrites);
        auto t0 = std::chrono::steady_clock::now();
        try {
            pre(rt);
        } catch (const trace::StageComplete &) {
        }
        rt.setBatching(false); // flush the ring before reading counts
        result.stats.preSeconds = secondsSince(t0);
        result.stats.phases.note(obs::Phase::TraceCapture,
                                 result.stats.preSeconds);
        pre_ops = rt.opCounts();
        result.stats.sameValueElided = rt.sameValueElided();
    }
    result.stats.preTraceEntries = pre_trace.size();
    if (live) {
        live->count("pre_trace_entries", pre_trace.size());
        live->gauge("pre_seconds", result.stats.preSeconds);
    }

    if (observer)
        observer->notifyPreTrace(pre_trace);

    // Step 2: plan failure points before each ordering point.
    FailurePlan plan;
    {
        obs::SpanScope span(tl, "plan-failure-points", "phase", 0);
        auto t0 = std::chrono::steady_clock::now();
        plan = planFailurePoints(pre_trace, cfg);
        result.stats.phases.note(obs::Phase::Plan, secondsSince(t0));
    }

    // Step 2b (--backend=batched): group planned points by frontier
    // signature — an earlier kept point at the same ordering-point
    // source location exposed an identical frontier signature, so the
    // post-failure stage can only rediscover the representative's
    // findings. Each group is one scheduling unit; only its
    // representative executes. The oracle differential campaign
    // re-checks every folded point against its representative.
    std::uint32_t total_units =
        static_cast<std::uint32_t>(plan.points.size());
    struct WorkItem
    {
        std::uint32_t fp;
        std::uint32_t weight;
    };
    std::vector<WorkItem> schedule;
    if (cfg.batchingOn() && !plan.points.empty()) {
        obs::SpanScope span(tl, "plan-batches", "phase", 0);
        auto t0 = std::chrono::steady_clock::now();
        BatchPlan batches = planBatches(pre_trace, plan.points,
                                        cfg.granularity, cfg.eadrOn());
        result.stats.lintPrunedPoints = batches.foldedPoints();
        result.stats.batchGroups = batches.groups.size();
        schedule.reserve(batches.groups.size());
        for (const auto &g : batches.groups) {
            schedule.push_back(
                {g.rep, static_cast<std::uint32_t>(g.weight())});
        }
        result.stats.phases.note(obs::Phase::LintPrune,
                                 secondsSince(t0));
    } else {
        schedule.reserve(plan.points.size());
        for (std::uint32_t fp : plan.points)
            schedule.push_back({fp, 1});
    }
    result.stats.failurePoints = schedule.size();
    result.stats.orderingCandidates = plan.candidates;
    result.stats.elidedPoints = plan.elided;
    result.stats.poolBytes = pool.size();

    if (live)
        live->gauge("failure_points_planned", total_units);

    // Index the write log by page once; workers share it read-only.
    // Its cost bills to planning: both prepare the per-point loop.
    // base_sync_pages bounds where any working image can differ from
    // a zeroed pool (every logged write's page + the initial
    // snapshot's nonzero pages); chunk starts and checkpoint resyncs
    // restore that set instead of the whole pool.
    pm::ImageDeltaStore delta_store;
    std::set<std::uint32_t> base_sync_pages;
    if (cfg.deltaImagesOn()) {
        obs::SpanScope span(tl, "index-write-log", "phase", 0);
        auto t0 = std::chrono::steady_clock::now();
        delta_store = trace::buildDeltaStore(
            pre_trace, cfg.deltaPageSize, pool.range());
        deltaStore = &delta_store;
        delta_store.collectPages(
            0, static_cast<std::uint32_t>(pre_trace.size()),
            base_sync_pages);
        initial.collectNonZeroPages(cfg.deltaPageSize,
                                    base_sync_pages);
        chunkSyncPages = &base_sync_pages;
        result.stats.phases.note(obs::Phase::Plan, secondsSince(t0));
    }

    std::uint32_t trace_end =
        static_cast<std::uint32_t>(pre_trace.size());
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
    for (unsigned t = 0; t < threads; t++)
        cursors.emplace_back(pool.range(), cfg, initial, true);

    // Per-worker observability sinks, merged deterministically
    // (worker order) into the observer after the join.
    std::deque<std::vector<double>> post_latency(threads);
    std::deque<std::array<std::uint64_t, trace::opCount>>
        post_ops(threads);
    for (auto &a : post_ops)
        a.fill(0);
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
        if (deltaStore)
            exec_pool->enableDirtyTracking(cfg.deltaPageSize);
        WorkerObs wobs{tl, tracks[t], &post_latency[t], &post_ops[t],
                       live};
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
                               schedule[i].fp, item_sinks[i], stats[t],
                               wobs);
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
        exec_pool->disableDirtyTracking();
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

    auto tpar0 = std::chrono::steady_clock::now();
    if (threads == 1) {
        worker(0);
    } else {
        std::vector<std::thread> pool_threads;
        for (unsigned t = 0; t < threads; t++)
            pool_threads.emplace_back(worker, t);
        for (auto &th : pool_threads)
            th.join();
    }
    double wall = secondsSince(tpar0);

    // Merge findings in item order: deterministic and identical to
    // the serial campaign regardless of which worker won which item.
    BugSink merged;
    for (auto &s : item_sinks)
        merged.merge(s);
    for (unsigned t = 0; t < threads; t++) {
        result.stats.postExecutions += stats[t].postExecutions;
        result.stats.postTraceEntries += stats[t].postTraceEntries;
        result.stats.crashStatesEnumerated +=
            stats[t].crashStatesEnumerated;
        result.stats.crashStatesExplored +=
            stats[t].crashStatesExplored;
        result.stats.crashStatesPruned += stats[t].crashStatesPruned;
        for (auto &p : stats[t].crashPruned)
            result.stats.crashPruned.push_back(std::move(p));
        if (threads == 1) {
            result.stats.postSeconds += stats[t].postSeconds;
            result.stats.backendSeconds += stats[t].backendSeconds;
        }
        result.stats.checksPerformed +=
            cursors[t].shadow.checksPerformed();
        result.stats.checksSkipped +=
            cursors[t].shadow.checksSkipped();
        result.stats.restore.merge(stats[t].restore);
        // Phase counts are serial/parallel-invariant; with workers the
        // summed seconds are CPU time, like the per-worker stats above.
        result.stats.phases.merge(stats[t].phases);
    }
    deltaStore = nullptr;
    chunkSyncPages = nullptr;
    csCtx = nullptr;
    if (threads > 1) {
        // Per-thread CPU times overlap; report the wall time split
        // proportionally like the serial breakdown would be.
        result.stats.postSeconds = wall;
    }

    // Performance bugs come from one full pre-trace replay, and the
    // pool is left holding the final pre-failure contents. The FSM
    // counters exported to the observer come from this cursor: it
    // covers the whole trace exactly once, so serial and parallel
    // campaigns register identical values.
    ShadowFsmCounters fsm;
    {
        obs::SpanScope span(tl, "perf-scan", "phase", 0);
        PreCursor full(pool.range(), cfg, initial, false);
        auto tb = std::chrono::steady_clock::now();
        advanceShadow(full, pre_trace, trace_end, &merged);
        advanceImage(full, pre_trace, trace_end);
        double scan_s = secondsSince(tb);
        result.stats.backendSeconds += scan_s;
        result.stats.phases.note(obs::Phase::Classify, scan_s);
        full.image.copyTo(pool);
        fsm = full.shadow.fsmCounters();
    }

    result.bugs = merged.bugs();

    if (observer && cfg.collectStats && obs::statsCompiledIn) {
        std::array<std::uint64_t, trace::opCount> post_ops_total{};
        std::vector<double> latency_all;
        for (unsigned t = 0; t < threads; t++) {
            for (std::size_t i = 0; i < trace::opCount; i++)
                post_ops_total[i] += post_ops[t][i];
            latency_all.insert(latency_all.end(),
                               post_latency[t].begin(),
                               post_latency[t].end());
        }
        fillObserverStats(result, pre_ops, post_ops_total, fsm,
                          latency_all);
    }
    return result;
}

void
Driver::fillObserverStats(
    const CampaignResult &res,
    const std::array<std::uint64_t, trace::opCount> &pre_ops,
    const std::array<std::uint64_t, trace::opCount> &post_ops,
    const ShadowFsmCounters &fsm,
    const std::vector<double> &post_latency)
{
    using obs::Scalar;

    obs::StatsRegistry &reg = observer->stats;
    const CampaignStats &s = res.stats;

    auto set = [&](const std::string &name, const std::string &desc,
                   double v) {
        reg.scalar(name, desc).set(v);
    };

    set("campaign.failure_points",
        "failure points planned (after elision)",
        static_cast<double>(s.failurePoints));
    set("campaign.ordering_candidates",
        "ordering points considered for failure injection",
        static_cast<double>(s.orderingCandidates));
    set("campaign.elided_points",
        "failure points skipped by trace elision",
        static_cast<double>(s.elidedPoints));
    set("campaign.lint.pruned_points",
        "failure points folded into batch representatives",
        static_cast<double>(s.lintPrunedPoints));
    set("campaign.batch.groups",
        "signature groups scheduled (--backend=batched)",
        static_cast<double>(s.batchGroups));
    set("campaign.batch.folded_points",
        "failure points covered by a group representative's run",
        static_cast<double>(s.lintPrunedPoints));
    set("campaign.trace.same_value_elided",
        "same-value stores elided at emit time (--elide-same-value)",
        static_cast<double>(s.sameValueElided));
    set("campaign.post_executions",
        "post-failure stage executions",
        static_cast<double>(s.postExecutions));
    set("campaign.crashstates.enumerated",
        "partial crash-state candidates enumerated (--crash-states)",
        static_cast<double>(s.crashStatesEnumerated));
    set("campaign.crashstates.explored",
        "partial crash-state candidates executed",
        static_cast<double>(s.crashStatesExplored));
    set("campaign.crashstates.pruned",
        "candidates skipped by equivalence-class pruning",
        static_cast<double>(s.crashStatesPruned));
    set("campaign.crashstates.partial_findings",
        "findings first exposed on a partial crash image",
        static_cast<double>(cfg.crashStatesOn()
                                ? res.partialImageFindings()
                                : 0));
    {
        Scalar &cs_en =
            reg.scalar("campaign.crashstates.enumerated", "");
        Scalar &cs_pr = reg.scalar("campaign.crashstates.pruned", "");
        reg.formula("campaign.crashstates.prune_ratio",
                    "fraction of enumerated candidates pruned as "
                    "equivalent",
                    [&cs_en, &cs_pr] {
                        return cs_en.value()
                                   ? cs_pr.value() / cs_en.value()
                                   : 0.0;
                    });
    }
    set("campaign.pre_trace_entries", "pre-failure trace entries",
        static_cast<double>(s.preTraceEntries));
    set("campaign.post_trace_entries",
        "post-failure trace entries (all executions)",
        static_cast<double>(s.postTraceEntries));
    set("campaign.checks_performed",
        "post-failure read checks performed",
        static_cast<double>(s.checksPerformed));
    set("campaign.checks_skipped",
        "post-failure read checks skipped (first-read opt)",
        static_cast<double>(s.checksSkipped));
    set("campaign.threads", "worker threads used",
        static_cast<double>(s.threads));
    set("campaign.bugs", "distinct findings",
        static_cast<double>(res.bugs.size()));
    set("campaign.pre_seconds", "pre-failure stage wall seconds",
        s.preSeconds);
    set("campaign.post_seconds", "post-failure stage wall seconds",
        s.postSeconds);
    set("campaign.backend_seconds",
        "image reconstruction + replay wall seconds",
        s.backendSeconds);

    Scalar &pre_s = reg.scalar("campaign.pre_seconds", "");
    Scalar &post_s = reg.scalar("campaign.post_seconds", "");
    Scalar &back_s = reg.scalar("campaign.backend_seconds", "");
    reg.formula("campaign.total_seconds",
                "pre + post + backend wall seconds",
                [&pre_s, &post_s, &back_s] {
                    return pre_s.value() + post_s.value() +
                           back_s.value();
                });
    Scalar &cand = reg.scalar("campaign.ordering_candidates", "");
    Scalar &elided = reg.scalar("campaign.elided_points", "");
    reg.formula("campaign.elision_ratio",
                "fraction of candidate points elided",
                [&cand, &elided] {
                    return cand.value() ? elided.value() / cand.value()
                                        : 0.0;
                });
    Scalar &fps = reg.scalar("campaign.failure_points", "");
    Scalar &pruned = reg.scalar("campaign.lint.pruned_points", "");
    reg.formula("campaign.lint.prune_ratio",
                "fraction of planned points folded by "
                "--backend=batched",
                [&fps, &pruned] {
                    double planned = fps.value() + pruned.value();
                    return planned ? pruned.value() / planned : 0.0;
                });

    // Delta-image engine restore volume. The baseline is what the
    // full-copy engine would have moved: one pool-sized copy per
    // restore.
    set("campaign.pool_bytes", "exec-pool capacity in bytes",
        static_cast<double>(s.poolBytes));
    set("campaign.delta.full_copies",
        "full-image restores (chunk starts, checkpoint cadence)",
        static_cast<double>(s.restore.fullCopies));
    set("campaign.delta.delta_restores",
        "page-granular partial restores",
        static_cast<double>(s.restore.deltaRestores));
    set("campaign.delta.pages_restored",
        "pages copied by partial restores",
        static_cast<double>(s.restore.pagesRestored));
    set("campaign.delta.bytes_restored",
        "bytes copied by partial restores",
        static_cast<double>(s.restore.bytesRestored));
    set("campaign.delta.bytes_full_copy",
        "bytes copied by full-image restores",
        static_cast<double>(s.restore.bytesFullCopy));
    set("campaign.delta.sync_restores",
        "from-scratch resyncs done page-granular instead of O(pool)",
        static_cast<double>(s.restore.syncRestores));
    Scalar &pool_b = reg.scalar("campaign.pool_bytes", "");
    Scalar &full_c = reg.scalar("campaign.delta.full_copies", "");
    Scalar &delta_r = reg.scalar("campaign.delta.delta_restores", "");
    Scalar &bytes_r = reg.scalar("campaign.delta.bytes_restored", "");
    Scalar &bytes_f = reg.scalar("campaign.delta.bytes_full_copy", "");
    reg.formula("campaign.delta.bytes_elided",
                "restore bytes saved vs full-copy baseline",
                [&pool_b, &full_c, &delta_r, &bytes_r, &bytes_f] {
                    double baseline = (full_c.value() +
                                       delta_r.value()) *
                                      pool_b.value();
                    return baseline -
                           (bytes_r.value() + bytes_f.value());
                });
    reg.formula("campaign.delta.restore_ratio",
                "restore bytes moved / full-copy baseline",
                [&pool_b, &full_c, &delta_r, &bytes_r, &bytes_f] {
                    double baseline = (full_c.value() +
                                       delta_r.value()) *
                                      pool_b.value();
                    return baseline ? (bytes_r.value() +
                                       bytes_f.value()) /
                                          baseline
                                    : 0.0;
                });

    // Shadow-PM persistency-FSM edge traversals (Fig. 6), from the
    // deterministic full-trace replay.
    for (std::size_t f = 0; f < ShadowFsmCounters::numStates; f++) {
        for (std::size_t t = 0; t < ShadowFsmCounters::numStates; t++) {
            std::uint64_t n = fsm.edge[f][t];
            if (!n)
                continue;
            auto from = static_cast<PersistState>(f);
            auto to = static_cast<PersistState>(t);
            set(strprintf("shadow_fsm.edge.%s_to_%s",
                          persistStateName(from), persistStateName(to)),
                "shadow-PM state transitions over the pre-trace",
                static_cast<double>(n));
        }
    }
    set("shadow_fsm.redundant_flushes",
        "flushes of lines with no modified data",
        static_cast<double>(fsm.redundantFlushes));
    set("shadow_fsm.fences", "fences replayed",
        static_cast<double>(fsm.fences));
    set("shadow_fsm.ordering_fences",
        "fences that persisted at least one pending line",
        static_cast<double>(fsm.orderingFences));

    // Per-op trace volumes.
    for (std::size_t i = 0; i < trace::opCount; i++) {
        auto op = static_cast<trace::Op>(i);
        if (pre_ops[i]) {
            set(strprintf("trace.pre.%s", trace::opName(op)),
                "pre-failure trace entries of this op",
                static_cast<double>(pre_ops[i]));
        }
        if (post_ops[i]) {
            set(strprintf("trace.post.%s", trace::opName(op)),
                "post-failure trace entries of this op (all "
                "executions)",
                static_cast<double>(post_ops[i]));
        }
    }

    // Post-failure execution latency distribution, in microseconds.
    obs::Histogram &h = reg.histogram(
        "campaign.post_exec_latency_us",
        "post-failure stage latency per failure point (us)");
    for (double sec : post_latency)
        h.sample(sec * 1e6);

    // Per-phase attribution of the campaign loop.
    obs::exportPhaseStats(reg, s.phases, s.backendSeconds);
}

} // namespace xfd::core
