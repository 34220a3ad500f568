/**
 * @file
 * The XFDetector campaign driver (paper Fig. 7 / Fig. 8).
 *
 * One detection campaign over a program:
 *  1. run the pre-failure stage once under tracing,
 *  2. plan failure points before every ordering point (§4.2),
 *  3. for each failure point: materialize the PM image as of that
 *     point (initial image + all recorded writes before it, persisted
 *     or not — footnote 3), run the post-failure stage (recovery +
 *     resumption) on it under tracing,
 *  4. replay the pre-failure trace incrementally into the shadow PM
 *     and check every post-failure read against it (§5.4),
 *  5. aggregate deduplicated bug reports and timing statistics.
 *
 * runParallel() implements the future work the paper names in §6.2.1
 * ("the post-failure executions are independent as they operate on a
 * copy of the original PM image, and therefore, can be parallelized"):
 * the schedule — one work item per failure point, or per signature
 * group under --backend=batched — is pulled dynamically off a shared
 * queue by worker threads, each with its own pool replica, shadow PM
 * and replay cursors. Items are consumed in ascending seq order, so
 * every worker's cursors stay monotonic regardless of which items it
 * wins, and findings collect per item and merge in item order, so
 * the result is deterministic and identical to the serial run.
 */

#ifndef XFD_CORE_DRIVER_HH
#define XFD_CORE_DRIVER_HH

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/bug_report.hh"
#include "core/config.hh"
#include "core/failure_planner.hh"
#include "core/observer.hh"
#include "core/shadow_pm.hh"
#include "obs/histogram.hh"
#include "obs/phase_profiler.hh"
#include "pm/cow.hh"
#include "pm/delta.hh"
#include "pm/image.hh"
#include "pm/pool.hh"
#include "trace/buffer.hh"
#include "trace/runtime.hh"
#include "trace/subset.hh"

namespace xfd::core
{

/** A traced program stage: receives the tracing runtime. */
using ProgramFn = std::function<void(trace::PmRuntime &)>;

/**
 * Timing and volume statistics for one campaign: the one home of
 * every campaign number the stats document exports.
 */
struct CampaignStats
{
    std::size_t failurePoints = 0;
    std::size_t orderingCandidates = 0;
    std::size_t elidedPoints = 0;
    /**
     * Points folded into a signature group's representative and not
     * executed (0 unless --backend=batched).
     */
    std::size_t lintPrunedPoints = 0;
    /** Signature groups scheduled (0 unless --backend=batched). */
    std::size_t batchGroups = 0;
    /** Same-value stores elided at emit time (--elide-same-value). */
    std::size_t sameValueElided = 0;
    std::size_t postExecutions = 0;
    /**
     * @name Crash-state exploration volume (--crash-states)
     * Partial candidates only — the anchor run is not counted here.
     * @{
     */
    /** Partial candidate masks enumerated over all failure points. */
    std::size_t crashStatesEnumerated = 0;
    /** Partial candidates actually executed (recovery + classify). */
    std::size_t crashStatesExplored = 0;
    /** Candidates skipped by equivalence-class pruning. */
    std::size_t crashStatesPruned = 0;
    /**
     * Candidates skipped as read-equivalent: an executed candidate
     * of the same point read none of the frontier writes they differ
     * in, and they agree on every commit-variable write (DESIGN.md
     * §14), so its findings stand for theirs.
     */
    std::size_t crashStatesReadEquivalent = 0;
    /**
     * One record per pruned candidate: where it was skipped, the
     * failure point whose identical candidate already executed, and
     * the mask — the conformance tier oracle-rechecks exactly these.
     */
    struct PrunedCrashCandidate
    {
        std::uint32_t fp = 0;
        std::uint32_t repFp = 0;
        std::string maskHex;
    };
    std::vector<PrunedCrashCandidate> crashPruned;
    /**
     * One record per read-equivalent candidate: the failure point,
     * the mask of the executed candidate whose findings it reused,
     * and its own mask — the oracle re-checks these like pruned ones.
     */
    struct ReadEquivalentCandidate
    {
        std::uint32_t fp = 0;
        trace::SubsetMask repMask;
        trace::SubsetMask mask;
    };
    std::vector<ReadEquivalentCandidate> crashReadEquivalent;
    /** @} */
    std::size_t preTraceEntries = 0;
    std::size_t postTraceEntries = 0;
    std::size_t checksPerformed = 0;
    std::size_t checksSkipped = 0;
    /**
     * Shadow-PM persistence-FSM edge counts (paper Fig. 9) of the
     * perf-scan replay, the one cursor that covers the whole
     * pre-failure trace exactly once: serial and threaded campaigns
     * count the same.
     */
    ShadowFsmCounters shadowFsm;
    /** Per-op entry counts of the pre-failure trace. */
    trace::OpCounts preOps{};
    /** Per-op entry counts of every post-failure trace. */
    trace::OpCounts postOps{};
    /**
     * Post-failure stage latency in µs, one sample per execution: the
     * recovery_exec interval of each.
     */
    obs::Histogram postExecLatencyUs;
    /** Worker threads used (1 = serial). */
    unsigned threads = 1;
    /** Exec-pool restore volume (write-log page deltas). */
    pm::DeltaRestoreStats restore;
    /** Pool capacity in bytes (baseline for restore-volume ratios). */
    std::size_t poolBytes = 0;
    /**
     * Per-phase time attribution of the campaign: the one record of
     * every timed interval (obs::ScopedPhase). Phase *counts* are
     * serial/parallel-invariant; with workers the seconds are
     * CPU-seconds summed over them, and so are the sums below.
     */
    obs::PhaseTotals phases;

    /** Pre-failure stage seconds (trace_capture). */
    double
    preSeconds() const
    {
        return phases.secondsOf(obs::Phase::TraceCapture);
    }

    /** Post-failure stage seconds, all executions (recovery_exec). */
    double
    postSeconds() const
    {
        return phases.secondsOf(obs::Phase::RecoveryExec);
    }

    /** Image reconstruction + checking seconds (restore + classify). */
    double
    backendSeconds() const
    {
        return phases.secondsOf(obs::Phase::Restore) +
               phases.secondsOf(obs::Phase::Classify);
    }

    /** The paper's Fig. 12 split summed: pre + post + backend. */
    double
    totalSeconds() const
    {
        return preSeconds() + postSeconds() + backendSeconds();
    }

    /**
     * Fold one worker's stats into these: every number a worker
     * counts (executions, post-trace volume, checks, crash-state
     * counts and records, restore volume, phases, latency). The
     * numbers a campaign sets once — plan counts, pre-trace volume,
     * shadowFsm, threads, poolBytes — stay as they are. The
     * crash-state records move out of @p o.
     */
    void merge(CampaignStats &&o);
};

/**
 * Everything a campaign produced: findings, stats, per-phase timing
 * and the configuration it ran under — the first-class return object
 * of Driver::run()/xfd::Campaign::run(). Prefer the accessors
 * (findings(), statistics(), phases(), config(), fingerprint()) over
 * reaching into the public members; the members stay public because
 * the campaign benchmark (perfbench/) reads them (DESIGN.md §16).
 */
struct CampaignResult
{
    std::vector<BugReport> bugs;
    CampaignStats stats;

    /** The deduplicated findings, in deterministic merge order. */
    const std::vector<BugReport> &findings() const { return bugs; }

    /** Timing/volume statistics of the campaign. */
    const CampaignStats &statistics() const { return stats; }

    /** Per-phase wall-time attribution of the campaign loop. */
    const obs::PhaseTotals &phases() const { return stats.phases; }

    /** The DetectorConfig this campaign actually ran with. */
    const DetectorConfig &config() const { return runConfig; }

    /** @return number of distinct findings of type @p t. */
    std::size_t count(BugType t) const;

    bool hasBugs() const { return !bugs.empty(); }

    /** Multi-line human-readable report. */
    std::string summary() const;

    /**
     * Order-insensitive identity of the findings: one sorted line
     * per finding ("type|reader|writer|note"), independent of
     * scheduling, worker count and backend mode. Byte-comparable
     * across runs — the batch-equivalence tests and the CI
     * batch-smoke job diff exactly this string.
     */
    std::string fingerprint() const;

    /**
     * Findings first exposed on a *partial* crash image: their
     * persistedMask provenance has at least one cleared bit, i.e. the
     * anchor (all-updates) image of the same failure point did not
     * produce them. Meaningful for --crash-states campaigns; under
     * --crash-image every finding's mask is all-zero by construction
     * and counts here.
     */
    std::size_t partialImageFindings() const;

    /** Filled by the driver; read through config(). */
    DetectorConfig runConfig;
};

/**
 * What one post-failure execution read and did: its trace, plus the
 * PM ranges it read without a Read entry (PmRuntime::peek and the
 * in-pool sources of copyToPm). The trace's Read entries and those
 * ranges are the execution's read footprint; recovery is a function
 * of the bytes in it.
 */
struct RecoveryRun
{
    trace::TraceBuffer trace;
    std::vector<AddrRange> untracedReads;

    /** Call @p fn(AddrRange) for every range of the read footprint. */
    template <typename Fn>
    void
    forEachRead(Fn &&fn) const
    {
        for (const auto &e : trace) {
            if (e.op == trace::Op::Read && e.size)
                fn(AddrRange{e.addr, e.addr + e.size});
        }
        for (const AddrRange &r : untracedReads)
            fn(r);
    }
};

/**
 * Run the post-failure stage @p post once on @p pool, recording into
 * @p out (cleared first) under the 2^20-entry runaway cap. The one
 * recovery executor of the detector and the crash-state oracle.
 * @return the RecoveryFailure finding when recovery aborted
 *         (PostFailureAbort) or touched PM outside the pool
 *         (pm::BadPmAccess), without writer or failure point;
 *         nothing when the stage completed.
 */
std::optional<BugReport>
runRecovery(pm::PmPool &pool, const ProgramFn &post, RecoveryRun &out);

/** Orchestrates detection campaigns over a PM pool. */
class Driver
{
  public:
    explicit Driver(pm::PmPool &pool, DetectorConfig cfg = {});

    /**
     * Run a full detection campaign.
     *
     * @param pre  the pre-failure stage (setup + RoI operations)
     * @param post the post-failure stage (recovery + resumption),
     *             invoked once per failure point on the reconstructed
     *             PM image
     */
    CampaignResult run(const ProgramFn &pre, const ProgramFn &post);

    /**
     * Like run(), but post-failure executions are distributed over
     * @p threads worker threads (each on its own pool replica).
     * Findings are identical to the serial run.
     * @throw std::invalid_argument before the pre-failure stage runs
     *        when the config cannot run (checkDetectorConfig); run()
     *        throws the same.
     */
    CampaignResult runParallel(const ProgramFn &pre,
                               const ProgramFn &post, unsigned threads);

    /**
     * Fig. 12b baselines: run only the pre-failure stage.
     * @param traced when true, trace but do not detect ("pure Pin");
     *               when false, disable tracing too ("original").
     * @return wall-clock seconds.
     */
    double runBaseline(const ProgramFn &pre, bool traced);

    /**
     * Attach observability sinks: phase/failure-point spans land on
     * @p o's timeline, its live registry is fed while enabled, and
     * o->hooks receives the campaign events. Pass nullptr to detach.
     * The observer must outlive subsequent run()/runParallel() calls.
     */
    void setObserver(CampaignObserver *o) { observer = o; }

  private:
    /**
     * Per-worker replay state: the shadow PM and the working image,
     * both advanced monotonically over the pre-failure trace by one
     * cursor.
     */
    struct PreCursor
    {
        /**
         * @p initial is the shared campaign-start snapshot; both
         * images fork it (O(pages) pointer copies — pages physically
         * split only as writes land). @p explore keeps the shadow's
         * write tails (finding provenance), plus the durable image
         * when the campaign runs candidates other than the anchor
         * (--crash-states, --crash-image); the end-of-campaign perf
         * scan needs neither.
         */
        PreCursor(AddrRange range, const DetectorConfig &cfg,
                  const pm::CowImage &initial, bool explore);
        /** The shadow reports into decided, so the cursor stays put. */
        PreCursor(const PreCursor &) = delete;
        PreCursor &operator=(const PreCursor &) = delete;

        ShadowPM shadow;
        /** All updates applied (the paper's footnote-3 image). */
        pm::CowImage image;
        /**
         * The working image minus the shadow's open cells: the
         * all-zero candidate, and the base every other candidate
         * builds on. Empty in anchor-only campaigns.
         */
        pm::CowImage durable;
        /**
         * Cells the entry being advanced over decided (scratch): the
         * shadow reports them while durable is maintained.
         */
        std::vector<CellRun> decided;
        /** Pre-trace entries applied so far. */
        std::uint32_t cursor = 0;
        /** TX_ADD ranges of the open transaction (perf bugs). */
        std::vector<AddrRange> openTxAdds;
        /** Post-failure execution, reused (cleared) by every one. */
        RecoveryRun post;

        /** Failure point the exec pool was last restored to. */
        std::uint32_t lastRestoredSeq = 0;
        /**
         * Pages the next anchor restore copies besides the write-log
         * interval and the pool's dirt, because the write-log index
         * cannot see that they differ from the working image: before
         * the first restore the campaign's sync set, afterwards the
         * pages candidate restores copied from the durable image.
         * Empty while the exec pool holds the anchor image.
         */
        std::set<std::uint32_t> pendingPages;
    };

    /**
     * Advance the cursor's shadow PM and images over pre-trace
     * entries up to @p to, decoding each entry once.
     * @param perf_sink when non-null, performance bugs are reported
     */
    void advance(PreCursor &cur, const trace::TraceBuffer &pre,
                 std::uint32_t to, BugSink *perf_sink);

    /**
     * The candidates of the failure point in flight that later masks
     * may reuse (--crash-states): the bits whose writes overlap a
     * commit variable, an address index of the frontier's cell runs,
     * and every executed candidate with its findings and the bits a
     * mask must match to stand for it (DESIGN.md §14).
     */
    struct PointCandidates
    {
        /** One cell run of frontier bit `bit`: [lo, hi). */
        struct RunBit
        {
            Addr lo;
            Addr hi;
            std::uint32_t bit;
        };
        struct Executed
        {
            trace::SubsetMask mask;
            /** Bits its recovery read, plus the commit bits. */
            trace::SubsetMask decisive;
            /** Its findings (annotated with its own mask). */
            BugSink findings;
            /** XFD_DELTA_VALIDATE=1 only: its trace and outcome. */
            trace::TraceBuffer trace;
            std::optional<BugReport> failure;
        };

        PointCandidates(const ShadowPM &shadow, const CellFrontier &cf,
                        const trace::TraceBuffer &pre);

        /** Frontier bits the footprint of @p run reads. */
        trace::SubsetMask readBits(const RecoveryRun &run) const;

        /** The first executed candidate @p mask may reuse, or null. */
        const Executed *match(const trace::SubsetMask &mask) const;

        trace::SubsetMask commitBits;
        /** Sorted by lo; maxHi[i] is the largest hi in runs[0..i]. */
        std::vector<RunBit> runs;
        std::vector<Addr> maxHi;
        std::vector<Executed> executed;
    };

    /**
     * Handle failure point @p fp of equivalence group @p group end to
     * end on @p exec_pool: advance the cursors, restore the anchor
     * image, then run the point's own candidate (all-ones mask, or
     * all-zero under --crash-image) and the partial masks
     * --crash-states keeps, each executed unless it is read-equivalent
     * to a candidate the point already executed.
     */
    void handleFailurePoint(PreCursor &cur, pm::PmPool &exec_pool,
                            const trace::TraceBuffer &pre,
                            const ProgramFn &post, std::uint32_t fp,
                            std::uint32_t group, BugSink &sink,
                            CampaignStats &stats,
                            const obs::PhaseSinks &sinks);

    /**
     * Restore @p exec_pool to @p image, the working (footnote-3)
     * image as of trace seq @p to: copy the cursor's pending pages,
     * the pages the write log touched since the previous restore and
     * the pool's dirty pages, accounted into @p stats. Failure points
     * restore the cursor's own image; a serial campaign's last restore
     * returns the pool to the final pre-failure image.
     */
    void restoreAnchor(PreCursor &cur, pm::PmPool &exec_pool,
                       const pm::CowImage &image, std::uint32_t to,
                       pm::DeltaRestoreStats &stats);

    /**
     * Execute one candidate crash image of failure point @p fp: the
     * persisted subset @p mask of frontier @p cf. The all-ones mask
     * runs on the anchor image the exec pool already holds; any
     * other mask materializes over the durable image first. Runs
     * recovery into cur.post (a recovery abort or wild PM access is
     * a finding), classifies the trace, annotates the findings with
     * (cf.seqs, mask) and merges them into @p sink. @p point is the
     * point's candidates under --crash-states (null otherwise): its
     * commit bits decide semantic suppression, and with @p keep the
     * candidate joins its executed list with the bits recovery read.
     */
    void runCandidate(PreCursor &cur, pm::PmPool &exec_pool,
                      const trace::TraceBuffer &pre,
                      const ProgramFn &post, std::uint32_t fp,
                      const CellFrontier &cf,
                      const trace::SubsetMask &mask, BugSink &sink,
                      CampaignStats &stats, const obs::PhaseSinks &sinks,
                      PointCandidates *point, bool keep);

    /**
     * Skip @p mask if it is read-equivalent to a candidate @p point
     * executed: that candidate's findings, annotated with @p mask,
     * merge into @p sink as executing @p mask would have merged them,
     * and the skip is counted and recorded. Under XFD_DELTA_VALIDATE=1
     * the mask executes anyway, uncounted, and must replay the
     * representative's trace and outcome exactly.
     * @return whether @p mask was skipped
     */
    bool reuseCandidate(PreCursor &cur, pm::PmPool &exec_pool,
                        const trace::TraceBuffer &pre,
                        const ProgramFn &post, std::uint32_t fp,
                        const CellFrontier &cf,
                        const trace::SubsetMask &mask,
                        const PointCandidates &point, BugSink &sink,
                        CampaignStats &stats,
                        const obs::PhaseSinks &sinks);

    /**
     * Materialize a non-anchor candidate on @p exec_pool: restore it
     * to the durable image, then apply the masked frontier writes.
     */
    void restoreCandidate(PreCursor &cur, pm::PmPool &exec_pool,
                          const trace::TraceBuffer &pre,
                          std::uint32_t fp, const CellFrontier &cf,
                          const trace::SubsetMask &mask,
                          pm::DeltaRestoreStats &stats);

    /**
     * One Chrome-trace finding instant per finding in @p sink, with
     * its provenance (frontier, persisted mask) as args.
     */
    static void recordFindings(const obs::PhaseSinks &sinks,
                               std::uint32_t fp,
                               const std::vector<std::uint32_t> &frontier,
                               const trace::SubsetMask &mask,
                               const BugSink &sink);

    /**
     * Replay one post-failure trace against the shadow PM.
     * @param suppressSemantic drop commit-window (condition (3))
     *        verdicts (see runCandidate for when).
     */
    void replayPost(PreCursor &cur, const trace::TraceBuffer &pre,
                    const trace::TraceBuffer &post, std::uint32_t fp,
                    BugSink &sink, bool suppressSemantic);

    /**
     * Plan partial crash-state candidates at failure point @p fp
     * (--crash-states=sample:<n>|exhaustive): enumerate the legal
     * persisted subsets of frontier @p cf on the sampler stream
     * equivalence group id @p group names and prune them against the
     * group's campaign-global seen set. Executes nothing; accounts
     * enumeration and pruning in @p stats and bills its time to the
     * plan phase.
     * @return the masks to execute, in enumeration order.
     */
    std::vector<trace::SubsetMask>
    planCrashStates(const trace::TraceBuffer &pre, std::uint32_t fp,
                    std::uint32_t group, const CellFrontier &cf,
                    CampaignStats &stats);

    pm::PmPool &pool;
    DetectorConfig cfg;
    CampaignObserver *observer = nullptr;
    /**
     * Write-log page index for the campaign in flight: set by
     * runParallel() before workers start, cleared before it returns.
     */
    const pm::ImageDeltaStore *deltaStore = nullptr;

    /**
     * Campaign-global crash-state exploration context (parsed mode
     * knobs and the equivalence-class pruning set shared by every
     * worker). Set by runParallel() while a --crash-states campaign
     * is in flight, cleared before it returns; null otherwise.
     */
    struct CrashStateCtx;
    CrashStateCtx *csCtx = nullptr;
};

} // namespace xfd::core

#endif // XFD_CORE_DRIVER_HH
