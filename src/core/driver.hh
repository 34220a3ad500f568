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
#include <set>
#include <string>
#include <vector>

#include "core/bug_report.hh"
#include "core/config.hh"
#include "core/failure_planner.hh"
#include "core/observer.hh"
#include "core/shadow_pm.hh"
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

struct CellFrontier;

/** A traced program stage: receives the tracing runtime. */
using ProgramFn = std::function<void(trace::PmRuntime &)>;

/** Timing and volume statistics for one campaign. */
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
    /** @} */
    std::size_t preTraceEntries = 0;
    std::size_t postTraceEntries = 0;
    double preSeconds = 0;
    double postSeconds = 0;
    double backendSeconds = 0;
    std::size_t checksPerformed = 0;
    std::size_t checksSkipped = 0;
    /** Worker threads used (1 = serial). */
    unsigned threads = 1;
    /** Exec-pool restore volume (delta engine or full copies). */
    pm::DeltaRestoreStats restore;
    /** Pool capacity in bytes (baseline for restore-volume ratios). */
    std::size_t poolBytes = 0;
    /**
     * Per-phase wall-time attribution of the campaign loop. The
     * restore/classify entries reuse the exact measured intervals
     * that feed backendSeconds, so in a serial campaign
     * phases.backendAttributed() == backendSeconds identically;
     * phase *counts* are serial/parallel-invariant.
     */
    obs::PhaseTotals phases;

    double totalSeconds() const
    {
        return preSeconds + postSeconds + backendSeconds;
    }
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
     * @p o's timeline, stat counters are aggregated into its registry
     * at campaign end (when cfg.collectStats), and o->hooks receives
     * the campaign events. Pass nullptr to detach. The observer
     * must outlive subsequent run()/runParallel() calls.
     */
    void setObserver(CampaignObserver *o) { observer = o; }

  private:
    /**
     * Per-worker replay state: the shadow PM and the working image,
     * both advanced monotonically over the pre-failure trace.
     */
    struct PreCursor
    {
        /**
         * @p initial is the shared campaign-start snapshot; both
         * images fork it (O(pages) pointer copies — pages physically
         * split only as writes land). @p explore builds the cell
         * model when the campaign runs candidates other than the
         * anchor (--crash-states, --crash-image); the end-of-campaign
         * perf scan never reads it.
         */
        PreCursor(AddrRange range, const DetectorConfig &cfg,
                  const pm::CowImage &initial, bool explore);
        ~PreCursor();

        ShadowPM shadow;
        /** All updates applied (the paper's footnote-3 image). */
        pm::CowImage image;
        /**
         * The working image minus the cell model's open cells: the
         * all-zero candidate, and the base every other candidate
         * builds on. Maintained only when cs is set.
         */
        pm::CowImage durable;
        std::uint32_t shadowCursor = 0;
        std::uint32_t imageCursor = 0;
        /** TX_ADD ranges of the open transaction (perf bugs). */
        std::vector<AddrRange> openTxAdds;
        /** Post-failure trace, reused (cleared) by every execution. */
        trace::TraceBuffer postTrace;

        /**
         * @name Line-granular frontier (anchor-only provenance)
         *
         * Without a cell model, inflight maps each dirty cache line
         * to the seqs of writes covering it that are not yet durably
         * persisted; inflightPending holds lines whose writes have
         * been flushed and persist at the next fence. The sorted
         * union of inflight's seq lists at a failure point is that
         * point's write frontier.
         * @{
         */
        std::map<Addr, std::vector<std::uint32_t>> inflight;
        std::set<Addr> inflightPending;
        /** @} */

        /**
         * @name Delta-restore state (meaningful only when the driver
         * runs with an ImageDeltaStore attached)
         * @{
         */
        /** Exec pool has been synced with a full copy at least once. */
        bool execSynced = false;
        /** Failure point the exec pool was last restored to. */
        std::uint32_t lastRestoredSeq = 0;
        /** Delta restores since the last full checkpoint. */
        std::size_t sinceCheckpoint = 0;
        /**
         * Pages candidate restores copied from the durable image
         * since the last anchor restore. The write-log index cannot
         * see that they differ from the working image, so the next
         * anchor restore re-copies them. Empty while the exec pool
         * holds the anchor image.
         */
        std::set<std::uint32_t> candidatePages;
        /** @} */

        /**
         * The cell-granular persistency model (core/crash_cells.hh),
         * so the driver's frontiers, candidate masks and candidate
         * images agree with the oracle's byte for byte. Null in
         * anchor-only campaigns and under eADR, where every frontier
         * is empty.
         */
        struct CsState;
        std::unique_ptr<CsState> cs;
    };

    /**
     * Advance the shadow PM over pre-trace entries up to @p to.
     * @param perf_sink when non-null, performance bugs are reported
     */
    void advanceShadow(PreCursor &cur, const trace::TraceBuffer &pre,
                       std::uint32_t to, BugSink *perf_sink);

    /** Advance the working image over pre-trace writes up to @p to. */
    void advanceImage(PreCursor &cur, const trace::TraceBuffer &pre,
                      std::uint32_t to);

    /** Per-worker observability context threaded through the chunk. */
    struct WorkerObs
    {
        /** Null when no observer is attached (spans disabled). */
        obs::Timeline *timeline = nullptr;
        /** Timeline track of this worker (0 = main). */
        int track = 0;
        /** Post-failure-stage seconds, one entry per failure point. */
        std::vector<double> *postLatency = nullptr;
        /** Per-op post-trace entry counts, accumulated per point. */
        std::array<std::uint64_t, trace::opCount> *postOps = nullptr;
        /** Live telemetry registry; null unless live output is on. */
        obs::LiveMetrics *live = nullptr;
    };

    /**
     * Handle failure point @p fp end to end on @p exec_pool: advance
     * the cursors, restore the anchor image, then run the point's own
     * candidate (all-ones mask, or all-zero under --crash-image) and
     * the partial masks --crash-states keeps.
     */
    void handleFailurePoint(PreCursor &cur, pm::PmPool &exec_pool,
                            const trace::TraceBuffer &pre,
                            const ProgramFn &post, std::uint32_t fp,
                            BugSink &sink, CampaignStats &stats,
                            const WorkerObs &wobs);

    /**
     * Restore @p exec_pool to the working (footnote-3) image as of
     * @p fp: a write-log delta restore when a delta store is
     * attached, a full copy otherwise.
     */
    void restoreAnchor(PreCursor &cur, pm::PmPool &exec_pool,
                       std::uint32_t fp, CampaignStats &stats);

    /**
     * Execute one candidate crash image of failure point @p fp: the
     * persisted subset @p mask of frontier @p cf. The all-ones mask
     * runs on the anchor image the exec pool already holds; any
     * other mask materializes over the durable image first. Runs
     * recovery, classifies its trace, annotates the findings with
     * (cf.seqs, mask) and merges them into @p sink.
     */
    void runCandidate(PreCursor &cur, pm::PmPool &exec_pool,
                      const trace::TraceBuffer &pre,
                      const ProgramFn &post, std::uint32_t fp,
                      const CellFrontier &cf,
                      const trace::SubsetMask &mask, BugSink &sink,
                      CampaignStats &stats, const WorkerObs &wobs);

    /**
     * Materialize a non-anchor candidate on @p exec_pool: restore it
     * to the durable image, then apply the masked frontier writes.
     */
    void restoreCandidate(PreCursor &cur, pm::PmPool &exec_pool,
                          const trace::TraceBuffer &pre,
                          std::uint32_t fp, const CellFrontier &cf,
                          const trace::SubsetMask &mask,
                          CampaignStats &stats);

    /**
     * Run the post-failure stage once on @p exec_pool under tracing
     * into cur.postTrace, reporting a recovery abort or wild PM
     * access into @p sink, and account the execution.
     */
    void runPost(PreCursor &cur, pm::PmPool &exec_pool,
                 const trace::TraceBuffer &pre, const ProgramFn &post,
                 std::uint32_t fp, BugSink &sink, CampaignStats &stats,
                 const WorkerObs &wobs);

    /**
     * One Chrome-trace finding instant per finding in @p sink, with
     * its provenance (frontier, persisted mask) as args.
     */
    static void recordFindings(const WorkerObs &wobs, std::uint32_t fp,
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
     * persisted subsets of frontier @p cf from the cursor's cell
     * model and equivalence-prune them against the campaign-global
     * seen set. Executes nothing; accounts enumeration and pruning
     * in @p stats and bills its time to the plan phase.
     * @return the masks to execute, in enumeration order.
     */
    std::vector<trace::SubsetMask>
    planCrashStates(PreCursor &cur, const trace::TraceBuffer &pre,
                    std::uint32_t fp, const CellFrontier &cf,
                    CampaignStats &stats);

    /**
     * Aggregate campaign counters into the observer's registry:
     * timing/volume scalars, shadow-FSM edge counts (from the
     * deterministic full-trace replay, so serial and parallel
     * campaigns register identical values), per-op trace volumes,
     * elision savings, and the post-execution latency histogram.
     */
    void fillObserverStats(
        const CampaignResult &res,
        const std::array<std::uint64_t, trace::opCount> &pre_ops,
        const std::array<std::uint64_t, trace::opCount> &post_ops,
        const ShadowFsmCounters &fsm,
        const std::vector<double> &post_latency);

    pm::PmPool &pool;
    DetectorConfig cfg;
    CampaignObserver *observer = nullptr;
    /**
     * Write-log page index for the campaign in flight; null disables
     * delta restores (handleFailurePoint falls back to full copies).
     * Set by runParallel() for the delta and batched backends,
     * cleared before it returns.
     */
    const pm::ImageDeltaStore *deltaStore = nullptr;
    /**
     * Pages where any working image can differ from a fresh zeroed
     * pool: the full write-log page set united with the initial
     * snapshot's nonzero pages. Chunk starts and checkpoint resyncs
     * restore this set (plus exec-pool dirt) instead of copying the
     * whole pool. Valid exactly while deltaStore is.
     */
    const std::set<std::uint32_t> *chunkSyncPages = nullptr;

    /**
     * Campaign-global crash-state exploration context (parsed mode
     * knobs + the equivalence-class pruning set shared by every
     * worker). Set by runParallel() while a --crash-states campaign
     * is in flight, cleared before it returns; null otherwise.
     */
    struct CrashStateCtx;
    CrashStateCtx *csCtx = nullptr;
};

} // namespace xfd::core

#endif // XFD_CORE_DRIVER_HH
