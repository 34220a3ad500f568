/**
 * @file
 * Ablation — crash-image construction.
 *
 * The paper's image copy keeps all updates (footnote 3) and relies on
 * the shadow PM to flag reads of unpersisted data. Our crashImageMode
 * extension instead materializes the image a real crash would leave
 * (pmreorder/Yat-style). This bench compares the two on the micro
 * workloads and a representative bug from each class:
 *
 *  - bug-free workloads must be clean either way;
 *  - the shadow-based race detection is mode-independent;
 *  - crash mode can additionally surface behavioural recovery
 *    failures (the recovery *acting* on missing data), at the cost of
 *    testing one materialization instead of all interleavings.
 */

#include "bench/bench_util.hh"
#include "bugsuite/registry.hh"

using namespace xfd;
using namespace xfd::bench;

int
main()
{
    setVerbose(false);
    const char *const micro[] = {"btree", "ctree", "rbtree",
                                 "hashmap_tx", "hashmap_atomic"};

    workloads::WorkloadConfig cfg;
    cfg.initOps = 6;
    cfg.testOps = 10;
    cfg.postOps = 4;

    std::printf("\n=== Ablation: footnote-3 image vs. realistic crash "
                "image ===\n");
    rule();
    std::printf("%-16s %-14s %12s %12s %12s\n", "workload", "mode",
                "findings", "recoveries", "time(ms)");
    rule();
    bool clean = true;
    for (const char *w : micro) {
        for (int mode = 0; mode < 2; mode++) {
            core::DetectorConfig dcfg;
            dcfg.crashImageMode = mode == 1;
            Timing t = timeCampaign(w, cfg, dcfg, 1);
            std::printf("%-16s %-14s %12zu %12zu %12.2f\n", w,
                        mode ? "crash image" : "paper (all)",
                        t.last.findings().size(),
                        t.last.count(core::BugType::RecoveryFailure),
                        t.meanWallSeconds * 1e3);
            clean = clean && t.last.findings().empty();
        }
    }
    rule();

    std::printf("\nrepresentative bugs under both modes:\n");
    rule();
    // Semantic cases are excluded: crash-image mode disables the
    // commit-variable checks (see DetectorConfig::crashImageMode).
    const char *const reps[] = {"btree.race.leaf_no_add",
                                "hashmap_tx.race.slot_no_add",
                                "hashmap_atomic.shipped.count_uninit"};
    bool detected_both = true;
    for (const char *id : reps) {
        for (const auto &c : bugsuite::allBugCases()) {
            if (c.id != id)
                continue;
            core::DetectorConfig crash;
            crash.crashImageMode = true;
            bool d_paper = bugsuite::detected(c, bugsuite::runBugCase(c));
            bool d_crash =
                bugsuite::detected(c, bugsuite::runBugCase(c, crash));
            detected_both = detected_both && d_paper && d_crash;
            std::printf("%-46s paper:%s crash-image:%s\n", id,
                        d_paper ? "Y" : "n", d_crash ? "Y" : "n");
        }
    }
    rule();
    std::printf("\nshadow-based detection is image-mode independent; "
                "the paper's all-updates copy\nremains the default "
                "because it covers every persistence interleaving at "
                "once.\n\n");
    return (clean && detected_both) ? 0 : 1;
}
