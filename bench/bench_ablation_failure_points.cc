/**
 * @file
 * Ablation — failure-point planning (paper §4.2 + optimization 2).
 *
 * Compares, per micro workload:
 *  - elision of empty ordering intervals ON (paper default) vs OFF:
 *    how many post-failure executions the optimization saves;
 *  - failure points at library-internal fences ON (our default,
 *    strictly finer than the paper's one-point-per-library-call) vs
 *    OFF (user-code fences only): coverage vs. cost.
 *
 * Detection capability is also shown: a representative bug from each
 * workload must remain detected in every configuration that covers
 * its ordering points.
 */

#include "bench/bench_util.hh"
#include "bugsuite/registry.hh"

using namespace xfd;
using namespace xfd::bench;

namespace
{

workloads::WorkloadConfig
config()
{
    workloads::WorkloadConfig cfg;
    cfg.initOps = 5;
    cfg.testOps = 10;
    cfg.postOps = 2;
    return cfg;
}

} // namespace

int
main()
{
    setVerbose(false);
    const char *const micro[] = {"btree", "ctree", "rbtree",
                                 "hashmap_tx", "hashmap_atomic"};

    std::printf("\n=== Ablation: failure-point planning ===\n");
    rule();
    std::printf("%-16s %-22s %10s %10s %10s\n", "workload", "config",
                "#points", "elided", "time(ms)");
    rule();
    for (const char *w : micro) {
        struct
        {
            const char *label;
            core::DetectorConfig dcfg;
        } configs[3];
        configs[0].label = "default";
        configs[1].label = "no elision";
        configs[1].dcfg.elideEmptyFailurePoints = false;
        configs[2].label = "user fences only";
        configs[2].dcfg.failureAtInternalFences = false;

        for (const auto &c : configs) {
            Timing t = timeCampaign(w, config(), c.dcfg, 1);
            std::printf("%-16s %-22s %10zu %10zu %10.2f\n", w, c.label,
                        t.last.statistics().failurePoints,
                        t.last.statistics().elidedPoints,
                        t.meanWallSeconds * 1e3);
        }
    }
    rule();

    std::printf("\ndetection capability under each config "
                "(one representative bug per workload):\n");
    rule();
    const char *const rep_bugs[] = {
        "btree.race.leaf_no_add", "ctree.race.link_no_add",
        "rbtree.race.insert_link_no_add", "hashmap_tx.race.slot_no_add",
        "hashmap_atomic.race.entry_no_persist"};
    for (const char *id : rep_bugs) {
        for (const auto &c : bugsuite::allBugCases()) {
            if (c.id != id)
                continue;
            core::DetectorConfig no_elide;
            no_elide.elideEmptyFailurePoints = false;
            core::DetectorConfig user_only;
            user_only.failureAtInternalFences = false;
            bool d1 = bugsuite::detected(c, bugsuite::runBugCase(c));
            bool d2 = bugsuite::detected(
                c, bugsuite::runBugCase(c, no_elide));
            bool d3 = bugsuite::detected(
                c, bugsuite::runBugCase(c, user_only));
            std::printf("%-44s default:%s no-elision:%s user-only:%s\n",
                        id, d1 ? "Y" : "n", d2 ? "Y" : "n",
                        d3 ? "Y" : "n");
        }
    }
    rule();
    std::printf("\nelision removes post-failure executions without "
                "losing detections (the paper's\nobservation that "
                "state only changes at ordering points).\n\n");
    return 0;
}
