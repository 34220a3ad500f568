/**
 * @file
 * Ablation — shadow-PM cell granularity (1/2/4/8 bytes per cell).
 *
 * Coarser cells shrink the shadow footprint and speed up replay but
 * can false-share state within a cell (a 1-byte write marks the whole
 * cell modified). The ablation reports campaign time per granularity
 * and verifies detections are preserved on a representative bug, plus
 * whether the bug-free workloads stay clean.
 */

#include "bench/bench_util.hh"
#include "bugsuite/registry.hh"

using namespace xfd;
using namespace xfd::bench;

int
main()
{
    setVerbose(false);
    const unsigned grans[] = {1, 2, 4, 8};

    workloads::WorkloadConfig cfg;
    cfg.initOps = 8;
    cfg.testOps = 12;
    cfg.postOps = 4;

    std::printf("\n=== Ablation: shadow-PM cell granularity ===\n");
    rule();
    std::printf("%-12s %12s %14s %16s %14s\n", "granularity",
                "time(ms)", "backend(ms)", "btree findings",
                "bug detected");
    rule();

    const bugsuite::BugCase *rep = nullptr;
    for (const auto &c : bugsuite::allBugCases()) {
        if (c.id == "btree.race.leaf_no_add")
            rep = &c;
    }

    bool all_clean = true;
    bool all_detect = true;
    for (unsigned g : grans) {
        core::DetectorConfig dcfg;
        dcfg.granularity = g;
        Timing t = timeCampaign("btree", cfg, dcfg, 2);
        bool det = rep && bugsuite::detected(
                              *rep, bugsuite::runBugCase(*rep, dcfg));
        std::printf("%-9uB %12.2f %14.3f %16zu %14s\n", g,
                    t.meanWallSeconds * 1e3,
                    t.meanBackendSeconds * 1e3, t.last.findings().size(),
                    det ? "yes" : "NO");
        all_clean = all_clean && t.last.findings().empty();
        all_detect = all_detect && det;
    }
    rule();
    std::printf("\nall granularities must keep the bug-free workload "
                "clean and still detect the\ninjected race; byte "
                "granularity is the default (no false sharing of "
                "state).\n\n");
    return (all_clean && all_detect) ? 0 : 1;
}
