#include "bugsuite/registry.hh"

#include "common/logging.hh"
#include "pmlib/objpool.hh"
#include "workloads/workload.hh"
#include "xfd.hh"

namespace xfd::bugsuite
{

const char *
expectedName(Expected e)
{
    switch (e) {
      case Expected::Race: return "race";
      case Expected::Semantic: return "semantic";
      case Expected::Performance: return "performance";
      case Expected::RecoveryFailure: return "recovery-failure";
    }
    return "?";
}

const char *
originName(Origin o)
{
    switch (o) {
      case Origin::PmTestSuite: return "PMTest suite";
      case Origin::Additional: return "additional";
      case Origin::NewBug: return "new bug (6.3.2)";
      case Origin::Extra: return "extra";
    }
    return "?";
}

namespace
{

using E = Expected;
using O = Origin;

std::vector<BugCase>
buildRegistry()
{
    std::vector<BugCase> r;
    auto add = [&](const char *id, const char *wl, E e, O o,
                   const char *desc, unsigned init = 10,
                   unsigned test = 12, unsigned post = 6,
                   bool roi_start = false,
                   const char *crash_states = "") {
        r.push_back(BugCase{id, wl, e, o, desc, init, test, post,
                            roi_start, crash_states});
    };

    // ----------------------------------------------------------
    // B-Tree: 8 races + 2 perf (PMTest suite), 4 additional races.
    // ----------------------------------------------------------
    add("btree.race.leaf_no_add", "btree", E::Race, O::PmTestSuite,
        "leaf modified without TX_ADD");
    add("btree.race.update_no_add", "btree", E::Race, O::PmTestSuite,
        "value update without TX_ADD", 10, 20);
    add("btree.race.parent_no_add", "btree", E::Race, O::PmTestSuite,
        "split parent not snapshotted", 10, 16);
    add("btree.race.child_no_add", "btree", E::Race, O::PmTestSuite,
        "split child not snapshotted", 10, 16);
    add("btree.race.sibling_no_init", "btree", E::Race, O::PmTestSuite,
        "new split sibling never logged/flushed", 10, 16);
    add("btree.race.rootptr_no_add", "btree", E::Race, O::PmTestSuite,
        "root pointer update without TX_ADD", 0, 14, 6, true);
    add("btree.race.count_no_add", "btree", E::Race, O::PmTestSuite,
        "element count update without TX_ADD");
    add("btree.race.remove_no_add", "btree", E::Race, O::PmTestSuite,
        "removal modifies node without TX_ADD", 10, 20);
    add("btree.perf.double_add", "btree", E::Performance, O::PmTestSuite,
        "same leaf snapshotted twice in one transaction");
    add("btree.perf.extra_flush", "btree", E::Performance,
        O::PmTestSuite, "flush of already-committed root object", 10,
        20);
    add("btree.race.first_node_no_init", "btree", E::Race, O::Additional,
        "first node never logged/flushed", 0, 10, 6, true);
    add("btree.race.remove_count_no_add", "btree", E::Race,
        O::Additional, "removal count update without TX_ADD", 10, 20);
    add("btree.race.write_before_add", "btree", E::Race, O::Additional,
        "in-place write ordered before its snapshot");
    add("btree.race.newroot_no_init", "btree", E::Race, O::Additional,
        "new root (split) never logged/flushed", 0, 14, 6, true);

    // ----------------------------------------------------------
    // C-Tree: 5 races + 1 perf (PMTest suite), 1 additional race.
    // ----------------------------------------------------------
    add("ctree.race.link_no_add", "ctree", E::Race, O::PmTestSuite,
        "splice link update without TX_ADD");
    add("ctree.race.newleaf_no_init", "ctree", E::Race, O::PmTestSuite,
        "new leaf never logged/flushed");
    add("ctree.race.newnode_no_init", "ctree", E::Race, O::PmTestSuite,
        "new internal node never logged/flushed");
    add("ctree.race.count_no_add", "ctree", E::Race, O::PmTestSuite,
        "element count update without TX_ADD");
    add("ctree.race.update_no_add", "ctree", E::Race, O::PmTestSuite,
        "value update without TX_ADD", 10, 20);
    add("ctree.perf.double_add", "ctree", E::Performance, O::PmTestSuite,
        "same link snapshotted twice in one transaction");
    add("ctree.race.remove_link_no_add", "ctree", E::Race, O::Additional,
        "removal splice without TX_ADD", 10, 20);

    // ----------------------------------------------------------
    // RB-Tree: 7 races + 1 perf (PMTest suite), 1 additional race.
    // ----------------------------------------------------------
    add("rbtree.race.newnode_no_init", "rbtree", E::Race, O::PmTestSuite,
        "new node never logged/flushed");
    add("rbtree.race.insert_link_no_add", "rbtree", E::Race,
        O::PmTestSuite, "BST insert parent link without TX_ADD");
    add("rbtree.race.color_no_add", "rbtree", E::Race, O::PmTestSuite,
        "recolor without TX_ADD", 12, 16);
    add("rbtree.race.rotate_no_add", "rbtree", E::Race, O::PmTestSuite,
        "rotation pointer updates without TX_ADD", 12, 16);
    add("rbtree.race.rootptr_no_add", "rbtree", E::Race, O::PmTestSuite,
        "root pointer update without TX_ADD", 0, 12, 6, true);
    add("rbtree.race.count_no_add", "rbtree", E::Race, O::PmTestSuite,
        "element count update without TX_ADD");
    add("rbtree.race.update_no_add", "rbtree", E::Race, O::PmTestSuite,
        "value update without TX_ADD", 10, 20);
    add("rbtree.perf.double_add", "rbtree", E::Performance,
        O::PmTestSuite, "same node snapshotted twice");
    add("rbtree.race.remove_link_no_add", "rbtree", E::Race,
        O::Additional, "removal splice without TX_ADD", 10, 20);

    // ----------------------------------------------------------
    // Hashmap-TX: 6 races + 1 perf (PMTest suite), 3 additional.
    // ----------------------------------------------------------
    add("hashmap_tx.race.slot_no_add", "hashmap_tx", E::Race,
        O::PmTestSuite, "bucket slot link without TX_ADD");
    add("hashmap_tx.race.newentry_no_init", "hashmap_tx", E::Race,
        O::PmTestSuite, "new entry never logged/flushed");
    add("hashmap_tx.race.count_no_add", "hashmap_tx", E::Race,
        O::PmTestSuite, "count update without TX_ADD");
    add("hashmap_tx.race.update_no_add", "hashmap_tx", E::Race,
        O::PmTestSuite, "value update without TX_ADD", 10, 20);
    add("hashmap_tx.race.remove_no_add", "hashmap_tx", E::Race,
        O::PmTestSuite, "unlink without TX_ADD", 10, 20);
    add("hashmap_tx.race.rebuild_bucketsptr_no_add", "hashmap_tx",
        E::Race, O::PmTestSuite,
        "rebuild swaps bucket array without TX_ADD", 6, 10);
    add("hashmap_tx.perf.double_add", "hashmap_tx", E::Performance,
        O::PmTestSuite, "same slot snapshotted twice");
    add("hashmap_tx.race.rebuild_newbuckets_no_init", "hashmap_tx",
        E::Race, O::Additional,
        "rebuilt bucket array never logged/flushed", 6, 10);
    add("hashmap_tx.race.rebuild_entry_no_add", "hashmap_tx", E::Race,
        O::Additional, "rehash rewrites entry links without TX_ADD", 6,
        10);
    add("hashmap_tx.race.remove_count_no_add", "hashmap_tx", E::Race,
        O::Additional, "removal count update without TX_ADD", 10, 20);

    // ----------------------------------------------------------
    // Hashmap-Atomic: 10 races + 2 perf (PMTest suite),
    // 3 additional races, 4 semantic bugs.
    // ----------------------------------------------------------
    add("hashmap_atomic.race.entry_no_persist", "hashmap_atomic",
        E::Race, O::PmTestSuite, "entry contents never persisted");
    add("hashmap_atomic.race.entry_partial_persist", "hashmap_atomic",
        E::Race, O::PmTestSuite, "only the entry key persisted");
    add("hashmap_atomic.race.entry_clwb_no_fence", "hashmap_atomic",
        E::Race, O::PmTestSuite, "entry written back but never fenced");
    add("hashmap_atomic.race.slot_plain_store", "hashmap_atomic",
        E::Race, O::PmTestSuite, "bucket link published without persist");
    add("hashmap_atomic.race.slot_clwb_no_fence", "hashmap_atomic",
        E::Race, O::PmTestSuite, "bucket link written back, no fence");
    add("hashmap_atomic.race.count_no_persist", "hashmap_atomic",
        E::Race, O::PmTestSuite, "count update never persisted");
    add("hashmap_atomic.race.remove_slot_plain_store", "hashmap_atomic",
        E::Race, O::PmTestSuite, "unlink published without persist", 10,
        20);
    add("hashmap_atomic.race.buckets_no_ctor", "hashmap_atomic",
        E::Race, O::PmTestSuite,
        "bucket array relied on allocator zeroing", 0, 8, 6, true);
    add("hashmap_atomic.race.seed_no_persist", "hashmap_atomic",
        E::Race, O::PmTestSuite, "hash seed re-written without persist",
        0, 8, 6, true);
    add("hashmap_atomic.race.remove_count_no_persist", "hashmap_atomic",
        E::Race, O::PmTestSuite, "removal count update not persisted",
        10, 20);
    add("hashmap_atomic.race.next_write_after_persist", "hashmap_atomic",
        E::Race, O::Additional,
        "entry next-pointer written after the content persist");
    add("hashmap_atomic.shipped.meta_no_persist", "hashmap_atomic",
        E::Race, O::NewBug,
        "bug 1: create_hashmap leaves hash metadata unpersisted "
        "(hashmap_atomic.c:132-138)", 0, 6, 6, true);
    add("hashmap_atomic.shipped.count_uninit", "hashmap_atomic",
        E::Race, O::NewBug,
        "bug 2: count read from allocation never initialized "
        "(hashmap_atomic.c:280)", 0, 1, 4, true);
    add("hashmap_atomic.sem.no_recount", "hashmap_atomic", E::Semantic,
        O::Additional, "recovery trusts a dirty count (no recount)");
    add("hashmap_atomic.sem.dirty_inverted", "hashmap_atomic",
        E::Semantic, O::Additional,
        "count_dirty set to inverted values (Fig. 2 pattern)");
    add("hashmap_atomic.sem.count_outside_window", "hashmap_atomic",
        E::Semantic, O::Additional,
        "count updated outside the dirty window");
    add("hashmap_atomic.sem.remove_no_dirty", "hashmap_atomic",
        E::Semantic, O::Additional,
        "removal updates count without opening the dirty window", 10,
        20);
    add("hashmap_atomic.perf.double_persist_entry", "hashmap_atomic",
        E::Performance, O::PmTestSuite, "entry persisted twice");
    add("hashmap_atomic.perf.flush_clean_count", "hashmap_atomic",
        E::Performance, O::PmTestSuite, "flush of a clean count line");

    // ----------------------------------------------------------
    // §6.3.2 new bugs 3 and 4.
    // ----------------------------------------------------------
    add("redis.shipped.init_no_tx", "redis", E::Race, O::NewBug,
        "bug 3: server init writes num_dict_entries unprotected "
        "(server.c:4029)", 0, 6, 6, true);
    add("", "pool_create", E::RecoveryFailure, O::NewBug,
        "bug 4: pool creation not failure-atomic; open() rejects a "
        "half-created pool (obj.c:1324)", 0, 0, 0, true);

    // ----------------------------------------------------------
    // Extra coverage beyond the paper (Redis/Memcached engines).
    // ----------------------------------------------------------
    add("redis.race.set_no_add_count", "redis", E::Race, O::Extra,
        "SET updates num_dict_entries without TX_ADD");
    add("redis.race.entry_no_init", "redis", E::Race, O::Extra,
        "new dict entry never logged/flushed");
    add("redis.race.slot_no_add", "redis", E::Race, O::Extra,
        "dict slot link without TX_ADD");
    add("redis.race.del_no_add", "redis", E::Race, O::Extra,
        "DEL unlink without TX_ADD", 10, 20);
    add("redis.race.update_no_add", "redis", E::Race, O::Extra,
        "SET over existing key without TX_ADD", 10, 20);
    add("redis.perf.double_add", "redis", E::Performance, O::Extra,
        "dict slot snapshotted twice");
    add("memcached.race.item_no_persist", "memcached", E::Race,
        O::Extra, "item contents never persisted");
    add("memcached.race.link_plain_store", "memcached", E::Race,
        O::Extra, "item published without persist");
    add("memcached.race.evict_plain_store", "memcached", E::Race,
        O::Extra, "eviction unlink without persist", 20, 20, 6);

    // ----------------------------------------------------------
    // Write-ahead-log family: defects in the redo-log protocol
    // itself (pmlib/wal), driven through the WAL B-Tree.
    // ----------------------------------------------------------
    add("wal.race.torn_record_accepted", "wal_btree", E::Race,
        O::Extra, "record sealed before its payload writeback");
    add("wal.race.commit_before_payload", "wal_btree", E::Race,
        O::Extra, "group-commit seal ordered before batch payload");
    add("wal.recovery.missing_crc_check", "wal_btree", E::Race,
        O::Extra, "replay scans raw frames without CRC validation");
    add("wal.race.truncate_before_apply", "wal_btree", E::Race,
        O::Extra, "log truncated while applied pages are unflushed");
    add("wal.sem.replay_past_checkpoint", "wal_btree", E::Semantic,
        O::Extra, "recovery reads the dead checkpoint descriptor");
    add("wal.race.unflushed_log_head", "wal_btree", E::Race,
        O::Extra, "first record of the batch left out of writeback");

    // ----------------------------------------------------------
    // Ring-Log: defects only partial crash images reach. Both pair
    // their stores inside one fence epoch, so the all-updates anchor
    // image never tears them — the --crash-states tier is what
    // executes the recovery paths that fail.
    // ----------------------------------------------------------
    add("ringlog.recovery.mirror_mismatch_abort", "ringlog",
        E::RecoveryFailure, O::Extra,
        "recovery aborts when the mirrored cursors diverge (torn "
        "same-epoch pair; anchor-invisible)", 4, 12, 4, false,
        "sample:64");
    // initOps=2 keeps the first-ever checkpoint (the only one whose
    // superseded descriptor pointer is still null) inside the RoI.
    add("ringlog.recovery.torn_pair_wild", "ringlog",
        E::RecoveryFailure, O::Extra,
        "checkpoint valid-flag raised before its pointer; recovery "
        "derefs a torn install (anchor-invisible)", 2, 12, 4, false,
        "sample:64");

    return r;
}

} // namespace

const std::vector<BugCase> &
allBugCases()
{
    static const std::vector<BugCase> registry = buildRegistry();
    return registry;
}

std::vector<BugCase>
bugCasesFor(const std::string &workload)
{
    std::vector<BugCase> out;
    for (const auto &c : allBugCases()) {
        if (c.workload == workload)
            out.push_back(c);
    }
    return out;
}

core::CampaignResult
runBugCase(const BugCase &c, core::DetectorConfig cfg,
           core::CampaignObserver *observer)
{
    if (!c.crashStates.empty() && cfg.crashStates.empty())
        cfg.crashStates = c.crashStates;
    if (c.workload == "pool_create") {
        // §6.3.2 bug 4 lives in the library, not in a workload.
        return Campaign::forProgram(
                   [](trace::PmRuntime &rt) {
                       trace::RoiScope roi(rt);
                       pmlib::ObjPool::create(rt, "bug4", 64);
                   },
                   [](trace::PmRuntime &rt) {
                       trace::RoiScope roi(rt);
                       pmlib::ObjPool::open(rt, "bug4");
                   })
            .config(cfg)
            .poolSize(1 << 22)
            .observer(observer)
            .run();
    }

    workloads::WorkloadConfig wcfg;
    wcfg.initOps = c.initOps;
    wcfg.testOps = c.testOps;
    wcfg.postOps = c.postOps;
    wcfg.roiFromStart = c.roiFromStart;
    if (c.workload == "memcached") {
        // Small capacity so the eviction paths execute.
        wcfg.memcachedCapacity = 8;
    }
    if (!c.id.empty())
        wcfg.bugs.enable(c.id);
    auto w = workloads::makeWorkload(c.workload, std::move(wcfg));
    return Campaign::forProgram(
               [&](trace::PmRuntime &rt) { w->pre(rt); },
               [&](trace::PmRuntime &rt) { w->post(rt); })
        .config(cfg)
        .poolSize(1 << 22)
        .observer(observer)
        .run();
}

bool
detected(const BugCase &c, const core::CampaignResult &result)
{
    switch (c.expected) {
      case Expected::Race:
        return result.count(core::BugType::CrossFailureRace) > 0;
      case Expected::Semantic:
        return result.count(core::BugType::CrossFailureSemantic) > 0;
      case Expected::Performance:
        return result.count(core::BugType::Performance) > 0;
      case Expected::RecoveryFailure:
        return result.count(core::BugType::RecoveryFailure) > 0;
    }
    return false;
}

} // namespace xfd::bugsuite
