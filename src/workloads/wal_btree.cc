#include "workloads/wal_btree.hh"

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/logging.hh"
#include "pmlib/objpool.hh"
#include "pmlib/wal.hh"
#include "workloads/kv_actions.hh"

namespace xfd::workloads
{

namespace
{

constexpr unsigned maxKeys = 3; // degree-4 B-tree
constexpr std::size_t pageSize = 256;
constexpr std::size_t maxPages = 192;
constexpr std::size_t logCapacity = 1 << 15;
/** Operations folded into one group commit. */
constexpr unsigned batchOps = 3;
/** Group commits between checkpoints. */
constexpr unsigned ckptEvery = 2;

/** Page 0: tree metadata (recovered before anything else). */
struct Meta
{
    std::uint64_t rootPid; ///< 0 = empty tree
    std::uint64_t pageCount;
    std::uint64_t kvCount;
};

/** Any other page: one tree node; child[] holds page ids (0 = null). */
struct Node
{
    std::uint64_t n;
    std::uint64_t keys[maxKeys];
    std::uint64_t vals[maxKeys];
    std::uint64_t child[maxKeys + 1];
};

static_assert(sizeof(Meta) <= pageSize, "meta must fit a page");
static_assert(sizeof(Node) <= pageSize, "node must fit a page");

/** Pool root object: just the WAL area pointer. */
struct WRoot
{
    std::uint64_t walArea;
};

pmlib::WalOptions
walOptions(const BugMask &bugs)
{
    pmlib::WalOptions o;
    o.tornRecordAccepted = bugs.has("wal.race.torn_record_accepted");
    o.commitBeforePayload = bugs.has("wal.race.commit_before_payload");
    o.missingCrcCheck = bugs.has("wal.recovery.missing_crc_check");
    o.truncateBeforeApply = bugs.has("wal.race.truncate_before_apply");
    o.replayPastCheckpoint = bugs.has("wal.sem.replay_past_checkpoint");
    o.unflushedLogHead = bugs.has("wal.race.unflushed_log_head");
    return o;
}

/** B-tree over a volatile buffer pool of WAL'd page images. */
class Impl
{
  public:
    Impl(trace::PmRuntime &rt, pmlib::ObjPool &op, const BugMask &bugs)
        : rt(rt), op(op),
          // Untraced bookkeeping read: zero on a half-created pool.
          area(static_cast<Addr>(rt.peek(op.root<WRoot>()->walArea))),
          wal(op, area ? area : op.rootAddr(), logCapacity, pageSize,
              maxPages, walOptions(bugs))
    {
    }

    bool valid() const { return area != 0; }

    /** Fresh-pool initialization: format the log, commit page 0. */
    void
    setup()
    {
        wal.annotate();
        wal.format();
        cache[0] = std::vector<std::uint8_t>(pageSize, 0);
        dirty.insert(0);
        meta()->pageCount = 1;
        flushBatch();
    }

    /**
     * Post-failure initialization: replay the sealed log.
     * @return false when nothing committed survives to read.
     */
    bool
    attach()
    {
        wal.annotate();
        if (!wal.recover())
            return false; // failed before the log was formatted
        if (wal.lastCommittedLsn() == 0)
            return false; // failed before the first group commit
        std::uint64_t pages = meta()->pageCount;
        // A torn meta page would otherwise panic allocPage() during
        // the resumption operations instead of aborting recovery.
        if (pages == 0 || pages > maxPages) {
            throw trace::PostFailureAbort{
                "wal_btree: corrupt page count", trace::here()};
        }
        homeRegistered = pages;
        return true;
    }

    void
    insert(std::uint64_t k, std::uint64_t v)
    {
        if (meta()->rootPid == 0) {
            std::uint64_t pid = allocPage();
            Node *nd = node(pid);
            nd->keys[0] = k;
            nd->vals[0] = v;
            nd->n = 1;
            markDirty(pid);
            meta()->rootPid = pid;
            meta()->kvCount++;
            markDirty(0);
            return;
        }

        if (node(meta()->rootPid)->n == maxKeys) {
            // Preemptive root split.
            std::uint64_t nr = allocPage();
            node(nr)->child[0] = meta()->rootPid;
            markDirty(nr);
            splitChild(nr, 0);
            meta()->rootPid = nr;
            markDirty(0);
        }

        std::uint64_t cur = meta()->rootPid;
        for (unsigned depth = 0;; depth++) {
            checkDepth(depth);
            Node *c = node(cur);
            std::uint64_t n = c->n;
            unsigned idx = 0;
            bool found = false;
            for (; idx < n; idx++) {
                if (k == c->keys[idx]) {
                    found = true;
                    break;
                }
                if (k < c->keys[idx])
                    break;
            }
            if (found) {
                // Update in place; no count change.
                c->vals[idx] = v;
                markDirty(cur);
                return;
            }
            if (c->child[0] == 0) {
                // Leaf insertion.
                for (unsigned j = static_cast<unsigned>(n); j > idx;
                     j--) {
                    c->keys[j] = c->keys[j - 1];
                    c->vals[j] = c->vals[j - 1];
                }
                c->keys[idx] = k;
                c->vals[idx] = v;
                c->n = n + 1;
                markDirty(cur);
                meta()->kvCount++;
                markDirty(0);
                return;
            }
            std::uint64_t ch = c->child[idx];
            if (node(ch)->n == maxKeys) {
                splitChild(cur, idx);
                continue; // re-examine this level
            }
            cur = ch;
        }
    }

    void
    remove(std::uint64_t k)
    {
        std::uint64_t cur = meta()->rootPid;
        unsigned idx = 0;
        unsigned depth = 0;
        Node *c = nullptr;
        bool found = false;
        while (cur != 0) {
            checkDepth(depth++);
            c = node(cur);
            std::uint64_t n = c->n;
            found = false;
            for (idx = 0; idx < n; idx++) {
                if (k == c->keys[idx]) {
                    found = true;
                    break;
                }
                if (k < c->keys[idx])
                    break;
            }
            if (found)
                break;
            cur = c->child[idx];
            if (isLeafPid(cur))
                break;
        }
        if (!found && cur != 0) {
            // Possibly in the final leaf.
            c = node(cur);
            std::uint64_t n = c->n;
            for (idx = 0; idx < n; idx++) {
                if (c->keys[idx] == k) {
                    found = true;
                    break;
                }
            }
        }
        if (!found)
            return;

        if (node(cur)->child[0] == 0) {
            removeAt(cur, idx);
        } else {
            // Swap with the predecessor, then remove it from its leaf.
            Node *cc = node(cur);
            std::uint64_t pp = cc->child[idx];
            Node *pl = node(pp);
            while (pl->child[0] != 0) {
                pp = pl->child[pl->n];
                pl = node(pp);
            }
            std::uint64_t pn = pl->n;
            cc->keys[idx] = pl->keys[pn - 1];
            cc->vals[idx] = pl->vals[pn - 1];
            markDirty(cur);
            pl->n = pn - 1;
            markDirty(pp);
        }
        meta()->kvCount--;
        markDirty(0);
    }

    std::optional<std::uint64_t>
    get(std::uint64_t k)
    {
        std::uint64_t cur = meta()->rootPid;
        unsigned depth = 0;
        while (cur != 0) {
            checkDepth(depth++);
            Node *c = node(cur);
            std::uint64_t n = c->n;
            unsigned idx = 0;
            for (; idx < n; idx++) {
                if (k == c->keys[idx])
                    return c->vals[idx];
                if (k < c->keys[idx])
                    break;
            }
            cur = c->child[idx];
        }
        return std::nullopt;
    }

    std::uint64_t count() { return meta()->kvCount; }

    /** Full traversal reading every key/value (recovery warm-up). */
    void scan() { scanNode(meta()->rootPid, 0); }

    /** One logical operation finished; maybe group-commit. */
    void
    endOp()
    {
        if (++opsInBatch >= batchOps)
            flushBatch();
    }

    /**
     * Group commit: register fresh pages, stage every dirty page as
     * one after-image record, seal the batch, periodically truncate.
     */
    void
    flushBatch()
    {
        opsInBatch = 0;
        if (dirty.empty())
            return;
        for (std::uint64_t pid : dirty) {
            if (pid >= homeRegistered) {
                wal.registerPage(pid);
                homeRegistered = pid + 1;
            }
        }
        for (std::uint64_t pid : dirty)
            wal.append(pid, page(pid).data());
        wal.commit();
        cache.clear();
        dirty.clear();
        if (++batchesSinceCkpt >= ckptEvery) {
            wal.checkpoint();
            batchesSinceCkpt = 0;
        }
    }

    /** Final durability point: commit the tail and truncate. */
    void
    finish()
    {
        flushBatch();
        wal.checkpoint();
        batchesSinceCkpt = 0;
    }

  private:
    /** Buffer-pool fetch: cached image, or one traced page read. */
    std::vector<std::uint8_t> &
    page(std::uint64_t pid)
    {
        auto it = cache.find(pid);
        if (it != cache.end())
            return it->second;
        if (pid >= maxPages) {
            throw trace::PostFailureAbort{
                "wal_btree: wild page id", trace::here()};
        }
        Addr a = wal.pageAddr(pid);
        if (a == 0) {
            throw trace::PostFailureAbort{
                "wal_btree: unmapped page", trace::here()};
        }
        std::vector<std::uint8_t> buf(pageSize);
        rt.readPm(buf.data(), rt.pool().toHost(a, pageSize), pageSize);
        return cache.emplace(pid, std::move(buf)).first->second;
    }

    Meta *meta() { return reinterpret_cast<Meta *>(page(0).data()); }

    Node *
    node(std::uint64_t pid)
    {
        Node *nd = reinterpret_cast<Node *>(page(pid).data());
        // A torn home page can carry an impossible fanout, and every
        // caller indexes keys[]/child[] by it — off the page buffer.
        if (nd->n > maxKeys) {
            throw trace::PostFailureAbort{
                "wal_btree: corrupt node fanout", trace::here()};
        }
        return nd;
    }

    void markDirty(std::uint64_t pid) { dirty.insert(pid); }

    bool
    isLeafPid(std::uint64_t pid)
    {
        return pid == 0 || node(pid)->child[0] == 0;
    }

    std::uint64_t
    allocPage()
    {
        std::uint64_t pid = meta()->pageCount;
        if (pid >= maxPages)
            panic("wal_btree: page table exhausted");
        // A recovered meta page can lag the replayed pid graph (the
        // truncate-before-apply defect rolls it back); handing out a
        // pid that is already cached would free a page buffer the
        // caller still holds a Node pointer into.
        if (cache.count(pid)) {
            throw trace::PostFailureAbort{
                "wal_btree: corrupt meta (page id already live)",
                trace::here()};
        }
        meta()->pageCount = pid + 1;
        markDirty(0);
        cache[pid] = std::vector<std::uint8_t>(pageSize, 0);
        markDirty(pid);
        return pid;
    }

    void
    splitChild(std::uint64_t parent_pid, unsigned idx)
    {
        Node *p = node(parent_pid);
        std::uint64_t child_pid = p->child[idx];
        Node *c = node(child_pid);
        std::uint64_t sib_pid = allocPage();
        Node *s = node(sib_pid);

        // Upper third moves to the new sibling.
        s->keys[0] = c->keys[2];
        s->vals[0] = c->vals[2];
        s->child[0] = c->child[2];
        s->child[1] = c->child[3];
        s->n = 1;
        markDirty(sib_pid);

        // Median rises into the parent.
        std::uint64_t pn = p->n;
        for (unsigned j = static_cast<unsigned>(pn); j > idx; j--) {
            p->keys[j] = p->keys[j - 1];
            p->vals[j] = p->vals[j - 1];
            p->child[j + 1] = p->child[j];
        }
        p->keys[idx] = c->keys[1];
        p->vals[idx] = c->vals[1];
        p->child[idx + 1] = sib_pid;
        p->n = pn + 1;
        markDirty(parent_pid);
        c->n = 1;
        markDirty(child_pid);
    }

    void
    removeAt(std::uint64_t pid, unsigned idx)
    {
        Node *leaf = node(pid);
        std::uint64_t n = leaf->n;
        for (unsigned j = idx; j + 1 < n; j++) {
            leaf->keys[j] = leaf->keys[j + 1];
            leaf->vals[j] = leaf->vals[j + 1];
        }
        leaf->n = n - 1;
        markDirty(pid);
    }

    void
    scanNode(std::uint64_t pid, unsigned depth)
    {
        if (pid == 0)
            return;
        checkDepth(depth);
        std::uint64_t cnt = node(pid)->n;
        if (node(pid)->child[0] != 0) {
            for (unsigned i = 0; i <= cnt; i++)
                scanNode(node(pid)->child[i], depth + 1);
        }
    }

    /**
     * A replay that mixed page-image eras (the CRC-scan defect) can
     * stitch the pid graph into a cycle; recovery must abort, not
     * spin.
     */
    static void
    checkDepth(unsigned depth)
    {
        if (depth > 64) {
            throw trace::PostFailureAbort{
                "wal_btree: corrupt tree (page cycle)", trace::here()};
        }
    }

    trace::PmRuntime &rt;
    pmlib::ObjPool &op;
    Addr area;
    pmlib::Wal wal;

    std::map<std::uint64_t, std::vector<std::uint8_t>> cache;
    std::set<std::uint64_t> dirty;
    std::uint64_t homeRegistered = 0;
    unsigned opsInBatch = 0;
    unsigned batchesSinceCkpt = 0;
};

void
apply(Impl &impl, const KvAction &a)
{
    switch (a.op) {
      case KvOp::Insert:
        impl.insert(a.key, a.val);
        break;
      case KvOp::Remove:
        impl.remove(a.key);
        break;
      case KvOp::Get:
        (void)impl.get(a.key);
        break;
    }
}

} // namespace

void
WalBTree::pre(trace::PmRuntime &rt)
{
    if (cfg.roiFromStart)
        rt.roiBegin();
    pmlib::ObjPool op =
        pmlib::ObjPool::create(rt, "wal_btree", sizeof(WRoot));
    Addr area = op.heap().palloc(
        pmlib::Wal::areaSize(logCapacity, maxPages));
    if (!area)
        panic("wal_btree: pool exhausted");
    WRoot *r = op.root<WRoot>();
    rt.store(r->walArea, static_cast<std::uint64_t>(area));
    rt.persistBarrier(r, sizeof(WRoot));

    Impl impl(rt, op, cfg.bugs);
    impl.setup();
    auto actions = kvActions(cfg, cfg.initOps + cfg.testOps);
    for (unsigned i = 0; i < cfg.initOps; i++) {
        apply(impl, actions[i]);
        impl.endOp();
    }
    impl.flushBatch();
    if (!cfg.roiFromStart)
        rt.roiBegin();
    for (unsigned i = cfg.initOps; i < cfg.initOps + cfg.testOps; i++) {
        apply(impl, actions[i]);
        impl.endOp();
    }
    // The final checkpoint is the workload's durability point: home
    // pages flushed, descriptor advanced, log truncated.
    impl.finish();
    rt.roiEnd();
}

void
WalBTree::post(trace::PmRuntime &rt)
{
    pmlib::ObjPool op =
        pmlib::ObjPool::openOrCreate(rt, "wal_btree", sizeof(WRoot));
    Impl impl(rt, op, cfg.bugs);
    if (!impl.valid())
        return; // failed before the WAL area was published
    trace::RoiScope roi(rt);
    if (!impl.attach())
        return; // nothing committed yet: an empty, consistent tree
    // Resumption first consults the element count (the paper's
    // Figure 1 pattern), then rereads the tree and continues the
    // operation stream.
    (void)impl.count();
    impl.scan();
    unsigned done = cfg.initOps + cfg.testOps;
    auto actions = kvActions(cfg, done + cfg.postOps);
    for (unsigned i = done; i < done + cfg.postOps; i++) {
        apply(impl, actions[i]);
        impl.endOp();
    }
    impl.flushBatch();
}

std::string
WalBTree::verify(trace::PmRuntime &rt)
{
    pmlib::ObjPool op = pmlib::ObjPool::open(rt, "wal_btree");
    Impl impl(rt, op, cfg.bugs);
    auto expected = kvExpected(cfg, cfg.initOps + cfg.testOps);
    for (const auto &[k, v] : expected) {
        auto got = impl.get(k);
        if (!got)
            return strprintf("key %llu missing",
                             static_cast<unsigned long long>(k));
        if (*got != v)
            return strprintf("key %llu has wrong value",
                             static_cast<unsigned long long>(k));
    }
    if (impl.count() != expected.size())
        return strprintf("count %llu != expected %zu",
                         static_cast<unsigned long long>(impl.count()),
                         expected.size());
    return "";
}

} // namespace xfd::workloads
