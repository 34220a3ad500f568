#include "workloads/ctree.hh"

#include <bit>
#include <optional>

#include "common/logging.hh"
#include "pmlib/objpool.hh"
#include "pmlib/tx.hh"
#include "workloads/kv_actions.hh"

namespace xfd::workloads
{

namespace
{

/** Either a leaf (isLeaf=1: key/val) or an internal node (diffBit). */
struct CEntry
{
    std::uint64_t isLeaf;
    std::uint64_t key;
    std::uint64_t val;
    std::uint64_t diffBit;
    pm::PPtr<CEntry> child[2];
};

struct CRoot
{
    pm::PPtr<CEntry> root;
    std::uint64_t count;
};

class Impl
{
  public:
    Impl(trace::PmRuntime &rt, pmlib::ObjPool &op, const BugMask &bugs)
        : rt(rt), op(op), bugs(bugs)
    {
    }

    void
    insert(std::uint64_t k, std::uint64_t v)
    {
        CRoot *r = op.root<CRoot>();
        pmlib::Tx tx(op);

        pm::PPtr<CEntry> root_p = rt.load(r->root);
        if (root_p.null()) {
            pm::PPtr<CEntry> leaf = allocLeaf(tx, k, v);
            spliceLink(tx, r->root, leaf);
            bumpCount(tx, 1);
            tx.commit();
            return;
        }

        // Find the closest existing leaf for k.
        pm::PPtr<CEntry> cur_p = root_p;
        while (!rt.load(resolve(cur_p)->isLeaf)) {
            CEntry *cur = resolve(cur_p);
            unsigned dir = bitOf(k, rt.load(cur->diffBit));
            cur_p = rt.load(cur->child[dir]);
        }
        CEntry *leaf = resolve(cur_p);
        std::uint64_t lkey = rt.load(leaf->key);
        if (lkey == k) {
            if (!bug("ctree.race.update_no_add"))
                tx.add(leaf->val);
            rt.store(leaf->val, v);
            tx.commit();
            return;
        }

        // Highest differing bit decides the new node's position.
        std::uint64_t d =
            63 - static_cast<std::uint64_t>(std::countl_zero(k ^ lkey));
        pm::PPtr<CEntry> new_leaf = allocLeaf(tx, k, v);
        pm::PPtr<CEntry> node_p =
            allocNode(tx, d, bug("ctree.race.newnode_no_init"));
        CEntry *node = resolve(node_p);

        // Descend again to the splice point: the first entry whose
        // discriminating bit is below d (or a leaf).
        pm::PPtr<CEntry> *link = &r->root;
        cur_p = rt.load(*link);
        for (;;) {
            CEntry *cur = resolve(cur_p);
            if (rt.load(cur->isLeaf) || rt.load(cur->diffBit) < d)
                break;
            link = &cur->child[bitOf(k, rt.load(cur->diffBit))];
            cur_p = rt.load(*link);
        }
        unsigned kdir = bitOf(k, d);
        rt.store(node->child[kdir], new_leaf);
        rt.store(node->child[1 - kdir], cur_p);
        spliceLink(tx, *link, node_p);
        bumpCount(tx, 1);
        tx.commit();
    }

    void
    remove(std::uint64_t k)
    {
        CRoot *r = op.root<CRoot>();
        pmlib::Tx tx(op);
        pm::PPtr<CEntry> root_p = rt.load(r->root);
        if (root_p.null()) {
            tx.commit();
            return;
        }

        // Track the link to the current entry and to its parent.
        pm::PPtr<CEntry> *link = &r->root;
        pm::PPtr<CEntry> *parent_link = nullptr;
        pm::PPtr<CEntry> parent_p;
        pm::PPtr<CEntry> cur_p = root_p;
        unsigned dir = 0;
        while (!rt.load(resolve(cur_p)->isLeaf)) {
            CEntry *cur = resolve(cur_p);
            parent_link = link;
            parent_p = cur_p;
            dir = bitOf(k, rt.load(cur->diffBit));
            link = &cur->child[dir];
            cur_p = rt.load(*link);
        }
        CEntry *leaf = resolve(cur_p);
        if (rt.load(leaf->key) != k) {
            tx.commit();
            return;
        }

        if (!parent_link) {
            // Removing the only leaf.
            spliceLink(tx, r->root, pm::PPtr<CEntry>(),
                       "ctree.race.remove_link_no_add");
        } else {
            // Replace the parent with the leaf's sibling.
            CEntry *parent = resolve(parent_p);
            pm::PPtr<CEntry> sibling = rt.load(parent->child[1 - dir]);
            spliceLink(tx, *parent_link, sibling,
                       "ctree.race.remove_link_no_add");
        }
        bumpCount(tx, -1);
        // Deallocation is deferred past commit (PMDK's TX_FREE
        // semantics): an abort must be able to restore the links.
        tx.commit();
        if (!parent_p.null())
            op.heap().pfree(parent_p.addr());
        op.heap().pfree(cur_p.addr());
    }

    std::optional<std::uint64_t>
    get(std::uint64_t k)
    {
        CRoot *r = op.root<CRoot>();
        pm::PPtr<CEntry> cur_p = rt.load(r->root);
        if (cur_p.null())
            return std::nullopt;
        while (!rt.load(resolve(cur_p)->isLeaf)) {
            CEntry *cur = resolve(cur_p);
            cur_p = rt.load(cur->child[bitOf(k, rt.load(cur->diffBit))]);
        }
        CEntry *leaf = resolve(cur_p);
        if (rt.load(leaf->key) != k)
            return std::nullopt;
        return rt.load(leaf->val);
    }

    std::uint64_t count() { return rt.load(op.root<CRoot>()->count); }

    /** Full traversal reading every key/value (recovery warm-up). */
    void
    scan()
    {
        scanEntry(rt.load(op.root<CRoot>()->root));
    }

  private:
    bool bug(const char *id) const { return bugs.has(id); }

    CEntry *resolve(pm::PPtr<CEntry> p) { return p.deref(rt.pool()); }

    void
    scanEntry(pm::PPtr<CEntry> p)
    {
        if (p.null())
            return;
        CEntry *e = resolve(p);
        if (rt.load(e->isLeaf)) {
            (void)rt.load(e->key);
            (void)rt.load(e->val);
            return;
        }
        (void)rt.load(e->diffBit);
        scanEntry(rt.load(e->child[0]));
        scanEntry(rt.load(e->child[1]));
    }

    static unsigned
    bitOf(std::uint64_t k, std::uint64_t bit)
    {
        return static_cast<unsigned>((k >> bit) & 1);
    }

    pm::PPtr<CEntry>
    allocLeaf(pmlib::Tx &tx, std::uint64_t k, std::uint64_t v)
    {
        Addr a = op.heap().palloc(sizeof(CEntry));
        if (!a)
            panic("ctree: pool exhausted");
        CEntry *e = static_cast<CEntry *>(rt.pool().toHost(a));
        if (!bug("ctree.race.newleaf_no_init"))
            tx.addRange(e, sizeof(CEntry));
        rt.setPm(e, 0, sizeof(CEntry));
        rt.store(e->isLeaf, std::uint64_t{1});
        rt.store(e->key, k);
        rt.store(e->val, v);
        return pm::PPtr<CEntry>(a);
    }

    pm::PPtr<CEntry>
    allocNode(pmlib::Tx &tx, std::uint64_t diff_bit, bool skip_init)
    {
        Addr a = op.heap().palloc(sizeof(CEntry));
        if (!a)
            panic("ctree: pool exhausted");
        CEntry *e = static_cast<CEntry *>(rt.pool().toHost(a));
        if (!skip_init)
            tx.addRange(e, sizeof(CEntry));
        rt.setPm(e, 0, sizeof(CEntry));
        rt.store(e->diffBit, diff_bit);
        return pm::PPtr<CEntry>(a);
    }

    /** TX_ADD + update of one child/root link. */
    void
    spliceLink(pmlib::Tx &tx, pm::PPtr<CEntry> &link,
               pm::PPtr<CEntry> target,
               const char *flag = "ctree.race.link_no_add")
    {
        if (!bug(flag))
            tx.add(link);
        if (bug("ctree.perf.double_add"))
            tx.addUnchecked(link);
        rt.store(link, target);
    }

    void
    bumpCount(pmlib::Tx &tx, int delta)
    {
        CRoot *r = op.root<CRoot>();
        if (!bug("ctree.race.count_no_add"))
            tx.add(r->count);
        rt.store(r->count,
                 rt.load(r->count) + static_cast<std::uint64_t>(delta));
    }

    trace::PmRuntime &rt;
    pmlib::ObjPool &op;
    const BugMask &bugs;
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
CTree::pre(trace::PmRuntime &rt)
{
    if (cfg.roiFromStart)
        rt.roiBegin();
    pmlib::ObjPool op = pmlib::ObjPool::create(rt, "ctree", sizeof(CRoot));
    Impl impl(rt, op, cfg.bugs);
    auto actions = kvActions(cfg, cfg.initOps + cfg.testOps);
    for (unsigned i = 0; i < cfg.initOps; i++)
        apply(impl, actions[i]);
    if (!cfg.roiFromStart)
        rt.roiBegin();
    for (unsigned i = cfg.initOps; i < cfg.initOps + cfg.testOps; i++)
        apply(impl, actions[i]);
    rt.roiEnd();
}

void
CTree::post(trace::PmRuntime &rt)
{
    pmlib::ObjPool op = pmlib::ObjPool::openOrCreate(rt, "ctree", sizeof(CRoot));
    Impl impl(rt, op, cfg.bugs);
    trace::RoiScope roi(rt);
    (void)impl.count();
    impl.scan();
    unsigned done = cfg.initOps + cfg.testOps;
    auto actions = kvActions(cfg, done + cfg.postOps);
    for (unsigned i = done; i < done + cfg.postOps; i++)
        apply(impl, actions[i]);
}

std::string
CTree::verify(trace::PmRuntime &rt)
{
    pmlib::ObjPool op = pmlib::ObjPool::open(rt, "ctree");
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
