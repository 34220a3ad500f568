#include "workloads/rbtree.hh"

#include <optional>
#include <set>
#include <vector>

#include "common/logging.hh"
#include "pmlib/objpool.hh"
#include "pmlib/tx.hh"
#include "workloads/kv_actions.hh"

namespace xfd::workloads
{

namespace
{

struct RbNode
{
    std::uint64_t key;
    std::uint64_t val;
    std::uint64_t red; // 1 = red, 0 = black
    pm::PPtr<RbNode> left;
    pm::PPtr<RbNode> right;
    pm::PPtr<RbNode> parent;
};

struct RbRoot
{
    pm::PPtr<RbNode> root;
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
        RbRoot *r = op.root<RbRoot>();
        pmlib::Tx tx(op);
        added.clear();

        // BST descent.
        pm::PPtr<RbNode> parent_p;
        pm::PPtr<RbNode> cur_p = rt.load(r->root);
        while (!cur_p.null()) {
            RbNode *cur = resolve(cur_p);
            std::uint64_t ck = rt.load(cur->key);
            if (ck == k) {
                if (!bug("rbtree.race.update_no_add"))
                    tx.add(cur->val);
                rt.store(cur->val, v);
                tx.commit();
                return;
            }
            parent_p = cur_p;
            cur_p = k < ck ? rt.load(cur->left) : rt.load(cur->right);
        }

        pm::PPtr<RbNode> node_p = allocNode(tx, k, v);
        RbNode *node = resolve(node_p);
        rt.store(node->parent, parent_p);
        if (parent_p.null()) {
            setRoot(tx, node_p);
        } else {
            RbNode *parent = resolve(parent_p);
            addNode(tx, parent_p, "rbtree.race.insert_link_no_add");
            if (k < rt.load(parent->key))
                rt.store(parent->left, node_p);
            else
                rt.store(parent->right, node_p);
        }
        fixupInsert(tx, node_p);
        bumpCount(tx, 1);
        tx.commit();
    }

    void
    remove(std::uint64_t k)
    {
        RbRoot *r = op.root<RbRoot>();
        pmlib::Tx tx(op);
        added.clear();

        pm::PPtr<RbNode> z_p = rt.load(r->root);
        while (!z_p.null()) {
            RbNode *z = resolve(z_p);
            std::uint64_t zk = rt.load(z->key);
            if (zk == k)
                break;
            z_p = k < zk ? rt.load(z->left) : rt.load(z->right);
        }
        if (z_p.null()) {
            tx.commit();
            return;
        }
        RbNode *z = resolve(z_p);

        pm::PPtr<RbNode> victim_p = z_p;
        if (!rt.load(z->left).null() && !rt.load(z->right).null()) {
            // Two children: move the successor's payload into z.
            pm::PPtr<RbNode> y_p = rt.load(z->right);
            while (!rt.load(resolve(y_p)->left).null())
                y_p = rt.load(resolve(y_p)->left);
            RbNode *y = resolve(y_p);
            addNode(tx, z_p, "rbtree.race.remove_link_no_add");
            rt.store(z->key, rt.load(y->key));
            rt.store(z->val, rt.load(y->val));
            victim_p = y_p;
        }

        // victim has at most one child: splice it out.
        RbNode *victim = resolve(victim_p);
        pm::PPtr<RbNode> child_p = rt.load(victim->left);
        if (child_p.null())
            child_p = rt.load(victim->right);
        pm::PPtr<RbNode> vparent_p = rt.load(victim->parent);
        if (!child_p.null()) {
            RbNode *child = resolve(child_p);
            addNode(tx, child_p, "rbtree.race.remove_link_no_add");
            rt.store(child->parent, vparent_p);
        }
        if (vparent_p.null()) {
            setRoot(tx, child_p);
        } else {
            RbNode *vp = resolve(vparent_p);
            addNode(tx, vparent_p, "rbtree.race.remove_link_no_add");
            if (rt.load(vp->left) == victim_p)
                rt.store(vp->left, child_p);
            else
                rt.store(vp->right, child_p);
        }
        bumpCount(tx, -1);
        tx.commit();
        op.heap().pfree(victim_p.addr());
    }

    std::optional<std::uint64_t>
    get(std::uint64_t k)
    {
        RbRoot *r = op.root<RbRoot>();
        pm::PPtr<RbNode> cur_p = rt.load(r->root);
        while (!cur_p.null()) {
            RbNode *cur = resolve(cur_p);
            std::uint64_t ck = rt.load(cur->key);
            if (ck == k)
                return rt.load(cur->val);
            cur_p = k < ck ? rt.load(cur->left) : rt.load(cur->right);
        }
        return std::nullopt;
    }

    std::uint64_t count() { return rt.load(op.root<RbRoot>()->count); }

    /** Structural invariant check: BST order + red-red violations. */
    std::string
    checkStructure()
    {
        RbRoot *r = op.root<RbRoot>();
        return checkSubtree(rt.load(r->root), 0,
                            ~static_cast<std::uint64_t>(0));
    }

    /** Full traversal reading every key/value (recovery warm-up). */
    void
    scan()
    {
        scanNode(rt.load(op.root<RbRoot>()->root));
    }

  private:
    bool bug(const char *id) const { return bugs.has(id); }

    RbNode *resolve(pm::PPtr<RbNode> p) { return p.get(rt.pool()); }

    /**
     * Pre-order walk from @p p, loading each node's fields, its left
     * subtree, then its right child. The stack is explicit so that a
     * child-pointer cycle in a crash image runs into the post-trace
     * cap (a recovery failure) instead of overflowing the host stack.
     */
    void
    scanNode(pm::PPtr<RbNode> p)
    {
        // Nodes whose right child is still to be loaded.
        std::vector<RbNode *> pending;
        for (;;) {
            if (!p.null()) {
                RbNode *n = resolve(p);
                (void)rt.load(n->key);
                (void)rt.load(n->val);
                (void)rt.load(n->red);
                pending.push_back(n);
                p = rt.load(n->left);
                continue;
            }
            if (pending.empty())
                return;
            RbNode *n = pending.back();
            pending.pop_back();
            p = rt.load(n->right);
        }
    }

    /** TX_ADD a whole node once per transaction. */
    void
    addNode(pmlib::Tx &tx, pm::PPtr<RbNode> p, const char *flag)
    {
        if (p.null() || bug(flag))
            return;
        if (added.count(p.addr()))
            return;
        added.insert(p.addr());
        tx.addRange(resolve(p), sizeof(RbNode));
    }

    pm::PPtr<RbNode>
    allocNode(pmlib::Tx &tx, std::uint64_t k, std::uint64_t v)
    {
        Addr a = op.heap().palloc(sizeof(RbNode));
        if (!a)
            panic("rbtree: pool exhausted");
        RbNode *node = static_cast<RbNode *>(rt.pool().toHost(a));
        if (!bug("rbtree.race.newnode_no_init")) {
            tx.addRange(node, sizeof(RbNode));
            if (bug("rbtree.perf.double_add"))
                tx.addRangeUnchecked(node, sizeof(RbNode));
            added.insert(a);
        }
        rt.setPm(node, 0, sizeof(RbNode));
        rt.store(node->key, k);
        rt.store(node->val, v);
        rt.store(node->red, std::uint64_t{1});
        return pm::PPtr<RbNode>(a);
    }

    void
    bumpCount(pmlib::Tx &tx, int delta)
    {
        RbRoot *r = op.root<RbRoot>();
        if (!bug("rbtree.race.count_no_add"))
            tx.add(r->count);
        rt.store(r->count,
                 rt.load(r->count) + static_cast<std::uint64_t>(delta));
    }

    void
    setRoot(pmlib::Tx &tx, pm::PPtr<RbNode> p)
    {
        RbRoot *r = op.root<RbRoot>();
        if (!bug("rbtree.race.rootptr_no_add"))
            tx.add(r->root);
        rt.store(r->root, p);
    }

    bool
    isRed(pm::PPtr<RbNode> p)
    {
        return !p.null() && rt.load(resolve(p)->red) != 0;
    }

    void
    setColor(pmlib::Tx &tx, pm::PPtr<RbNode> p, std::uint64_t red)
    {
        if (p.null())
            return;
        addNode(tx, p, "rbtree.race.color_no_add");
        rt.store(resolve(p)->red, red);
    }

    void
    rotateLeft(pmlib::Tx &tx, pm::PPtr<RbNode> x_p)
    {
        RbNode *x = resolve(x_p);
        pm::PPtr<RbNode> y_p = rt.load(x->right);
        RbNode *y = resolve(y_p);
        addNode(tx, x_p, "rbtree.race.rotate_no_add");
        addNode(tx, y_p, "rbtree.race.rotate_no_add");

        pm::PPtr<RbNode> beta = rt.load(y->left);
        rt.store(x->right, beta);
        if (!beta.null()) {
            addNode(tx, beta, "rbtree.race.rotate_no_add");
            rt.store(resolve(beta)->parent, x_p);
        }
        pm::PPtr<RbNode> xp_p = rt.load(x->parent);
        rt.store(y->parent, xp_p);
        if (xp_p.null()) {
            setRoot(tx, y_p);
        } else {
            RbNode *xp = resolve(xp_p);
            addNode(tx, xp_p, "rbtree.race.rotate_no_add");
            if (rt.load(xp->left) == x_p)
                rt.store(xp->left, y_p);
            else
                rt.store(xp->right, y_p);
        }
        rt.store(y->left, x_p);
        rt.store(x->parent, y_p);
    }

    void
    rotateRight(pmlib::Tx &tx, pm::PPtr<RbNode> x_p)
    {
        RbNode *x = resolve(x_p);
        pm::PPtr<RbNode> y_p = rt.load(x->left);
        RbNode *y = resolve(y_p);
        addNode(tx, x_p, "rbtree.race.rotate_no_add");
        addNode(tx, y_p, "rbtree.race.rotate_no_add");

        pm::PPtr<RbNode> beta = rt.load(y->right);
        rt.store(x->left, beta);
        if (!beta.null()) {
            addNode(tx, beta, "rbtree.race.rotate_no_add");
            rt.store(resolve(beta)->parent, x_p);
        }
        pm::PPtr<RbNode> xp_p = rt.load(x->parent);
        rt.store(y->parent, xp_p);
        if (xp_p.null()) {
            setRoot(tx, y_p);
        } else {
            RbNode *xp = resolve(xp_p);
            addNode(tx, xp_p, "rbtree.race.rotate_no_add");
            if (rt.load(xp->left) == x_p)
                rt.store(xp->left, y_p);
            else
                rt.store(xp->right, y_p);
        }
        rt.store(y->right, x_p);
        rt.store(x->parent, y_p);
    }

    void
    fixupInsert(pmlib::Tx &tx, pm::PPtr<RbNode> z_p)
    {
        RbRoot *r = op.root<RbRoot>();
        while (true) {
            pm::PPtr<RbNode> p_p = rt.load(resolve(z_p)->parent);
            if (p_p.null() || !isRed(p_p))
                break;
            pm::PPtr<RbNode> g_p = rt.load(resolve(p_p)->parent);
            // A red root (left by the elided removal fixup) has no
            // grandparent; the root recolor below completes the fixup.
            if (g_p.null())
                break;
            RbNode *g = resolve(g_p);
            bool parent_is_left = rt.load(g->left) == p_p;
            pm::PPtr<RbNode> uncle_p =
                parent_is_left ? rt.load(g->right) : rt.load(g->left);
            if (isRed(uncle_p)) {
                setColor(tx, p_p, 0);
                setColor(tx, uncle_p, 0);
                setColor(tx, g_p, 1);
                z_p = g_p;
                continue;
            }
            if (parent_is_left) {
                if (rt.load(resolve(p_p)->right) == z_p) {
                    z_p = p_p;
                    rotateLeft(tx, z_p);
                    p_p = rt.load(resolve(z_p)->parent);
                }
                setColor(tx, p_p, 0);
                setColor(tx, g_p, 1);
                rotateRight(tx, g_p);
            } else {
                if (rt.load(resolve(p_p)->left) == z_p) {
                    z_p = p_p;
                    rotateRight(tx, z_p);
                    p_p = rt.load(resolve(z_p)->parent);
                }
                setColor(tx, p_p, 0);
                setColor(tx, g_p, 1);
                rotateLeft(tx, g_p);
            }
            break;
        }
        setColor(tx, rt.load(r->root), 0);
    }

    std::string
    checkSubtree(pm::PPtr<RbNode> p, std::uint64_t lo, std::uint64_t hi)
    {
        if (p.null())
            return "";
        RbNode *n = resolve(p);
        std::uint64_t k = n->key;
        if (k < lo || k > hi)
            return "BST order violated";
        // Red-red violations are possible after splice-style removals
        // (color fixup is elided by design), so only BST order is
        // checked here.
        std::string s = checkSubtree(n->left, lo, k ? k - 1 : 0);
        if (!s.empty())
            return s;
        return checkSubtree(n->right, k + 1, hi);
    }

    trace::PmRuntime &rt;
    pmlib::ObjPool &op;
    const BugMask &bugs;
    /** Nodes already TX_ADDed in the open transaction. */
    std::set<Addr> added;
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
RBTree::pre(trace::PmRuntime &rt)
{
    if (cfg.roiFromStart)
        rt.roiBegin();
    pmlib::ObjPool op =
        pmlib::ObjPool::create(rt, "rbtree", sizeof(RbRoot));
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
RBTree::post(trace::PmRuntime &rt)
{
    pmlib::ObjPool op = pmlib::ObjPool::openOrCreate(rt, "rbtree", sizeof(RbRoot));
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
RBTree::verify(trace::PmRuntime &rt)
{
    pmlib::ObjPool op = pmlib::ObjPool::open(rt, "rbtree");
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
    return impl.checkStructure();
}

} // namespace xfd::workloads
