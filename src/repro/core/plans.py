"""Operation coroutines: the concrete state machines for each index
primitive (point search, range search, insert, update, delete, sync).

Concurrency protocol (paper §III-B, latch coupling [3]):

* The meta page (page 0, holding the root pointer) acts as the topmost
  latchable node, so root splits are safe against concurrent descents.
* Searches couple shared latches parent -> child, releasing the parent
  as soon as the child latch is granted.
* Inserts and deletes couple exclusive latches and release all
  ancestors as soon as the current node is *safe* (cannot split for
  inserts / cannot underflow for deletes), so the retained suffix of
  the path is exactly the set of nodes a structure modification may
  touch.
* Updates (in-place payload overwrite) couple shared latches on inner
  nodes and take exclusive only on the leaf: the shared descent with
  an exclusive leaf mode.

Every level of every descent is one ``CoupleEff`` (latch the child,
release the parent, read, search), the transition of the paper's
Fig 5.

Delete rebalancing merges/borrows only with the *right* sibling under
the exclusively latched parent, preserving a global left-to-right latch
order (no deadlock against range scans walking the leaf chain).  A
rightmost child with no right sibling is allowed to stay underfull —
the same lazy-deletion trade-off PostgreSQL makes.

The shared-latch descent and the rebalance loop are the steps the batch
plan shares with these; each is one generator in
:mod:`repro.core.batch` (``descend_shared``, ``rebalance``) that the
plans here ``yield from``.  The single-insert split cascade is *not*
the batch's n-way split at one key: it halves the full leaf before
placing the key, the n-way split balances after (DESIGN.md §2).
"""

from repro.core.batch import batch_plan, descend_shared, rebalance
from repro.core.latch import EXCLUSIVE, SHARED
from repro.core.node import Node
from repro.core.ops import (
    AllocEff,
    BATCH,
    ChargeEff,
    CoupleEff,
    DELETE,
    INSERT,
    LatchEff,
    RANGE,
    SEARCH,
    SYNC,
    SyncEff,
    UPDATE,
    UnlatchEff,
    WriteEff,
)
from repro.errors import TreeError
from repro.sim.metrics import CPU_REAL_WORK


def make_plan(op, tree):
    """Instantiate the coroutine implementing ``op`` against ``tree``."""
    if op.kind == SEARCH:
        return _search_plan(op, tree)
    if op.kind == RANGE:
        return _range_plan(op, tree)
    if op.kind == INSERT:
        return _insert_plan(op, tree)
    if op.kind == UPDATE:
        return _update_plan(op, tree)
    if op.kind == DELETE:
        return _delete_plan(op, tree)
    if op.kind == SYNC:
        return _sync_plan(op, tree)
    if op.kind == BATCH:
        return batch_plan(op, tree)
    raise TreeError("unknown operation kind %r" % (op.kind,))


# ----------------------------------------------------------------------
# reads
# ----------------------------------------------------------------------


def _search_plan(op, tree):
    leaf = yield from descend_shared(tree, op.key)
    op.result = leaf.leaf_lookup(op.key)
    yield UnlatchEff(leaf.page_id)


def _range_plan(op, tree):
    results = []
    node = yield from descend_shared(tree, op.key)
    # Scan the leaf chain with shared-latch coupling left to right.
    while True:
        if node.leaf_collect(op.key, op.high_key, op.limit, results):
            yield UnlatchEff(node.page_id)
            op.result = results
            return
        next_id = node.next_id
        node = yield CoupleEff(next_id, SHARED, node.page_id)


# ----------------------------------------------------------------------
# writes
# ----------------------------------------------------------------------


def _descend_exclusive(op, tree, safe_test):
    """Shared descent logic for insert/delete: exclusive latch coupling.

    Yields effects; returns ``(path_ids, path_nodes)`` where index 0 is
    the topmost retained latch (META_PAGE with node ``None`` when the
    root itself is unsafe) and the last entry is the leaf.
    """
    meta_page = tree.meta_page
    yield LatchEff(meta_page, EXCLUSIVE)
    path_ids = [meta_page]
    path_nodes = [None]
    page_id = tree.meta.root_page
    while True:
        node = yield CoupleEff(page_id, EXCLUSIVE)
        if safe_test(node):
            for ancestor in path_ids:
                yield UnlatchEff(ancestor)
            path_ids = [page_id]
            path_nodes = [node]
        else:
            path_ids.append(page_id)
            path_nodes.append(node)
        if node.is_leaf:
            return path_ids, path_nodes
        page_id = node.child_for(op.key)


def _insert_plan(op, tree):
    costs = tree.costs
    path_ids, path_nodes = yield from _descend_exclusive(
        op, tree, lambda node: node.is_safe_for_insert()
    )
    leaf = path_nodes[-1]
    yield ChargeEff(costs.leaf_update_ns, CPU_REAL_WORK)

    if not leaf.is_full or leaf.leaf_lookup(op.key) is not None:
        inserted = leaf.leaf_insert(op.key, op.payload)
        op.result = inserted
        if inserted:
            tree.meta.key_count += 1
        yield WriteEff([leaf])
        for page_id in path_ids:
            yield UnlatchEff(page_id)
        return

    # Split cascade up the retained (all-full) path.
    new_nodes = []
    dirty = {}
    write_meta = False

    yield ChargeEff(costs.split_ns, CPU_REAL_WORK)
    right_id = yield AllocEff()
    right, separator = leaf.split(right_id)
    if op.key >= separator:
        right.leaf_insert(op.key, op.payload)
    else:
        leaf.leaf_insert(op.key, op.payload)
    tree.meta.key_count += 1
    op.result = True
    new_nodes.append(right)
    dirty[leaf.page_id] = leaf

    index = len(path_nodes) - 2
    while True:
        parent = path_nodes[index] if index >= 0 else None
        if parent is None:
            # The split reached the root: grow the tree by one level.
            old_root = path_nodes[index + 1]
            new_root_id = yield AllocEff()
            new_root = Node.new_inner(tree.config, new_root_id, old_root.level + 1)
            new_root.keys = [separator]
            new_root.children = [old_root.page_id, right_id]
            new_nodes.append(new_root)
            tree.meta.root_page = new_root_id
            tree.meta.height += 1
            write_meta = True
            break
        if not parent.is_full:
            parent.inner_insert(separator, right_id)
            dirty[parent.page_id] = parent
            break
        yield ChargeEff(costs.split_ns, CPU_REAL_WORK)
        parent_right_id = yield AllocEff()
        parent_right, parent_sep = parent.split(parent_right_id)
        if separator > parent_sep:
            parent_right.inner_insert(separator, right_id)
        else:
            parent.inner_insert(separator, right_id)
        new_nodes.append(parent_right)
        dirty[parent.page_id] = parent
        separator = parent_sep
        right_id = parent_right_id
        index -= 1

    yield WriteEff(new_nodes)
    yield WriteEff(list(dirty.values()), write_meta=write_meta)
    for page_id in path_ids:
        yield UnlatchEff(page_id)


def _update_plan(op, tree):
    costs = tree.costs
    leaf = yield from descend_shared(tree, op.key, leaf_mode=EXCLUSIVE)
    found = leaf.leaf_lookup(op.key) is not None
    if found:
        yield ChargeEff(costs.leaf_update_ns, CPU_REAL_WORK)
        leaf.leaf_insert(op.key, op.payload)
        yield WriteEff([leaf])
    op.result = found
    yield UnlatchEff(leaf.page_id)


def _delete_plan(op, tree):
    costs = tree.costs
    path_ids, path_nodes = yield from _descend_exclusive(
        op, tree, lambda node: node.is_safe_for_delete()
    )
    leaf = path_nodes[-1]
    yield ChargeEff(costs.leaf_update_ns, CPU_REAL_WORK)
    removed = leaf.leaf_delete(op.key)
    op.result = removed
    if not removed:
        for page_id in path_ids:
            yield UnlatchEff(page_id)
        return
    tree.meta.key_count -= 1

    dirty = {leaf.page_id: leaf}
    write_meta = yield from rebalance(tree, path_nodes, leaf, dirty)
    yield WriteEff(list(dirty.values()), write_meta=write_meta)
    for page_id in path_ids:
        yield UnlatchEff(page_id)


def _sync_plan(op, tree):
    flushed = yield SyncEff()
    op.result = flushed
