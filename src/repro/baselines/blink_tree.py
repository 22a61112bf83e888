"""Blink-tree baseline (Lehman & Yao), synchronous paradigm.

The paper compares against a Blink-tree using CAS-style lock-free
reads.  The defining properties reproduced here:

* every node carries a right-link (``next_id``) and a fence
  (``high_key``); a reader that lands on a node whose fence is below
  its search key simply chases right — so **reads take no latches at
  all** (page reads are atomic snapshots),
* writers latch only the leaf (then parent, one level at a time,
  bottom-up) — no latch coupling down the tree,
* deletes never merge (classic Blink lazy deletion).

The protocol is written as plans — generators yielding the effects of
:mod:`repro.core.ops` — that :meth:`SyncTreeAccessor.execute` serves,
so Blink shares the node format, blocking I/O services, buffer, latch
table and I/O-failure release with the other baselines, and the
comparison isolates the concurrency protocol and execution paradigm.
"""

from repro.baselines.sync_tree import SyncTreeAccessor
from repro.core.latch import EXCLUSIVE
from repro.core.node import NO_PAGE, Node
from repro.core.ops import (
    AllocEff,
    ChargeEff,
    DELETE,
    INSERT,
    LatchEff,
    RANGE,
    ReadEff,
    SEARCH,
    SYNC,
    UPDATE,
    UnlatchEff,
    WriteEff,
)
from repro.core.plans import make_plan
from repro.errors import TreeError
from repro.sim.metrics import CPU_REAL_WORK


class BlinkTreeAccessor(SyncTreeAccessor):
    """Latch-free-read Blink-tree: the blocking interpreter serving the
    Blink plans."""

    def _make_plan(self, op):
        return make_blink_plan(op, self.tree)


def make_blink_plan(op, tree):
    """Instantiate the Blink coroutine implementing ``op``."""
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
        return make_plan(op, tree)  # the shared sync plan
    raise TreeError("unknown operation kind %r" % (op.kind,))


# ----------------------------------------------------------------------
# traversal
# ----------------------------------------------------------------------


def _needs_right_move(node, key):
    return (
        node.high_key is not None
        and key >= node.high_key
        and node.next_id != NO_PAGE
    )


def _chase_right(tree, node, key):
    """Follow right-links until ``key`` is within the node's fence."""
    while _needs_right_move(node, key):
        node = yield ReadEff(node.next_id)
        yield ChargeEff(tree.costs.node_search_ns, CPU_REAL_WORK)
    return node


def _descend_to_leaf(tree, key):
    """Latch-free descent; returns (leaf, ancestor page ids root-first)."""
    search_ns = tree.costs.node_search_ns
    ancestors = []
    node = yield ReadEff(tree.meta.root_page)
    yield ChargeEff(search_ns, CPU_REAL_WORK)
    while True:
        node = yield from _chase_right(tree, node, key)
        if node.is_leaf:
            return node, ancestors
        ancestors.append(node.page_id)
        node = yield ReadEff(node.child_for(key))
        yield ChargeEff(search_ns, CPU_REAL_WORK)


def _latch_node_for_key(tree, start_id, key):
    """Latch a node, re-read it, and move right (with latch hand-over)
    until the key fits — the Blink writer protocol.  Returns the node,
    still latched."""
    page_id = start_id
    yield LatchEff(page_id, EXCLUSIVE)
    node = yield ReadEff(page_id)
    while _needs_right_move(node, key):
        next_id = node.next_id
        yield LatchEff(next_id, EXCLUSIVE)
        yield UnlatchEff(page_id)
        page_id = next_id
        node = yield ReadEff(page_id)
    return node


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------


def _search_plan(op, tree):
    leaf, _ancestors = yield from _descend_to_leaf(tree, op.key)
    op.result = leaf.leaf_lookup(op.key)


def _range_plan(op, tree):
    results = []
    node, _ancestors = yield from _descend_to_leaf(tree, op.key)
    while not node.leaf_collect(op.key, op.high_key, op.limit, results):
        node = yield ReadEff(node.next_id)
        yield ChargeEff(tree.costs.node_search_ns, CPU_REAL_WORK)
    op.result = results


def _update_plan(op, tree):
    hint, _ancestors = yield from _descend_to_leaf(tree, op.key)
    leaf = yield from _latch_node_for_key(tree, hint.page_id, op.key)
    yield ChargeEff(tree.costs.leaf_update_ns, CPU_REAL_WORK)
    found = leaf.leaf_lookup(op.key) is not None
    if found:
        leaf.leaf_insert(op.key, op.payload)
        yield WriteEff([leaf])
    op.result = found
    yield UnlatchEff(leaf.page_id)


def _delete_plan(op, tree):
    hint, _ancestors = yield from _descend_to_leaf(tree, op.key)
    leaf = yield from _latch_node_for_key(tree, hint.page_id, op.key)
    yield ChargeEff(tree.costs.leaf_update_ns, CPU_REAL_WORK)
    removed = leaf.leaf_delete(op.key)
    op.result = removed
    if removed:
        tree.meta.key_count -= 1
        yield WriteEff([leaf])
    yield UnlatchEff(leaf.page_id)


def _insert_plan(op, tree):
    costs = tree.costs
    hint, ancestors = yield from _descend_to_leaf(tree, op.key)
    leaf = yield from _latch_node_for_key(tree, hint.page_id, op.key)
    yield ChargeEff(costs.leaf_update_ns, CPU_REAL_WORK)

    if not leaf.is_full or leaf.leaf_lookup(op.key) is not None:
        inserted = leaf.leaf_insert(op.key, op.payload)
        op.result = inserted
        if inserted:
            tree.meta.key_count += 1
        yield WriteEff([leaf])
        yield UnlatchEff(leaf.page_id)
        return

    # Split the leaf, then insert separators bottom-up.
    yield ChargeEff(costs.split_ns, CPU_REAL_WORK)
    right_id = yield AllocEff()
    right, separator = leaf.split(right_id)
    if op.key >= separator:
        right.leaf_insert(op.key, op.payload)
    else:
        leaf.leaf_insert(op.key, op.payload)
    tree.meta.key_count += 1
    op.result = True
    yield WriteEff([right])  # right sibling durable first
    yield WriteEff([leaf])
    yield UnlatchEff(leaf.page_id)
    yield from _insert_separator(tree, ancestors, separator, right_id)


def _insert_separator(tree, ancestors, separator, right_id):
    """Post ``separator -> right_id`` into the level above, splitting
    parents bottom-up, one latch at a time."""
    costs = tree.costs
    child_level = 0
    while True:
        if ancestors:
            parent_start = ancestors.pop()
        else:
            grown = yield from _grow_root(tree, child_level, separator, right_id)
            if grown:
                return
            # a concurrent root change happened; re-descend for a
            # parent.  ``fresh`` holds ancestor ids root-first, so the
            # ancestor at level L sits L entries from the end (level 1
            # is last); we need the level child_level + 1.
            _leaf, fresh = yield from _descend_to_leaf(tree, separator)
            if len(fresh) < child_level + 1:
                continue  # tree still too short; retry the root path
            parent_start = fresh[-(child_level + 1)]
        parent = yield from _latch_node_for_key(tree, parent_start, separator)
        yield ChargeEff(costs.leaf_update_ns, CPU_REAL_WORK)
        if not parent.is_full:
            parent.inner_insert(separator, right_id)
            yield WriteEff([parent])
            yield UnlatchEff(parent.page_id)
            return
        yield ChargeEff(costs.split_ns, CPU_REAL_WORK)
        parent_right_id = yield AllocEff()
        parent_right, parent_sep = parent.split(parent_right_id)
        if separator > parent_sep:
            parent_right.inner_insert(separator, right_id)
        else:
            parent.inner_insert(separator, right_id)
        yield WriteEff([parent_right])
        yield WriteEff([parent])
        yield UnlatchEff(parent.page_id)
        child_level = parent.level
        separator = parent_sep
        right_id = parent_right_id


def _grow_root(tree, child_level, separator, right_id):
    """Grow the tree when the split reached the current root, under the
    meta page's latch; False when a concurrent split grew it first."""
    meta_page = tree.meta_page
    yield LatchEff(meta_page, EXCLUSIVE)
    if tree.meta.height - 1 != child_level:
        # someone already grew the tree; a parent level exists now
        yield UnlatchEff(meta_page)
        return False
    new_root_id = yield AllocEff()
    new_root = Node.new_inner(tree.config, new_root_id, child_level + 1)
    new_root.keys = [separator]
    new_root.children = [tree.meta.root_page, right_id]
    yield WriteEff([new_root])
    tree.meta.root_page = new_root_id
    tree.meta.height += 1
    yield WriteEff([], write_meta=True)
    yield UnlatchEff(meta_page)
    return True
