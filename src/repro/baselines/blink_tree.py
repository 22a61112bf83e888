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

It shares the node format, blocking I/O services and buffer machinery
with the other baselines, so the comparison isolates the concurrency
protocol and execution paradigm.
"""

from repro.baselines.sync_tree import BlockingPageIo
from repro.core.latch import EXCLUSIVE
from repro.core.node import NO_PAGE, Node
from repro.core.ops import DELETE, INSERT, RANGE, SEARCH, SYNC, UPDATE
from repro.errors import IoError, TreeError
from repro.sim.metrics import CPU_REAL_WORK
from repro.simos.sync import Mutex


class BlinkTreeAccessor(BlockingPageIo):
    """Latch-free-read Blink-tree over the shared blocking page layer."""

    def __init__(self, tree, io_service, latches, buffer=None, persistence="strong"):
        super().__init__(tree, io_service, latches, buffer, persistence)
        self._meta_mutex = Mutex("blink-meta")

    # ------------------------------------------------------------------
    # traversal helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _needs_right_move(node, key):
        return (
            node.high_key is not None
            and key >= node.high_key
            and node.next_id != NO_PAGE
        )

    def _chase_right(self, tls, node, key):
        """Follow right-links until ``key`` is within the node's fence."""
        cpu = tls.simos.cpu
        while self._needs_right_move(node, key):
            node = yield from self._read_node(tls, node.next_id)
            cpu(self.tree.costs.node_search_ns, CPU_REAL_WORK) or (yield)
        return node

    def _descend_to_leaf(self, tls, key):
        """Latch-free descent; returns (leaf_node, ancestor_page_ids)."""
        costs = self.tree.costs
        cpu = tls.simos.cpu
        ancestors = []
        node = yield from self._read_node(tls, self.tree.meta.root_page)
        cpu(costs.node_search_ns, CPU_REAL_WORK) or (yield)
        while True:
            node = yield from self._chase_right(tls, node, key)
            if node.is_leaf:
                return node, ancestors
            ancestors.append(node.page_id)
            node = yield from self._read_node(tls, node.child_for(key))
            cpu(costs.node_search_ns, CPU_REAL_WORK) or (yield)

    def _latch(self, tls, op, page_id):
        yield from self.latches.acquire(tls, page_id, EXCLUSIVE)
        op.held_latches[page_id] = EXCLUSIVE

    def _unlatch(self, tls, op, page_id):
        del op.held_latches[page_id]
        yield from self.latches.release(tls, page_id, EXCLUSIVE)

    def _latch_node_for_key(self, tls, op, start_id, key):
        """Latch a node, re-read it, and move right (with latch hand-over)
        until the key fits — the Blink writer protocol."""
        page_id = start_id
        yield from self._latch(tls, op, page_id)
        node = yield from self._read_node(tls, page_id)
        while self._needs_right_move(node, key):
            next_id = node.next_id
            yield from self._latch(tls, op, next_id)
            yield from self._unlatch(tls, op, page_id)
            page_id = next_id
            node = yield from self._read_node(tls, page_id)
        return node

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def execute(self, tls, op):
        """Run one operation on the calling thread; an I/O failure
        releases the latches ``op`` holds before it propagates, so the
        writers queued behind them are not wedged."""
        try:
            if op.kind == SEARCH:
                yield from self._search(tls, op)
            elif op.kind == RANGE:
                yield from self._range(tls, op)
            elif op.kind == INSERT:
                yield from self._insert(tls, op)
            elif op.kind == UPDATE:
                yield from self._leaf_write(tls, op, update_only=True)
            elif op.kind == DELETE:
                yield from self._delete(tls, op)
            elif op.kind == SYNC:
                op.result = yield from self._sync(tls)
            else:
                raise TreeError("unknown operation kind %r" % (op.kind,))
        except IoError:
            for page_id in sorted(op.held_latches):
                yield from self._unlatch(tls, op, page_id)
            raise

    def _search(self, tls, op):
        leaf, _ancestors = yield from self._descend_to_leaf(tls, op.key)
        op.result = leaf.leaf_lookup(op.key)

    def _range(self, tls, op):
        costs = self.tree.costs
        results = []
        node, _ancestors = yield from self._descend_to_leaf(tls, op.key)
        while True:
            if node.leaf_collect(op.key, op.high_key, op.limit, results):
                op.result = results
                return
            node = yield from self._read_node(tls, node.next_id)
            tls.simos.cpu(costs.node_search_ns, CPU_REAL_WORK) or (yield)

    def _leaf_write(self, tls, op, update_only):
        """Update (and simple non-splitting insert) path."""
        costs = self.tree.costs
        cpu = tls.simos.cpu
        leaf_hint, _ancestors = yield from self._descend_to_leaf(tls, op.key)
        leaf = yield from self._latch_node_for_key(tls, op, leaf_hint.page_id, op.key)
        cpu(costs.leaf_update_ns, CPU_REAL_WORK) or (yield)
        found = leaf.leaf_lookup(op.key) is not None
        if update_only:
            if found:
                leaf.leaf_insert(op.key, op.payload)
                yield from self._write_node(tls, leaf)
            op.result = found
            yield from self._unlatch(tls, op, leaf.page_id)
            return leaf, found
        return leaf, found

    def _insert(self, tls, op):
        costs = self.tree.costs
        cpu = tls.simos.cpu
        tree = self.tree
        leaf_hint, ancestors = yield from self._descend_to_leaf(tls, op.key)
        leaf = yield from self._latch_node_for_key(tls, op, leaf_hint.page_id, op.key)
        cpu(costs.leaf_update_ns, CPU_REAL_WORK) or (yield)

        if not leaf.is_full or leaf.leaf_lookup(op.key) is not None:
            inserted = leaf.leaf_insert(op.key, op.payload)
            op.result = inserted
            if inserted:
                tree.meta.key_count += 1
            yield from self._write_node(tls, leaf)
            yield from self._unlatch(tls, op, leaf.page_id)
            return

        # Split the leaf, then insert separators bottom-up.
        cpu(costs.split_ns, CPU_REAL_WORK) or (yield)
        right_id = yield from self._allocate(tls)
        right, separator = leaf.split(right_id)
        if op.key >= separator:
            right.leaf_insert(op.key, op.payload)
        else:
            leaf.leaf_insert(op.key, op.payload)
        tree.meta.key_count += 1
        op.result = True
        yield from self._write_node(tls, right)  # right sibling durable first
        yield from self._write_node(tls, leaf)
        yield from self._unlatch(tls, op, leaf.page_id)

        child_id = leaf.page_id
        child_level = 0
        while True:
            if ancestors:
                parent_start = ancestors.pop()
            else:
                done = yield from self._maybe_split_root(
                    tls, child_level, separator, right_id
                )
                if done:
                    return
                # a concurrent root change happened; re-descend for a
                # parent.  ``fresh`` holds ancestor ids root-first, so
                # the ancestor at level L sits L entries from the end
                # (level 1 is last); we need the level child_level + 1.
                _leaf, fresh = yield from self._descend_to_leaf(tls, separator)
                if len(fresh) < child_level + 1:
                    continue  # tree still too short; retry the root path
                parent_start = fresh[-(child_level + 1)]
            parent = yield from self._latch_node_for_key(
                tls, op, parent_start, separator
            )
            cpu(costs.leaf_update_ns, CPU_REAL_WORK) or (yield)
            if not parent.is_full:
                parent.inner_insert(separator, right_id)
                yield from self._write_node(tls, parent)
                yield from self._unlatch(tls, op, parent.page_id)
                return
            cpu(costs.split_ns, CPU_REAL_WORK) or (yield)
            parent_right_id = yield from self._allocate(tls)
            parent_right, parent_sep = parent.split(parent_right_id)
            if separator > parent_sep:
                parent_right.inner_insert(separator, right_id)
            else:
                parent.inner_insert(separator, right_id)
            yield from self._write_node(tls, parent_right)
            yield from self._write_node(tls, parent)
            yield from self._unlatch(tls, op, parent.page_id)
            child_id = parent.page_id
            child_level = parent.level
            separator = parent_sep
            right_id = parent_right_id

    def _maybe_split_root(self, tls, child_level, separator, right_id):
        """Grow the tree when the split reached the current root."""
        tree = self.tree
        simos = tls.simos
        simos.sem_wait(self._meta_mutex) or (yield)
        if tree.meta.height - 1 != child_level:
            # someone already grew the tree; a parent level exists now
            simos.sem_post(self._meta_mutex) or (yield)
            return False
        new_root_id = yield from self._allocate(tls)
        new_root = Node.new_inner(tree.config, new_root_id, child_level + 1)
        old_root_id = tree.meta.root_page
        new_root.keys = [separator]
        new_root.children = [old_root_id, right_id]
        try:
            yield from self._write_node(tls, new_root)
            tree.meta.root_page = new_root_id
            tree.meta.height += 1
            yield from self._write_meta(tls)
        except IoError:
            # the next root split must not wait for a mutex nobody holds
            simos.sem_post(self._meta_mutex) or (yield)
            raise
        simos.sem_post(self._meta_mutex) or (yield)
        return True

    def _delete(self, tls, op):
        costs = self.tree.costs
        cpu = tls.simos.cpu
        leaf_hint, _ancestors = yield from self._descend_to_leaf(tls, op.key)
        leaf = yield from self._latch_node_for_key(tls, op, leaf_hint.page_id, op.key)
        cpu(costs.leaf_update_ns, CPU_REAL_WORK) or (yield)
        removed = leaf.leaf_delete(op.key)
        op.result = removed
        if removed:
            self.tree.meta.key_count -= 1
            yield from self._write_node(tls, leaf)
        yield from self._unlatch(tls, op, leaf.page_id)
