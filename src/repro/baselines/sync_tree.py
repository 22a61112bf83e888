"""Synchronous B+ tree accessor (paper §V-A baselines).

Implements exactly the same index algorithms as PA-Tree's operation
plans — latch-coupled descent, split cascades with ordered write
waves, right-sibling delete rebalancing, strong/weak persistence — but
in the *traditional synchronous execution paradigm*: the calling
thread blocks on every I/O (through a :mod:`~repro.baselines.io_service`)
and on every latch (through the semaphore-based
:class:`~repro.baselines.latching.BlockingLatchTable`).

One accessor instance is shared by all worker threads of a baseline
run; shared mutable state (buffer, allocator, meta) is protected by
mutexes, each access paying the semaphore syscall costs the paper's
CPU breakdown charges to synchronization.  That page layer is
:class:`BlockingPageIo`; the Blink and LCB baselines stand on it too.
"""

from repro.core.latch import EXCLUSIVE, SHARED
from repro.core.meta import META_PAGE
from repro.core.node import NO_PAGE, Node
from repro.core.ops import DELETE, INSERT, RANGE, SEARCH, SYNC, UPDATE
from repro.errors import TreeError
from repro.sim.metrics import CPU_REAL_WORK
from repro.simos.sync import Mutex
from repro.simos.thread import Cpu, SemPost, SemWait


class BlockingPageIo:
    """The blocking page layer every tree baseline stands on.

    Node reads and writes through the (optional) buffer and a blocking
    I/O service, ordered eviction flushes, the allocator and sync —
    each shared structure behind its mutex.  Subclasses add the index
    algorithms and their latch protocol.
    """

    def __init__(self, tree, io_service, latches, buffer=None, persistence="strong"):
        if persistence not in ("strong", "weak"):
            raise TreeError("unknown persistence %r" % (persistence,))
        if persistence == "weak" and (buffer is None or buffer.mode != "weak"):
            raise TreeError("weak persistence requires a ReadWriteBuffer")
        self.tree = tree
        self.io = io_service
        self.latches = latches
        self.buffer = buffer
        self.persistence = persistence
        self._buffer_mutex = Mutex("buffer") if buffer is not None else None
        self._alloc_mutex = Mutex("allocator")
        self._flush_locks = {}  # page_id -> Mutex (serializes flushes)

    # ------------------------------------------------------------------
    # node I/O through buffer + blocking I/O service
    # ------------------------------------------------------------------

    def _read_node(self, tls, page_id):
        costs = self.tree.costs
        if self.buffer is not None:
            yield SemWait(self._buffer_mutex)
            yield Cpu(costs.buffer_lookup_ns, CPU_REAL_WORK)
            data = self.buffer.lookup(page_id)
            yield SemPost(self._buffer_mutex)
            if data is not None:
                yield Cpu(costs.node_parse_ns, CPU_REAL_WORK)
                return Node.from_bytes(self.tree.config, page_id, data)
        data = yield from self.io.read(tls, page_id)
        if self.buffer is not None:
            yield from self._install(tls, page_id, data)
        yield Cpu(costs.node_parse_ns, CPU_REAL_WORK)
        return Node.from_bytes(self.tree.config, page_id, data)

    def _install(self, tls, page_id, data):
        yield SemWait(self._buffer_mutex)
        evicted = self.buffer.install(page_id, data)
        yield SemPost(self._buffer_mutex)
        yield from self._flush_evicted(tls, evicted)

    def _flush_evicted(self, tls, evicted):
        """Flush dirty evictions with per-page ordering.

        Two threads may hold flushes for the same page (evict, rewrite,
        evict again); without serialization the older image could land
        on media last.  A per-page mutex serializes the device writes,
        and each flusher writes the *newest* in-flight bytes, so the
        final media content is always the latest version.
        """
        for victim_id, victim_data in evicted:
            yield SemWait(self._buffer_mutex)
            lock = self._flush_locks.get(victim_id)
            if lock is None:
                lock = self._flush_locks[victim_id] = Mutex("flush")
            yield SemPost(self._buffer_mutex)
            yield SemWait(lock)
            latest = self.buffer.in_flight_data(victim_id)
            yield from self.io.write(
                tls, victim_id, latest if latest is not None else victim_data
            )
            yield SemWait(self._buffer_mutex)
            self.buffer.flush_done(victim_id)
            yield SemPost(self._buffer_mutex)
            yield SemPost(lock)

    def _write_page(self, tls, page_id, data):
        """Persist one page per the persistence mode (blocking)."""
        if self.persistence == "weak":
            yield SemWait(self._buffer_mutex)
            evicted = self.buffer.write(page_id, data)
            yield SemPost(self._buffer_mutex)
            yield from self._flush_evicted(tls, evicted)
            return
        yield from self.io.write(tls, page_id, data)
        if self.buffer is not None:
            yield SemWait(self._buffer_mutex)
            self.buffer.install(page_id, data)
            yield SemPost(self._buffer_mutex)

    def _write_node(self, tls, node):
        yield Cpu(self.tree.costs.node_serialize_ns, CPU_REAL_WORK)
        yield from self._write_page(tls, node.page_id, node.to_bytes())

    def _write_meta(self, tls):
        yield Cpu(self.tree.costs.node_serialize_ns, CPU_REAL_WORK)
        yield from self._write_page(tls, META_PAGE, self.tree.meta.to_bytes())

    def _allocate(self):
        yield SemWait(self._alloc_mutex)
        page_id = self.tree.allocator.allocate()
        yield SemPost(self._alloc_mutex)
        return page_id

    def _free(self, page_id):
        yield SemWait(self._alloc_mutex)
        self.tree.allocator.free(page_id)
        yield SemPost(self._alloc_mutex)
        if self.buffer is not None:
            yield SemWait(self._buffer_mutex)
            self.buffer.invalidate(page_id)
            yield SemPost(self._buffer_mutex)

    def _sync(self, tls, op):
        if self.persistence == "strong" or self.buffer is None:
            op.result = 0
            return
        yield SemWait(self._buffer_mutex)
        flushing = self.buffer.take_dirty()
        yield SemPost(self._buffer_mutex)
        # reuse the ordered per-page flush path so a sync never races
        # an in-flight eviction flush of the same page
        yield from self._flush_evicted(tls, flushing)
        op.result = len(flushing)


class SyncTreeAccessor(BlockingPageIo):
    """Blocking-paradigm tree operations over shared tree state."""

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def execute(self, tls, op):
        """Run one operation to completion on the calling thread."""
        if op.kind == SEARCH:
            yield from self._search(tls, op)
        elif op.kind == RANGE:
            yield from self._range(tls, op)
        elif op.kind == INSERT:
            yield from self._insert(tls, op)
        elif op.kind == UPDATE:
            yield from self._update(tls, op)
        elif op.kind == DELETE:
            yield from self._delete(tls, op)
        elif op.kind == SYNC:
            yield from self._sync(tls, op)
        else:
            raise TreeError("unknown operation kind %r" % (op.kind,))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def _search(self, tls, op):
        costs = self.tree.costs
        yield from self.latches.acquire(META_PAGE, SHARED)
        prev = META_PAGE
        page_id = self.tree.meta.root_page
        while True:
            yield from self.latches.acquire(page_id, SHARED)
            yield from self.latches.release(prev, SHARED)
            node = yield from self._read_node(tls, page_id)
            yield Cpu(costs.node_search_ns, CPU_REAL_WORK)
            if node.is_leaf:
                op.result = node.leaf_lookup(op.key)
                yield from self.latches.release(page_id, SHARED)
                return
            prev = page_id
            page_id = node.child_for(op.key)

    def _range(self, tls, op):
        costs = self.tree.costs
        results = []
        yield from self.latches.acquire(META_PAGE, SHARED)
        prev = META_PAGE
        page_id = self.tree.meta.root_page
        while True:
            yield from self.latches.acquire(page_id, SHARED)
            yield from self.latches.release(prev, SHARED)
            node = yield from self._read_node(tls, page_id)
            yield Cpu(costs.node_search_ns, CPU_REAL_WORK)
            if node.is_leaf:
                break
            prev = page_id
            page_id = node.child_for(op.key)
        while True:
            index = node.leaf_range_from(op.key)
            truncated = False
            while index < node.count and node.keys[index] <= op.high_key:
                results.append((node.keys[index], node.values[index]))
                index += 1
                if op.limit and len(results) >= op.limit:
                    truncated = True
                    break
            exhausted = node.count > 0 and node.keys[-1] >= op.high_key
            if truncated or exhausted or node.next_id == NO_PAGE:
                yield from self.latches.release(node.page_id, SHARED)
                op.result = results
                return
            next_id = node.next_id
            yield from self.latches.acquire(next_id, SHARED)
            yield from self.latches.release(node.page_id, SHARED)
            node = yield from self._read_node(tls, next_id)
            yield Cpu(costs.node_search_ns, CPU_REAL_WORK)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def _descend_exclusive(self, tls, op, safe_test):
        yield from self.latches.acquire(META_PAGE, EXCLUSIVE)
        path_ids = [META_PAGE]
        path_nodes = [None]
        page_id = self.tree.meta.root_page
        while True:
            yield from self.latches.acquire(page_id, EXCLUSIVE)
            node = yield from self._read_node(tls, page_id)
            yield Cpu(self.tree.costs.node_search_ns, CPU_REAL_WORK)
            if safe_test(node):
                for ancestor in path_ids:
                    yield from self.latches.release(ancestor, EXCLUSIVE)
                path_ids = [page_id]
                path_nodes = [node]
            else:
                path_ids.append(page_id)
                path_nodes.append(node)
            if node.is_leaf:
                return path_ids, path_nodes
            page_id = node.child_for(op.key)

    def _release_path(self, path_ids):
        for page_id in path_ids:
            yield from self.latches.release(page_id, EXCLUSIVE)

    def _insert(self, tls, op):
        costs = self.tree.costs
        tree = self.tree
        path_ids, path_nodes = yield from self._descend_exclusive(
            tls, op, lambda node: node.is_safe_for_insert()
        )
        leaf = path_nodes[-1]
        yield Cpu(costs.leaf_update_ns, CPU_REAL_WORK)

        if not leaf.is_full or leaf.leaf_lookup(op.key) is not None:
            inserted = leaf.leaf_insert(op.key, op.payload)
            op.result = inserted
            if inserted:
                tree.meta.key_count += 1
            yield from self._write_node(tls, leaf)
            yield from self._release_path(path_ids)
            return

        new_nodes = []
        dirty = {}
        write_meta = False

        yield Cpu(costs.split_ns, CPU_REAL_WORK)
        right_id = yield from self._allocate()
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
                old_root = path_nodes[index + 1]
                new_root_id = yield from self._allocate()
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
            yield Cpu(costs.split_ns, CPU_REAL_WORK)
            parent_right_id = yield from self._allocate()
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

        # wave 1: new right siblings; wave 2: pages pointing at them
        for node in new_nodes:
            yield from self._write_node(tls, node)
        for node in dirty.values():
            yield from self._write_node(tls, node)
        if write_meta:
            yield from self._write_meta(tls)
        yield from self._release_path(path_ids)

    def _update(self, tls, op):
        costs = self.tree.costs
        yield from self.latches.acquire(META_PAGE, SHARED)
        prev = META_PAGE
        prev_mode = SHARED
        page_id = self.tree.meta.root_page
        level = self.tree.meta.height - 1
        while True:
            mode = EXCLUSIVE if level == 0 else SHARED
            yield from self.latches.acquire(page_id, mode)
            yield from self.latches.release(prev, prev_mode)
            node = yield from self._read_node(tls, page_id)
            yield Cpu(costs.node_search_ns, CPU_REAL_WORK)
            if node.is_leaf:
                found = node.leaf_lookup(op.key) is not None
                if found:
                    yield Cpu(costs.leaf_update_ns, CPU_REAL_WORK)
                    node.leaf_insert(op.key, op.payload)
                    yield from self._write_node(tls, node)
                op.result = found
                yield from self.latches.release(page_id, mode)
                return
            prev = page_id
            prev_mode = mode
            page_id = node.child_for(op.key)
            level -= 1

    def _delete(self, tls, op):
        costs = self.tree.costs
        tree = self.tree
        path_ids, path_nodes = yield from self._descend_exclusive(
            tls, op, lambda node: node.is_safe_for_delete()
        )
        leaf = path_nodes[-1]
        yield Cpu(costs.leaf_update_ns, CPU_REAL_WORK)
        removed = leaf.leaf_delete(op.key)
        op.result = removed
        if not removed:
            yield from self._release_path(path_ids)
            return
        tree.meta.key_count -= 1

        dirty = {leaf.page_id: leaf}
        write_meta = False
        index = len(path_nodes) - 1
        current = leaf
        while current.count < current.min_keys:
            parent = path_nodes[index - 1] if index >= 1 else None
            if parent is None:
                break
            child_index = parent.children.index(current.page_id)
            if child_index == parent.count:
                break  # rightmost child: tolerate underflow
            right_id = parent.children[child_index + 1]
            yield from self.latches.acquire(right_id, EXCLUSIVE)
            right = yield from self._read_node(tls, right_id)
            separator = parent.keys[child_index]
            yield Cpu(costs.merge_ns, CPU_REAL_WORK)
            if current.can_merge_with(right):
                current.merge_from_right(right, separator)
                parent.inner_remove_child(child_index + 1)
                yield from self.latches.release(right_id, EXCLUSIVE)
                yield from self._free(right_id)
                dirty.pop(right_id, None)
                dirty[current.page_id] = current
                dirty[parent.page_id] = parent
                current = parent
                index -= 1
            else:
                moves = max(1, (right.count - current.count) // 2)
                new_separator = separator
                for _ in range(moves):
                    new_separator = current.borrow_from_right(right, new_separator)
                parent.keys[child_index] = new_separator
                dirty[current.page_id] = current
                dirty[right_id] = right
                dirty[parent.page_id] = parent
                yield from self.latches.release(right_id, EXCLUSIVE)
                break

        root = (
            path_nodes[1]
            if path_nodes and path_nodes[0] is None and len(path_nodes) > 1
            else None
        )
        if (
            root is not None
            and not root.is_leaf
            and root.count == 0
            and tree.meta.root_page == root.page_id
        ):
            tree.meta.root_page = root.children[0]
            tree.meta.height -= 1
            write_meta = True
            dirty.pop(root.page_id, None)
            yield from self._free(root.page_id)

        for node in dirty.values():
            yield from self._write_node(tls, node)
        if write_meta:
            yield from self._write_meta(tls)
        yield from self._release_path(path_ids)
