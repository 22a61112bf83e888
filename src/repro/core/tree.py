"""Tree structure facade: creation, opening, bulk loading, validation.

``PaTree`` owns the tree's geometry, meta page and page allocator.  It
performs no timed I/O itself — operations flow through the working
thread engine (``repro.core.engine``); this class provides the
zero-time administrative paths (formatting a new tree, bottom-up bulk
loading, invariant validation) which use the device's raw backdoor the
way an offline ``mkfs``/``CREATE INDEX`` would.
"""

from repro.core.costs import DEFAULT_COSTS
from repro.core.keys import check_key
from repro.core.meta import META_PAGE, TreeMeta
from repro.core.node import NO_PAGE, Node, TreeConfig
from repro.errors import BulkLoadError, TreeError
from repro.storage.allocator import PageAllocator


def check_bulk_items(items):
    """Validate bulk-load input: valid, sorted, unique keys.

    Shared by every ``bulk_load`` entry point (tree, LSM store, sharded
    router) so they all reject bad input with the same typed error.
    Returns the materialized list.
    """
    items = list(items)
    for (key, _payload) in items:
        check_key(key)
    if any(items[i][0] >= items[i + 1][0] for i in range(len(items) - 1)):
        raise BulkLoadError("bulk_load input must be sorted and unique")
    return items


class PaTree:
    """B+ tree structure state shared by the execution engines."""

    def __init__(self, device, config, meta, allocator):
        self.device = device
        self.config = config
        self.meta = meta
        self.allocator = allocator
        self.costs = DEFAULT_COSTS
        self.meta_page = META_PAGE
        # observer slot (repro.sim.hooks): the engine on top subscribes
        # to drop its cached parse of a freed page
        self.on_page_released = ()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, device, payload_size=8, capacity_pages=None, base_lba=0):
        """Format a new, empty tree on ``device`` (zero-time, like mkfs).

        ``base_lba``/``capacity_pages`` carve out an LBA range so
        several trees (e.g. the partitions of a multi-worker PA-Tree)
        can share one device; the range's first page holds the meta.
        """
        config = TreeConfig(device.profile.page_size, payload_size)
        capacity = capacity_pages or (device.profile.capacity_pages - base_lba)
        allocator = PageAllocator(base=base_lba + 1, capacity=capacity - 1)
        root_id = allocator.allocate()
        root = Node.new_leaf(config, root_id)
        meta = TreeMeta(
            page_size=config.page_size,
            payload_size=payload_size,
            root_page=root_id,
            height=1,
            next_page=allocator.next_page,
            key_count=0,
        )
        device.raw_write(root_id, root.to_bytes())
        device.raw_write(base_lba, meta.to_bytes())
        tree = cls(device, config, meta, allocator)
        tree.meta_page = base_lba
        return tree

    @classmethod
    def open(cls, device, recover=False, base_lba=0):
        """Re-open a tree previously created on ``device``.

        ``recover=True`` performs crash recovery: the on-media meta
        page is only rewritten when the root changes, so after a crash
        its key count and allocator watermark lag the tree contents.
        Recovery walks the tree (the root pointer is always durable --
        it changes exactly when the meta page is rewritten), recounts
        the keys and raises the watermark past every reachable page so
        the allocator can never hand out a live page.  Pages allocated
        but orphaned by the crash are leaked, the standard watermark
        trade-off.
        """
        meta = TreeMeta.from_bytes(device.raw_read(base_lba))
        if meta.page_size != device.profile.page_size:
            raise TreeError(
                "meta page size %d != device page size %d"
                % (meta.page_size, device.profile.page_size)
            )
        config = TreeConfig(meta.page_size, meta.payload_size)
        capacity = device.profile.capacity_pages - base_lba
        allocator = PageAllocator(
            base=base_lba + 1, capacity=capacity - 1, next_page=meta.next_page
        )
        tree = cls(device, config, meta, allocator)
        tree.meta_page = base_lba
        if recover:
            tree._recover()
        return tree

    def _recover(self):
        keys = 0
        max_page = self.meta.root_page
        stack = [(self.meta.root_page, self.meta.height - 1)]
        while stack:
            page_id, level = stack.pop()
            max_page = max(max_page, page_id)
            node = self.read_node_raw(page_id)
            if node.level != level:
                raise TreeError(
                    "recovery: page %d level %d, expected %d"
                    % (page_id, node.level, level)
                )
            if node.is_leaf:
                keys += node.count
            else:
                stack.extend((child, level - 1) for child in node.children)
        self.meta.key_count = keys
        self.meta.next_page = max(self.meta.next_page, max_page + 1)
        self.allocator.next_page = self.meta.next_page
        self.device.raw_write(self.meta_page, self.meta.to_bytes())

    def release_page(self, page_id):
        """Free a page and let the engine drop any cached parse of it."""
        self.allocator.free(page_id)
        if self.on_page_released:
            for observer in self.on_page_released:
                observer(page_id)

    # ------------------------------------------------------------------
    # bulk loading (offline, zero virtual time)
    # ------------------------------------------------------------------

    def bulk_load(self, items, fill_factor=0.7):
        """Build the tree bottom-up from sorted unique (key, payload) pairs.

        Replaces the current (empty) tree contents.  ``fill_factor``
        leaves slack in each node so subsequent online inserts do not
        immediately split every leaf.
        """
        if self.meta.key_count != 0:
            raise TreeError("bulk_load requires an empty tree")
        if not 0.1 <= fill_factor <= 1.0:
            raise TreeError("fill_factor %r outside [0.1, 1.0]" % fill_factor)
        items = check_bulk_items(items)
        if not items:
            return
        config = self.config
        per_leaf = max(1, int(config.leaf_capacity * fill_factor))
        per_inner = max(2, int(config.inner_capacity * fill_factor))

        # Build the leaf level.
        leaves = []  # (first_key, page_id)
        previous = None
        for start in range(0, len(items), per_leaf):
            chunk = items[start:start + per_leaf]
            page_id = self.allocator.allocate()
            leaf = Node.new_leaf(config, page_id)
            leaf.keys = [key for key, _ in chunk]
            leaf.values = [bytes(value) for _, value in chunk]
            if previous is not None:
                previous.next_id = page_id
                previous.high_key = leaf.keys[0]
                self.device.raw_write(previous.page_id, previous.to_bytes())
            leaves.append((leaf.keys[0], page_id))
            previous = leaf
        self.device.raw_write(previous.page_id, previous.to_bytes())

        # Build inner levels until a single root remains.
        level = 1
        children = leaves
        while len(children) > 1:
            parents = []
            previous = None
            for start in range(0, len(children), per_inner + 1):
                chunk = children[start:start + per_inner + 1]
                if len(chunk) == 1 and parents:
                    # Avoid a single-child node: steal one from the
                    # previous parent instead.
                    prev_first, prev_id = parents[-1]
                    prev_node = previous
                    moved = (prev_node.keys.pop(), prev_node.children.pop())
                    chunk = [(moved[0], moved[1])] + chunk
                page_id = self.allocator.allocate()
                inner = Node.new_inner(config, page_id, level)
                inner.children = [pid for _, pid in chunk]
                inner.keys = [first for first, _ in chunk[1:]]
                if previous is not None:
                    previous.next_id = page_id
                    previous.high_key = chunk[0][0]
                    self.device.raw_write(previous.page_id, previous.to_bytes())
                parents.append((chunk[0][0], page_id))
                previous = inner
            self.device.raw_write(previous.page_id, previous.to_bytes())
            children = parents
            level += 1

        self.meta.root_page = children[0][1]
        self.meta.height = level
        self.meta.key_count = len(items)
        self.meta.next_page = self.allocator.next_page
        self.device.raw_write(self.meta_page, self.meta.to_bytes())

    # ------------------------------------------------------------------
    # offline inspection (tests / recovery)
    # ------------------------------------------------------------------

    def read_node_raw(self, page_id):
        """Parse a node directly from the device (zero time)."""
        return Node.from_bytes(self.config, page_id, self.device.raw_read(page_id))

    def iterate_items_raw(self):
        """Yield all (key, payload) pairs by walking the leaf chain."""
        node = self.read_node_raw(self.meta.root_page)
        while not node.is_leaf:
            node = self.read_node_raw(node.children[0])
        while True:
            for key, value in zip(node.keys, node.values):
                yield key, value
            if node.next_id == NO_PAGE:
                return
            node = self.read_node_raw(node.next_id)

    def validate(self, check_fill=False):
        """Walk the on-media tree and verify structural invariants.

        Returns a dict of statistics.  Raises :class:`TreeError` on the
        first violation.  ``check_fill`` additionally enforces minimum
        fill on nodes off the rightmost spine (the rightmost node of a
        level may legitimately be underfull: bulk loading leaves a
        short tail there, and lazy delete rebalancing tolerates
        underfull rightmost children).
        """
        stats = {"levels": self.meta.height, "nodes": 0, "keys": 0}
        self._validate_subtree(
            self.meta.root_page,
            self.meta.height - 1,
            low=None,
            high=None,
            is_root=True,
            is_rightmost=True,
            stats=stats,
            check_fill=check_fill,
        )
        previous = None
        for key, _value in self.iterate_items_raw():
            if previous is not None and key <= previous:
                raise TreeError("leaf chain keys out of order at %d" % key)
            previous = key
        if stats["keys"] != self.meta.key_count:
            raise TreeError(
                "meta key_count %d != actual %d"
                % (self.meta.key_count, stats["keys"])
            )
        return stats

    def _validate_subtree(
        self, page_id, level, low, high, is_root, is_rightmost, stats, check_fill
    ):
        node = self.read_node_raw(page_id)
        stats["nodes"] += 1
        if node.level != level:
            raise TreeError(
                "page %d: level %d, expected %d" % (page_id, node.level, level)
            )
        if node.is_leaf != (level == 0):
            raise TreeError("page %d: leaf flag inconsistent with level" % page_id)
        for key in node.keys:
            if low is not None and key < low:
                raise TreeError("page %d: key %d below bound %d" % (page_id, key, low))
            if high is not None and key >= high:
                raise TreeError("page %d: key %d >= bound %d" % (page_id, key, high))
        if check_fill and not is_root and not is_rightmost and node.count < node.min_keys:
            raise TreeError(
                "page %d: underfull (%d < %d)" % (page_id, node.count, node.min_keys)
            )
        if node.is_leaf:
            stats["keys"] += node.count
            return
        if node.count + 1 != len(node.children):
            raise TreeError("page %d: child count mismatch" % page_id)
        bounds = [low] + list(node.keys) + [high]
        last = len(node.children) - 1
        for index, child in enumerate(node.children):
            self._validate_subtree(
                child,
                level - 1,
                bounds[index],
                bounds[index + 1],
                is_root=False,
                is_rightmost=is_rightmost and index == last,
                stats=stats,
                check_fill=check_fill,
            )
