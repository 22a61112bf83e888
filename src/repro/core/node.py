"""B+ tree node format and in-memory representation.

Nodes are serialized into fixed-size pages (512 bytes by default — the
NVMe minimal access granularity the paper chooses as its node size).

On-page layout (little-endian)::

    header (32 bytes):
        magic     u16   0xBEE5
        type      u8    0 = leaf, 1 = inner
        level     u8    0 for leaves, parent level = child level + 1
        count     u16   number of keys
        flags     u16   bit 0: high_key valid (Blink-tree right-link fence)
        page_id   u64   own id, validated on load
        next_id   u64   right sibling (leaf chain / Blink right-link); 0 = none
        high_key  u64   Blink-tree fence key (valid iff flag set)
    leaf body:   count * (key u64 | payload bytes[payload_size])
    inner body:  child0 u64, then count * (key u64 | child u64)

An inner node with keys ``k1..kn`` and children ``c0..cn`` routes a
lookup of key ``k`` to ``c_i`` where ``i`` is the number of ``k_j <= k``
(separator keys are the minimum key of the right subtree).
"""

import bisect
from functools import lru_cache
from itertools import islice
from operator import ge
from struct import Struct

from repro.errors import CorruptPageError, TreeError

NODE_MAGIC = 0xBEE5
LEAF = 0
INNER = 1

FLAG_HIGH_KEY = 1

_HEADER = Struct("<HBBHHQQQ")
HEADER_SIZE = _HEADER.size
NO_PAGE = 0


@lru_cache(maxsize=None)
def _body_struct(node_type, count, payload_size):
    """The compiled body layout of a node with ``count`` keys.

    One entry per node type, key count and payload size in use: a few
    hundred at most.
    """
    if node_type == LEAF:
        return Struct("<" + ("Q%ds" % payload_size) * count)
    return Struct("<%dQ" % (2 * count + 1))


class TreeConfig:
    """Geometry of one tree: page size, payload size, fan-outs."""

    __slots__ = (
        "page_size",
        "payload_size",
        "leaf_capacity",
        "inner_capacity",
        "leaf_min",
        "inner_min",
    )

    def __init__(self, page_size=512, payload_size=8):
        if payload_size < 1:
            raise TreeError("payload_size must be positive")
        leaf_capacity = (page_size - HEADER_SIZE) // (8 + payload_size)
        inner_capacity = (page_size - HEADER_SIZE - 8) // 16
        if leaf_capacity < 2 or inner_capacity < 2:
            raise TreeError(
                "page size %d too small for payload %d" % (page_size, payload_size)
            )
        self.page_size = page_size
        self.payload_size = payload_size
        self.leaf_capacity = leaf_capacity
        self.inner_capacity = inner_capacity
        self.leaf_min = leaf_capacity // 2
        self.inner_min = inner_capacity // 2

    def __repr__(self):
        return "TreeConfig(page=%d, payload=%d, leaf_cap=%d, inner_cap=%d)" % (
            self.page_size,
            self.payload_size,
            self.leaf_capacity,
            self.inner_capacity,
        )


class Node:
    """In-memory node; (de)serializes to a page image."""

    __slots__ = (
        "config",
        "page_id",
        "node_type",
        "level",
        "keys",
        "values",
        "children",
        "next_id",
        "high_key",
    )

    def __init__(self, config, page_id, node_type, level=0):
        self.config = config
        self.page_id = page_id
        self.node_type = node_type
        self.level = level
        self.keys = []
        self.values = [] if node_type == LEAF else None
        self.children = [] if node_type == INNER else None
        self.next_id = NO_PAGE
        self.high_key = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def new_leaf(cls, config, page_id):
        return cls(config, page_id, LEAF, level=0)

    @classmethod
    def new_inner(cls, config, page_id, level):
        if level < 1:
            raise TreeError("inner node level must be >= 1")
        return cls(config, page_id, INNER, level=level)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------

    @property
    def is_leaf(self):
        return self.node_type == LEAF

    @property
    def count(self):
        return len(self.keys)

    @property
    def capacity(self):
        if self.is_leaf:
            return self.config.leaf_capacity
        return self.config.inner_capacity

    @property
    def min_keys(self):
        if self.is_leaf:
            return self.config.leaf_min
        return self.config.inner_min

    @property
    def is_full(self):
        return self.count >= self.capacity

    def is_safe_for_insert(self):
        """True when an insert below cannot split this node."""
        return self.count < self.capacity

    def is_safe_for_delete(self):
        """True when a delete below cannot underflow this node."""
        return self.count > self.min_keys

    # ------------------------------------------------------------------
    # leaf operations
    # ------------------------------------------------------------------

    def leaf_lookup(self, key):
        """Payload bytes for ``key``, or None."""
        index = bisect.bisect_left(self.keys, key)
        if index < len(self.keys) and self.keys[index] == key:
            return self.values[index]
        return None

    def leaf_insert(self, key, payload):
        """Insert or overwrite; returns True when the key was new."""
        if len(payload) != self.config.payload_size:
            raise TreeError(
                "payload %d bytes != configured %d"
                % (len(payload), self.config.payload_size)
            )
        index = bisect.bisect_left(self.keys, key)
        if index < len(self.keys) and self.keys[index] == key:
            self.values[index] = bytes(payload)
            return False
        if self.is_full:
            raise TreeError("insert into full leaf %d" % self.page_id)
        self.keys.insert(index, key)
        self.values.insert(index, bytes(payload))
        return True

    def leaf_delete(self, key):
        """Remove ``key``; returns True when it was present."""
        index = bisect.bisect_left(self.keys, key)
        if index < len(self.keys) and self.keys[index] == key:
            del self.keys[index]
            del self.values[index]
            return True
        return False

    def leaf_range_from(self, low):
        """Index of the first key >= low (for range scans)."""
        return bisect.bisect_left(self.keys, low)

    def leaf_collect(self, low, high, limit, results):
        """One leaf's step of a range scan over ``[low, high]``.

        Appends this leaf's ``(key, payload)`` pairs in range to
        ``results`` and returns True when the scan is over — ``limit``
        (0 = none) reached, ``high`` covered, or no right sibling —
        and False when it continues at ``next_id``.
        """
        keys = self.keys
        index = self.leaf_range_from(low)
        while index < len(keys) and keys[index] <= high:
            results.append((keys[index], self.values[index]))
            index += 1
            if limit and len(results) >= limit:
                return True
        exhausted = len(keys) > 0 and keys[-1] >= high
        return exhausted or self.next_id == NO_PAGE

    # ------------------------------------------------------------------
    # vectorized leaf operations (batch pipeline)
    # ------------------------------------------------------------------

    def leaf_lookup_many(self, keys):
        """Payloads for a sorted key vector; None where absent.

        Each probe resumes the bisect from the previous hit, so a
        group lookup is one monotone sweep instead of ``len(keys)``
        independent searches.
        """
        out = []
        own = self.keys
        lo = 0
        for key in keys:
            lo = bisect.bisect_left(own, key, lo)
            if lo < len(own) and own[lo] == key:
                out.append(self.values[lo])
            else:
                out.append(None)
        return out

    def leaf_apply_many(self, changes):
        """Merge sorted ``(key, payload-or-None)`` changes in one pass.

        ``None`` deletes the key; a payload upserts it.  Returns the
        merged ``(keys, values)`` lists WITHOUT mutating the node, so
        the caller can decide how to distribute an overflow across
        split siblings (or detect underflow) before committing.
        """
        out_keys = []
        out_values = []
        old_keys = self.keys
        old_values = self.values
        lo = 0
        for key, value in changes:
            hi = bisect.bisect_left(old_keys, key, lo)
            out_keys += old_keys[lo:hi]
            out_values += old_values[lo:hi]
            if hi < len(old_keys) and old_keys[hi] == key:
                hi += 1
            if value is not None:
                out_keys.append(key)
                out_values.append(bytes(value))
            lo = hi
        out_keys += old_keys[lo:]
        out_values += old_values[lo:]
        return out_keys, out_values

    # ------------------------------------------------------------------
    # inner operations
    # ------------------------------------------------------------------

    def child_index_for(self, key):
        return bisect.bisect_right(self.keys, key)

    def child_for(self, key):
        """Page id of the child subtree that may contain ``key``."""
        return self.children[self.child_index_for(key)]

    def inner_insert(self, sep_key, right_child):
        """Insert a separator/right-child produced by a child split."""
        if self.is_full:
            raise TreeError("insert into full inner node %d" % self.page_id)
        index = bisect.bisect_left(self.keys, sep_key)
        if index < len(self.keys) and self.keys[index] == sep_key:
            raise TreeError("duplicate separator %d" % sep_key)
        self.keys.insert(index, sep_key)
        self.children.insert(index + 1, right_child)

    def inner_remove_child(self, child_index):
        """Remove child at ``child_index`` and its separator (merge)."""
        if child_index == 0:
            del self.keys[0]
            del self.children[0]
        else:
            del self.keys[child_index - 1]
            del self.children[child_index]

    # ------------------------------------------------------------------
    # splits
    # ------------------------------------------------------------------

    def split(self, new_page_id):
        """Split off the upper half into a new node.

        Returns ``(new_node, separator_key)``.  For a leaf the
        separator is the new node's first key (it stays in the leaf);
        for an inner node the separator moves up and leaves both nodes.
        """
        if self.count < 2:
            raise TreeError("splitting node with <2 keys")
        mid = self.count // 2
        if self.is_leaf:
            new_node = Node.new_leaf(self.config, new_page_id)
            new_node.keys = self.keys[mid:]
            new_node.values = self.values[mid:]
            del self.keys[mid:]
            del self.values[mid:]
            separator = new_node.keys[0]
            new_node.next_id = self.next_id
            self.next_id = new_page_id
            new_node.high_key = self.high_key
            self.high_key = separator
        else:
            new_node = Node.new_inner(self.config, new_page_id, self.level)
            separator = self.keys[mid]
            new_node.keys = self.keys[mid + 1:]
            new_node.children = self.children[mid + 1:]
            del self.keys[mid:]
            del self.children[mid + 1:]
            new_node.next_id = self.next_id
            self.next_id = new_page_id
            new_node.high_key = self.high_key
            self.high_key = separator
        return new_node, separator

    # ------------------------------------------------------------------
    # merge / borrow (delete rebalancing)
    # ------------------------------------------------------------------

    def can_merge_with(self, right):
        """True when absorbing ``right`` fits in this node.

        An inner merge also pulls the separator key down from the
        parent, so it needs one extra key slot.
        """
        extra = 0 if self.is_leaf else 1
        return self.count + right.count + extra <= self.capacity

    def merge_from_right(self, right, separator):
        """Absorb ``right`` (the immediate right sibling)."""
        if self.is_leaf != right.is_leaf:
            raise TreeError("merging mismatched node types")
        if not self.can_merge_with(right):
            raise TreeError("merge would overflow node %d" % self.page_id)
        if self.is_leaf:
            self.keys.extend(right.keys)
            self.values.extend(right.values)
        else:
            self.keys.append(separator)
            self.keys.extend(right.keys)
            self.children.extend(right.children)
        self.next_id = right.next_id
        self.high_key = right.high_key

    def borrow_from_right(self, right, separator):
        """Move one entry from the right sibling; returns new separator."""
        if self.is_leaf:
            self.keys.append(right.keys.pop(0))
            self.values.append(right.values.pop(0))
            new_separator = right.keys[0]
        else:
            self.keys.append(separator)
            self.children.append(right.children.pop(0))
            new_separator = right.keys.pop(0)
        self.high_key = new_separator
        return new_separator

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_bytes(self):
        config = self.config
        count = len(self.keys)
        high_key = self.high_key
        if self.is_leaf:
            body = [None] * (2 * count)
            body[0::2] = self.keys
            body[1::2] = self.values
            if len(b"".join(self.values)) != count * config.payload_size:
                raise TreeError(
                    "leaf %d holds a payload that is not %d bytes"
                    % (self.page_id, config.payload_size)
                )
        else:
            body = [None] * (2 * count + 1)
            body[0::2] = self.children
            body[1::2] = self.keys
        image = _HEADER.pack(
            NODE_MAGIC,
            self.node_type,
            self.level,
            count,
            FLAG_HIGH_KEY if high_key is not None else 0,
            self.page_id,
            self.next_id,
            high_key if high_key is not None else 0,
        ) + _body_struct(self.node_type, count, config.payload_size).pack(*body)
        if len(image) > config.page_size:
            raise ValueError(
                "page overflow: %d > %d" % (len(image), config.page_size)
            )
        return image.ljust(config.page_size, b"\0")

    @classmethod
    def from_bytes(cls, config, page_id, image):
        if len(image) != config.page_size:
            raise CorruptPageError(
                "page image is %d bytes, expected %d" % (len(image), config.page_size)
            )
        (
            magic, node_type, level, count, flags, stored_id, next_id, high_key
        ) = _HEADER.unpack_from(image)
        if magic != NODE_MAGIC:
            raise CorruptPageError(
                "page %d: bad magic 0x%04x" % (page_id, magic)
            )
        if node_type not in (LEAF, INNER):
            raise CorruptPageError("page %d: bad node type %d" % (page_id, node_type))
        if stored_id != page_id:
            raise CorruptPageError(
                "page %d: header claims id %d" % (page_id, stored_id)
            )
        node = cls(config, page_id, node_type, level)
        node.next_id = next_id
        node.high_key = high_key if flags & FLAG_HIGH_KEY else None
        if node_type == LEAF:
            if count > config.leaf_capacity:
                raise CorruptPageError("page %d: leaf overflow %d" % (page_id, count))
        elif count > config.inner_capacity:
            raise CorruptPageError("page %d: inner overflow %d" % (page_id, count))
        body = _body_struct(node_type, count, config.payload_size).unpack_from(
            image, HEADER_SIZE
        )
        if node_type == LEAF:
            keys = node.keys = list(body[0::2])
            node.values = list(body[1::2])
        else:
            node.children = list(body[0::2])
            keys = node.keys = list(body[1::2])
        if any(map(ge, keys, islice(keys, 1, None))):
            raise CorruptPageError("page %d: keys out of order" % page_id)
        return node

    def __repr__(self):
        kind = "leaf" if self.is_leaf else "inner(l%d)" % self.level
        return "Node(%s #%d, %d keys)" % (kind, self.page_id, self.count)
