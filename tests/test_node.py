"""Unit tests for the B+ tree node format."""

import random

import pytest

from repro.core.node import NO_PAGE, NODE_MAGIC, Node, TreeConfig
from repro.errors import CorruptPageError, TreeError

from cursor_codec import PageWriter


@pytest.fixture
def config():
    return TreeConfig(page_size=512, payload_size=8)


def make_leaf(config, page_id, keys):
    leaf = Node.new_leaf(config, page_id)
    for key in keys:
        leaf.leaf_insert(key, key.to_bytes(8, "little"))
    return leaf


def reference_image(node):
    """The page image written one field at a time, as the layout reads."""
    writer = PageWriter(node.config.page_size)
    writer.u16(NODE_MAGIC)
    writer.u8(node.node_type)
    writer.u8(node.level)
    writer.u16(node.count)
    writer.u16(1 if node.high_key is not None else 0)
    writer.u64(node.page_id)
    writer.u64(node.next_id)
    writer.u64(node.high_key if node.high_key is not None else 0)
    if node.is_leaf:
        for key, value in zip(node.keys, node.values):
            writer.u64(key)
            writer.raw(value)
    else:
        writer.u64(node.children[0])
        for key, child in zip(node.keys, node.children[1:]):
            writer.u64(key)
            writer.u64(child)
    return writer.finish()


def make_inner(config, page_id, level, keys, children):
    inner = Node.new_inner(config, page_id, level)
    inner.keys = list(keys)
    inner.children = list(children)
    return inner


class TestConfig:
    def test_capacities_512(self, config):
        # (512 - 32) / 16 = 30 entries
        assert config.leaf_capacity == 30
        assert config.inner_capacity == 29
        assert config.leaf_min == 15

    def test_large_payload_reduces_fanout(self):
        config = TreeConfig(page_size=512, payload_size=100)
        assert config.leaf_capacity == 4

    def test_too_small_page_rejected(self):
        with pytest.raises(TreeError):
            TreeConfig(page_size=64, payload_size=60)


class TestLeafOps:
    def test_insert_sorted_lookup(self, config):
        leaf = make_leaf(config, 7, [30, 10, 20])
        assert leaf.keys == [10, 20, 30]
        assert leaf.leaf_lookup(20) == (20).to_bytes(8, "little")
        assert leaf.leaf_lookup(15) is None

    def test_insert_overwrites(self, config):
        leaf = make_leaf(config, 7, [5])
        assert leaf.leaf_insert(5, b"new-val!") is False
        assert leaf.leaf_lookup(5) == b"new-val!"
        assert leaf.count == 1

    def test_insert_wrong_payload_size(self, config):
        leaf = Node.new_leaf(config, 1)
        with pytest.raises(TreeError):
            leaf.leaf_insert(1, b"short")

    def test_insert_full_raises(self, config):
        leaf = make_leaf(config, 1, range(config.leaf_capacity))
        with pytest.raises(TreeError):
            leaf.leaf_insert(999, (999).to_bytes(8, "little"))

    def test_delete(self, config):
        leaf = make_leaf(config, 1, [1, 2, 3])
        assert leaf.leaf_delete(2) is True
        assert leaf.leaf_delete(2) is False
        assert leaf.keys == [1, 3]

    def test_range_from(self, config):
        leaf = make_leaf(config, 1, [10, 20, 30])
        assert leaf.leaf_range_from(15) == 1
        assert leaf.leaf_range_from(20) == 1
        assert leaf.leaf_range_from(31) == 3

    def test_collect_reports_whether_the_scan_is_over(self, config):
        leaf = make_leaf(config, 1, [10, 20, 30])
        pairs = list(zip(leaf.keys, leaf.values))
        leaf.next_id = 2

        results = []
        assert leaf.leaf_collect(15, 99, 0, results) is False  # continues right
        assert results == pairs[1:]
        assert leaf.leaf_collect(0, 30, 0, []) is True  # high covered
        results = []
        assert leaf.leaf_collect(0, 99, 2, results) is True  # limit reached
        assert results == pairs[:2]
        leaf.next_id = NO_PAGE
        assert leaf.leaf_collect(15, 99, 0, []) is True  # end of the chain


class TestInnerOps:
    def test_child_routing(self, config):
        inner = make_inner(config, 9, 1, [10, 20], [100, 101, 102])
        assert inner.child_for(5) == 100
        assert inner.child_for(10) == 101  # separator = min of right subtree
        assert inner.child_for(15) == 101
        assert inner.child_for(20) == 102
        assert inner.child_for(99) == 102

    def test_inner_insert(self, config):
        inner = make_inner(config, 9, 1, [10], [100, 101])
        inner.inner_insert(20, 102)
        assert inner.keys == [10, 20]
        assert inner.children == [100, 101, 102]

    def test_inner_insert_duplicate_separator(self, config):
        inner = make_inner(config, 9, 1, [10], [100, 101])
        with pytest.raises(TreeError):
            inner.inner_insert(10, 103)

    def test_remove_child(self, config):
        inner = make_inner(config, 9, 1, [10, 20], [100, 101, 102])
        inner.inner_remove_child(1)
        assert inner.keys == [20]
        assert inner.children == [100, 102]


class TestSplit:
    def test_leaf_split_preserves_all_keys(self, config):
        keys = list(range(0, 60, 2))[: config.leaf_capacity]
        leaf = make_leaf(config, 1, keys)
        leaf.next_id = 77
        right, separator = leaf.split(2)
        assert separator == right.keys[0]
        assert leaf.keys + right.keys == sorted(keys)
        assert leaf.next_id == 2
        assert right.next_id == 77
        assert leaf.high_key == separator

    def test_inner_split_pushes_separator_up(self, config):
        n = config.inner_capacity
        inner = make_inner(config, 1, 2, list(range(n)), list(range(100, 100 + n + 1)))
        right, separator = inner.split(2)
        # separator appears in neither node
        assert separator not in inner.keys
        assert separator not in right.keys
        assert sorted(inner.keys + [separator] + right.keys) == list(range(n))
        assert len(inner.children) == len(inner.keys) + 1
        assert len(right.children) == len(right.keys) + 1

    def test_split_tiny_node_rejected(self, config):
        leaf = make_leaf(config, 1, [5])
        with pytest.raises(TreeError):
            leaf.split(2)


class TestMergeBorrow:
    def test_leaf_merge(self, config):
        left = make_leaf(config, 1, [1, 2])
        right = make_leaf(config, 2, [5, 6])
        right.next_id = 9
        left.next_id = 2
        left.merge_from_right(right, separator=5)
        assert left.keys == [1, 2, 5, 6]
        assert left.next_id == 9

    def test_inner_merge_includes_separator(self, config):
        left = make_inner(config, 1, 1, [10], [100, 101])
        right = make_inner(config, 2, 1, [30], [102, 103])
        left.merge_from_right(right, separator=20)
        assert left.keys == [10, 20, 30]
        assert left.children == [100, 101, 102, 103]

    def test_leaf_borrow_from_right(self, config):
        left = make_leaf(config, 1, [1])
        right = make_leaf(config, 2, [5, 6, 7])
        new_sep = left.borrow_from_right(right, separator=5)
        assert left.keys == [1, 5]
        assert right.keys == [6, 7]
        assert new_sep == 6

    def test_inner_borrow_from_right(self, config):
        left = make_inner(config, 1, 1, [10], [100, 101])
        right = make_inner(config, 2, 1, [30, 40], [102, 103, 104])
        new_sep = left.borrow_from_right(right, separator=20)
        assert left.keys == [10, 20]
        assert left.children == [100, 101, 102]
        assert new_sep == 30
        assert right.keys == [40]


class TestSerialization:
    def test_leaf_roundtrip(self, config):
        leaf = make_leaf(config, 42, [3, 1, 2])
        leaf.next_id = 99
        leaf.high_key = 100
        restored = Node.from_bytes(config, 42, leaf.to_bytes())
        assert restored.keys == [1, 2, 3]
        assert restored.values == leaf.values
        assert restored.next_id == 99
        assert restored.high_key == 100
        assert restored.is_leaf

    def test_inner_roundtrip(self, config):
        inner = make_inner(config, 7, 3, [10, 20], [100, 200, 300])
        restored = Node.from_bytes(config, 7, inner.to_bytes())
        assert restored.keys == [10, 20]
        assert restored.children == [100, 200, 300]
        assert restored.level == 3
        assert not restored.is_leaf
        assert restored.high_key is None

    def test_wrong_page_id_detected(self, config):
        leaf = make_leaf(config, 42, [1])
        with pytest.raises(CorruptPageError):
            Node.from_bytes(config, 43, leaf.to_bytes())

    def test_bad_magic_detected(self, config):
        leaf = make_leaf(config, 42, [1])
        image = bytearray(leaf.to_bytes())
        image[0] = 0
        with pytest.raises(CorruptPageError):
            Node.from_bytes(config, 42, bytes(image))

    def test_out_of_order_keys_detected(self, config):
        leaf = make_leaf(config, 1, [1, 2])
        leaf.keys = [2, 1]  # corrupt in memory
        image = leaf.to_bytes()
        with pytest.raises(CorruptPageError):
            Node.from_bytes(config, 1, image)

    def test_wrong_image_size_detected(self, config):
        with pytest.raises(CorruptPageError):
            Node.from_bytes(config, 1, b"\x00" * 100)

    @pytest.mark.parametrize("page_size, payload_size", [(512, 8), (512, 200), (4096, 24)])
    def test_page_image_equals_the_field_by_field_layout(self, page_size, payload_size):
        # the reference spells the documented layout one field at a time
        config = TreeConfig(page_size, payload_size)
        rng = random.Random(page_size + payload_size)
        nodes = []
        for count in (0, 1, config.leaf_min, config.leaf_capacity):
            leaf = Node.new_leaf(config, rng.randrange(1, 1 << 40))
            leaf.keys = sorted({rng.getrandbits(64) for _ in range(count)})
            leaf.values = [rng.randbytes(payload_size) for _ in leaf.keys]
            nodes.append(leaf)
        for count in (0, 1, config.inner_min, config.inner_capacity):
            inner = Node.new_inner(config, rng.randrange(1, 1 << 40), 1 + count % 3)
            inner.keys = sorted({rng.getrandbits(64) for _ in range(count)})
            inner.children = [rng.randrange(1, 1 << 40) for _ in inner.keys] + [5]
            nodes.append(inner)
        for index, node in enumerate(nodes):
            node.next_id = rng.randrange(1 << 40)
            node.high_key = rng.getrandbits(64) if index % 2 else None
            image = node.to_bytes()
            assert image == reference_image(node)
            restored = Node.from_bytes(config, node.page_id, image)
            for field in Node.__slots__:
                assert getattr(restored, field) == getattr(node, field), field

    def test_corrupt_headers_keep_their_messages(self, config):
        inner = make_inner(config, 7, 1, [10, 20], [100, 200, 300])

        def patched(offset, value):
            image = bytearray(inner.to_bytes())
            image[offset] = value
            return bytes(image)

        for image, message in [
            (patched(1, 0), "page 7: bad magic 0x00e5"),
            (patched(2, 5), "page 7: bad node type 5"),
            (patched(8, 9), "page 7: header claims id 9"),
            (patched(5, 1), "page 7: inner overflow 258"),
            (patched(32 + 8, 99), "page 7: keys out of order"),
        ]:
            with pytest.raises(CorruptPageError) as caught:
                Node.from_bytes(config, 7, image)
            assert str(caught.value) == message
        leaf = make_leaf(config, 7, [1])
        image = bytearray(leaf.to_bytes())
        image[5] = 1
        with pytest.raises(CorruptPageError, match="page 7: leaf overflow 257"):
            Node.from_bytes(config, 7, bytes(image))

    def test_a_payload_of_the_wrong_length_does_not_reach_the_page(self, config):
        # bulk_load assigns values without leaf_insert's length check
        leaf = make_leaf(config, 3, [1, 2])
        leaf.values[1] = b"short"
        with pytest.raises(TreeError, match="not 8 bytes"):
            leaf.to_bytes()

    def test_safety_predicates(self, config):
        leaf = make_leaf(config, 1, range(config.leaf_capacity))
        assert not leaf.is_safe_for_insert()
        assert leaf.is_safe_for_delete()
        small = make_leaf(config, 2, range(config.leaf_min))
        assert small.is_safe_for_insert()
        assert not small.is_safe_for_delete()
