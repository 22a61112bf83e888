"""Batched operation planner: one descent / one latch / one write wave
per target leaf (ROADMAP "batched/vectorized operation pipeline").

A batched operation carries a vector of put/get/delete ``OpSpec``s.
The plan sorts the specs by key once (stable, so duplicate keys replay
in input order), then walks the key space left to right in *leaf
groups*: a single latch-coupled descent finds the leaf owning the
group's first key, the leaf's Blink fence (``high_key``) bounds the
group, and the whole group is applied with the vectorized node helpers
(`leaf_lookup_many` / `leaf_apply_many`) under one latch acquisition.
All page writes of a group go out as one coalesced command vector.

Safety during the exclusive descent generalizes latch coupling: a node
is *safe* when applying the puts/deletes that fall inside the descended
child's key range cannot split or underflow it.  The child range is
refined with each level's separator (``bisect`` into the sorted batch
keys), so upper levels are judged against the handful of keys that can
actually reach them — not the whole remaining batch — and ancestors
release exactly like the single-op plans.  A leaf gaining ``p`` keys
splits into at most ``p`` new siblings, so at most ``p`` separators
reach each ancestor; a delete removes at most one child per level.
Overflow is handled by an n-way split (balanced chunks, Blink chain
preserved, separators batch-inserted into the retained parent, root
growth by whole levels); underflow runs :func:`rebalance`, the one
right-sibling merge / borrow / root-shrink loop the single-op delete
plan runs too.

This module sits below :mod:`repro.core.plans`, which imports the two
steps both kinds of plan share: :func:`descend_shared` and
:func:`rebalance`.  Like every plan, the batch plan only yields
effects — pages come from ``AllocEff`` and go back through ``FreeEff``
— so both interpreters (the polled engine and the blocking
``SyncTreeAccessor``) run it.
"""

import bisect

from repro.core.latch import EXCLUSIVE, SHARED
from repro.core.node import Node
from repro.core.ops import (
    AllocEff,
    ChargeEff,
    CoupleEff,
    DELETE,
    FreeEff,
    GET,
    LatchEff,
    PUT,
    ReadEff,
    UnlatchEff,
    UnlatchManyEff,
    WriteEff,
)
from repro.errors import TreeError
from repro.sim.metrics import CPU_REAL_WORK


def vector_cost_ns(unit_ns, count):
    """Amortized CPU cost of a ``count``-wide vectorized step.

    The first element pays the full per-op price; each further element
    pays a quarter — the constant-factor saving of slicing/bisecting
    over parallel lists instead of re-entering the op state machine.
    """
    if count <= 0:
        return 0
    return unit_ns + (count - 1) * (unit_ns // 4)


def batch_plan(op, tree):
    """Coroutine implementing one batched operation against ``tree``."""
    specs = op.specs or []
    n = len(specs)
    results = [None] * n
    op.result = results
    op.groups = 0
    if n == 0:
        return
    order = sorted(range(n), key=lambda i: specs[i].key)
    skeys = [specs[i].key for i in order]
    # Prefix counts of structural verbs over the sorted batch, so any
    # subrange's put/delete totals are two subtractions.
    pre_put = [0] * (n + 1)
    pre_del = [0] * (n + 1)
    for j in range(n):
        verb = specs[order[j]].verb
        pre_put[j + 1] = pre_put[j] + (1 if verb == PUT else 0)
        pre_del[j + 1] = pre_del[j] + (1 if verb == DELETE else 0)
    read_only = pre_put[n] == 0 and pre_del[n] == 0

    pos = 0
    while pos < n:
        op.cursor = order[pos]  # failing-key attribution on abort
        if read_only:
            pos = yield from _read_group(tree, specs, order, skeys, pos, results)
        else:
            pos = yield from _update_group(
                tree, specs, order, skeys, pre_put, pre_del, pos, results
            )
        op.groups += 1
    op.cursor = -1


def _group_end(skeys, pos, high_key):
    """Sorted-batch index one past the last key owned by this leaf."""
    if high_key is None:
        return len(skeys)
    return bisect.bisect_left(skeys, high_key, pos)


# ----------------------------------------------------------------------
# read-only groups (pure get batches): shared-latch coupling
# ----------------------------------------------------------------------


def descend_shared(tree, key, leaf_mode=SHARED):
    """Shared-latch coupled descent to the leaf owning ``key``.

    Couples parent -> child from the meta page down, one ``CoupleEff``
    a level, releasing each parent as soon as the child latch is
    granted.  The leaf is latched in ``leaf_mode``, chosen from the
    tree's height before its node is read.  Returns the leaf, its
    latch still held: the caller releases it.
    """
    meta_page = tree.meta_page
    yield LatchEff(meta_page, SHARED)
    prev = meta_page
    page_id = tree.meta.root_page
    level = tree.meta.height - 1
    while True:
        node = yield CoupleEff(
            page_id, leaf_mode if level == 0 else SHARED, prev
        )
        if node.is_leaf:
            return node
        prev = page_id
        page_id = node.child_for(key)
        level -= 1


def _read_group(tree, specs, order, skeys, pos, results):
    costs = tree.costs
    node = yield from descend_shared(tree, skeys[pos])
    end = _group_end(skeys, pos, node.high_key)
    count = end - pos
    yield ChargeEff(vector_cost_ns(costs.leaf_update_ns, count), CPU_REAL_WORK)
    values = node.leaf_lookup_many(skeys[pos:end])
    for offset in range(count):
        results[order[pos + offset]] = values[offset]
    yield UnlatchEff(node.page_id)
    return end


# ----------------------------------------------------------------------
# mixed groups: exclusive descent with range-bounded safety
# ----------------------------------------------------------------------


def _update_group(tree, specs, order, skeys, pre_put, pre_del, pos, results):
    costs = tree.costs
    key = skeys[pos]
    meta_page = tree.meta_page
    yield LatchEff(meta_page, EXCLUSIVE)
    path_ids = [meta_page]
    path_nodes = [None]
    page_id = tree.meta.root_page
    hi = len(skeys)
    end = hi
    while True:
        node = yield CoupleEff(page_id, EXCLUSIVE)
        if node.is_leaf:
            end = _group_end(skeys, pos, node.high_key)
            lo_bound, hi_bound = pos, end
        else:
            child_index = node.child_index_for(key)
            if child_index < node.count:
                hi = bisect.bisect_left(skeys, node.keys[child_index], pos, hi)
            lo_bound, hi_bound = pos, hi
        puts = pre_put[hi_bound] - pre_put[lo_bound]
        dels = pre_del[hi_bound] - pre_del[lo_bound]
        safe = (
            node.count + puts <= node.capacity
            and node.count - dels >= node.min_keys
        )
        if safe:
            yield UnlatchManyEff(path_ids)
            path_ids = [page_id]
            path_nodes = [node]
        else:
            path_ids.append(page_id)
            path_nodes.append(node)
        if node.is_leaf:
            break
        page_id = node.child_for(key)

    leaf = path_nodes[-1]
    count = end - pos
    yield ChargeEff(vector_cost_ns(costs.leaf_update_ns, count), CPU_REAL_WORK)
    changes, inserted, removed = _replay_group(
        leaf, specs, order, skeys, pos, end, results
    )
    tree.meta.key_count += inserted - removed
    if not changes:
        yield UnlatchManyEff(path_ids)
        return end

    merged_keys, merged_values = leaf.leaf_apply_many(changes)
    dirty = {}
    new_nodes = []
    write_meta = False
    if len(merged_keys) <= leaf.capacity:
        leaf.keys = merged_keys
        leaf.values = merged_values
        dirty[leaf.page_id] = leaf
        if leaf.count < leaf.min_keys:
            write_meta = yield from rebalance(tree, path_nodes, leaf, dirty)
    else:
        write_meta = yield from _multi_split(
            tree, path_nodes, leaf, merged_keys, merged_values, new_nodes, dirty
        )
        yield ChargeEff(
            vector_cost_ns(costs.split_ns, len(new_nodes)), CPU_REAL_WORK
        )
    if new_nodes:
        yield WriteEff(new_nodes, coalesce=True)
    yield WriteEff(list(dirty.values()), write_meta=write_meta, coalesce=True)
    yield UnlatchManyEff(path_ids)
    return end


def _replay_group(leaf, specs, order, skeys, pos, end, results):
    """Replay the group's specs against the leaf, input order per key.

    Fills per-spec results and returns ``(changes, inserted, removed)``
    where ``changes`` is the sorted (key, payload-or-None) vector for
    :meth:`Node.leaf_apply_many`.
    """
    changes = []
    inserted = 0
    removed = 0
    payload_size = leaf.config.payload_size
    j = pos
    while j < end:
        key = skeys[j]
        k = j
        while k < end and skeys[k] == key:
            k += 1
        base = leaf.leaf_lookup(key)
        present = base is not None
        value = base
        structural = False
        for m in range(j, k):
            index = order[m]
            spec = specs[index]
            if spec.verb == GET:
                results[index] = value
            elif spec.verb == PUT:
                if len(spec.payload) != payload_size:
                    raise TreeError(
                        "payload %d bytes != configured %d"
                        % (len(spec.payload), payload_size)
                    )
                results[index] = not present
                present = True
                value = bytes(spec.payload)
                structural = True
            else:  # DELETE
                results[index] = present
                present = False
                value = None
                structural = True
        if structural:
            if present:
                changes.append((key, value))
                if base is None:
                    inserted += 1
            elif base is not None:
                changes.append((key, None))
                removed += 1
        j = k
    return changes, inserted, removed


# ----------------------------------------------------------------------
# structure modifications
# ----------------------------------------------------------------------


def _balanced_chunks(total, capacity):
    """Sizes of ``ceil(total/capacity)`` near-equal chunks.

    Balanced distribution keeps every piece at least half full, so an
    n-way split never creates an immediately-underfull sibling.
    """
    pieces = (total + capacity - 1) // capacity
    base = total // pieces
    extra = total - base * pieces
    return [base + 1] * extra + [base] * (pieces - extra)


def _multi_split(tree, path_nodes, leaf, merged_keys, merged_values, new_nodes, dirty):
    """Distribute an overflowing merge across n leaves, cascade up."""
    config = tree.config
    chunks = _balanced_chunks(len(merged_keys), config.leaf_capacity)
    old_next = leaf.next_id
    old_high = leaf.high_key
    first = chunks[0]
    leaf.keys = merged_keys[:first]
    leaf.values = merged_values[:first]
    dirty[leaf.page_id] = leaf
    seps = []
    start = first
    prev = leaf
    for size in chunks[1:]:
        right_id = yield AllocEff()
        right = Node.new_leaf(config, right_id)
        right.keys = merged_keys[start:start + size]
        right.values = merged_values[start:start + size]
        prev.next_id = right_id
        prev.high_key = right.keys[0]
        seps.append((right.keys[0], right_id))
        new_nodes.append(right)
        prev = right
        start += size
    prev.next_id = old_next
    prev.high_key = old_high

    # Cascade the separator vector up the retained path.
    child = leaf
    index = len(path_nodes) - 2
    while seps:
        parent = path_nodes[index] if index >= 0 else None
        if parent is None:
            return (yield from _grow_root(tree, child, seps, new_nodes))
        child_slot = parent.children.index(child.page_id)
        parent.keys[child_slot:child_slot] = [k for k, _ in seps]
        parent.children[child_slot + 1:child_slot + 1] = [p for _, p in seps]
        dirty[parent.page_id] = parent
        if parent.count <= config.inner_capacity:
            return False
        seps = yield from _split_inner(parent, new_nodes)
        child = parent
        index -= 1
    return False


def _split_inner(parent, new_nodes):
    """n-way split of an overflowing inner node; returns up-separators."""
    config = parent.config
    entries = list(zip([None] + parent.keys, parent.children))
    chunks = _balanced_chunks(len(entries), config.inner_capacity + 1)
    old_next = parent.next_id
    old_high = parent.high_key
    head = entries[:chunks[0]]
    parent.keys = [k for k, _ in head[1:]]
    parent.children = [p for _, p in head]
    seps = []
    start = chunks[0]
    prev = parent
    for size in chunks[1:]:
        piece = entries[start:start + size]
        inner_id = yield AllocEff()
        inner = Node.new_inner(config, inner_id, parent.level)
        inner.keys = [k for k, _ in piece[1:]]
        inner.children = [p for _, p in piece]
        prev.next_id = inner_id
        prev.high_key = piece[0][0]
        seps.append((piece[0][0], inner_id))
        new_nodes.append(inner)
        prev = inner
        start += size
    prev.next_id = old_next
    prev.high_key = old_high
    return seps


def _grow_root(tree, old_root, seps, new_nodes):
    """Grow the tree by whole levels until one root covers the seps."""
    config = tree.config
    entries = [(None, old_root.page_id)] + seps
    level = old_root.level
    while len(entries) > 1:
        level += 1
        chunks = _balanced_chunks(len(entries), config.inner_capacity + 1)
        next_entries = []
        prev = None
        start = 0
        for size in chunks:
            piece = entries[start:start + size]
            inner_id = yield AllocEff()
            inner = Node.new_inner(config, inner_id, level)
            inner.keys = [k for k, _ in piece[1:]]
            inner.children = [p for _, p in piece]
            if prev is not None:
                prev.next_id = inner_id
                prev.high_key = piece[0][0]
            next_entries.append((piece[0][0], inner_id))
            new_nodes.append(inner)
            prev = inner
            start += size
        entries = next_entries
    tree.meta.root_page = entries[0][1]
    tree.meta.height = level + 1
    return True


def rebalance(tree, path_nodes, leaf, dirty):
    """Cure an underfull ``leaf`` under its retained, exclusively
    latched path; returns True when the meta page must be rewritten.

    Merges with or borrows from the *right* sibling only, one level at
    a time up ``path_nodes`` (index 0 is the topmost retained node,
    ``None`` for the meta page), then shrinks a root that decayed to a
    single child.  Touched nodes land in ``dirty``; freed pages leave
    it.  The single-op delete plan and the batch plan both run this.
    """
    costs = tree.costs
    write_meta = False
    index = len(path_nodes) - 1
    current = leaf
    while current.count < current.min_keys:
        parent = path_nodes[index - 1] if index >= 1 else None
        if parent is None:
            break  # current is the root (or the retained top): tolerate
        child_index = parent.children.index(current.page_id)
        if child_index == parent.count:
            break  # rightmost child: tolerate underflow (lazy deletion)
        right_id = parent.children[child_index + 1]
        yield LatchEff(right_id, EXCLUSIVE)
        right = yield ReadEff(right_id)
        separator = parent.keys[child_index]
        yield ChargeEff(costs.merge_ns, CPU_REAL_WORK)
        if current.can_merge_with(right):
            current.merge_from_right(right, separator)
            parent.inner_remove_child(child_index + 1)
            yield UnlatchEff(right_id)
            yield FreeEff(right_id)
            dirty.pop(right_id, None)
            dirty[current.page_id] = current
            dirty[parent.page_id] = parent
            current = parent
            index -= 1
        else:
            # move enough entries to balance the two siblings
            moves = max(1, (right.count - current.count) // 2)
            new_separator = separator
            for _ in range(moves):
                new_separator = current.borrow_from_right(right, new_separator)
            parent.keys[child_index] = new_separator
            dirty[current.page_id] = current
            dirty[right_id] = right
            dirty[parent.page_id] = parent
            yield UnlatchEff(right_id)
            break

    # Shrink the root when it decayed to a single child.
    root = (
        path_nodes[1]
        if path_nodes[0] is None and len(path_nodes) > 1
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
        yield FreeEff(root.page_id)
    return write_meta
