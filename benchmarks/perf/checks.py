"""Output check: run after the timed phase, never inside it.

Every returned and every stored payload must be what the workload's
payload function gives for its key.  Operations overlap (a window of
callers, 32 threads, four shards), so the checks are written to hold
under any legal interleaving: a read may see an overlapping write or
not, but it may never miss a write that finished before the read was
admitted, nor see one admitted after the read was done.
"""

import bisect

from repro.errors import ReproError
from repro.core.ops import BATCH, DELETE, GET, INSERT, PUT, RANGE, SEARCH, UPDATE
from repro.workloads import payload_for

#: the YCSB generator overwrites key k with the payload of k ^ this
UPDATE_XOR = 0x5A5A

#: failures are counted in full but only this many are described
MAX_MESSAGES = 10


class Failures:
    """Counts violations; keeps the first few descriptions."""

    def __init__(self):
        self.count = 0
        self.messages = []

    def add(self, message):
        self.count += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)


def updated_payload(key):
    return payload_for(key ^ UPDATE_XOR)


def check_errors(rig, failures):
    """Operations that carry a typed error failed, whatever they returned."""
    for op in rig.operations:
        if op.error is not None:
            failures.add("%r failed: %r" % (op, op.error))
        elif op.done_ns is None:
            failures.add("%r never completed" % (op,))


def _write_windows(operations):
    """Per updated key: (earliest admit, earliest done) over its updates."""
    windows = {}
    for op in operations:
        if op.kind != UPDATE or op.error is not None:
            continue
        seen = windows.get(op.key)
        if seen is None:
            windows[op.key] = (op.admit_ns, op.done_ns)
        else:
            windows[op.key] = (min(seen[0], op.admit_ns), min(seen[1], op.done_ns))
    return windows


def check_ycsb(rig, items, failures):
    """Gets, updates, inserts and scans over the preloaded population."""
    preload = rig.preload
    updates = _write_windows(rig.operations)
    inserted = {
        op.key for op in rig.operations
        if op.kind == INSERT and op.error is None
    }
    preload_keys = sorted(preload)

    def legal(key, admit_ns, done_ns):
        """Payloads a read of ``key`` over [admit, done] may return."""
        window = updates.get(key)
        if window is None or window[0] >= done_ns:
            return (preload[key],)
        if window[1] <= admit_ns:
            return (updated_payload(key),)
        return (preload[key], updated_payload(key))

    for op in rig.operations:
        if op.error is not None or op.done_ns is None:
            continue
        if op.kind == SEARCH:
            if op.result not in legal(op.key, op.admit_ns, op.done_ns):
                failures.add("get(%d) returned %r" % (op.key, op.result))
        elif op.kind in (UPDATE, INSERT):
            if op.result is not True:
                failures.add("%s(%d) returned %r" % (op.kind, op.key, op.result))
        elif op.kind == RANGE:
            _check_scan(op, preload, preload_keys, inserted, failures)

    expected = dict(preload)
    for key in updates:
        expected[key] = updated_payload(key)
    for key in inserted:
        expected[key] = payload_for(key)
    _check_media(expected, items, failures)


def _check_scan(op, preload, preload_keys, inserted, failures):
    rows = op.result
    keys = [key for key, _ in rows]
    if keys != sorted(set(keys)) or (op.limit and len(rows) > op.limit):
        failures.add("scan(%d) rows unsorted, repeated or over limit" % op.key)
        return
    for key, payload in rows:
        if not op.key <= key <= op.high_key:
            failures.add("scan(%d) returned key %d out of range" % (op.key, key))
            return
        if key in preload:
            if payload not in (preload[key], updated_payload(key)):
                failures.add("scan(%d) payload of %d is %r" % (op.key, key, payload))
                return
        elif key not in inserted or payload != payload_for(key):
            failures.add("scan(%d) returned unknown row %d" % (op.key, key))
            return
    # preloaded keys are never deleted, so those in range must all be
    # there, in order, until the limit cuts the result short
    low = bisect.bisect_left(preload_keys, op.key)
    high = bisect.bisect_right(preload_keys, op.high_key)
    wanted = preload_keys[low:high]
    seen = [key for key in keys if key in preload]
    cut_short = op.limit and len(rows) >= op.limit
    if seen != wanted[:len(seen)] or (not cut_short and len(seen) != len(wanted)):
        failures.add("scan(%d) skipped a preloaded key" % op.key)


def check_batch(rig, items, failures):
    """put/get/delete spec vectors: payloads, and per-key presence sums.

    Batches overlap, so which of two batches reached a key first is not
    fixed; what is fixed is that a key's initial presence plus the puts
    that reported *new* minus the deletes that reported *present* equals
    its final presence.
    """
    balance = {key: 1 for key in rig.preload}
    touched = set(rig.preload)
    for op in rig.operations:
        if op.kind != BATCH or op.error is not None or op.done_ns is None:
            continue
        if len(op.result) != len(op.specs):
            failures.add("%r returned %d results" % (op, len(op.result)))
            continue
        for spec, value in zip(op.specs, op.result):
            key = spec.key
            if spec.verb == GET:
                if value is not None and value != payload_for(key):
                    failures.add("get(%d) returned %r" % (key, value))
            elif spec.verb == PUT:
                touched.add(key)
                if value is True:
                    balance[key] = balance.get(key, 0) + 1
                elif value is not False:
                    failures.add("put(%d) returned %r" % (key, value))
            elif spec.verb == DELETE:
                if value is True:
                    balance[key] = balance.get(key, 0) - 1
                elif value is not False:
                    failures.add("delete(%d) returned %r" % (key, value))
    expected = {
        key: payload_for(key) for key in touched if balance.get(key, 0) == 1
    }
    for key, count in balance.items():
        if count not in (0, 1):
            failures.add("key %d presence sums to %d" % (key, count))
    _check_media(expected, items, failures)


def _check_media(expected, items, failures):
    """The stored item set equals the model, key by key."""
    stored = {}
    for key, payload in items:
        if key in stored:
            failures.add("key %d stored twice" % key)
        stored[key] = bytes(payload)
    for key in expected.keys() - stored.keys():
        failures.add("key %d missing from the media" % key)
    for key in stored.keys() - expected.keys():
        failures.add("key %d on the media was never written" % key)
    for key in expected.keys() & stored.keys():
        if stored[key] != expected[key]:
            failures.add("key %d stored as %r" % (key, stored[key]))


def check_open_loop(source, failures):
    """The source drained and the system kept up with the offered rate."""
    if not source.exhausted():
        failures.add("open-loop source did not drain")
    backlog = source.backlog_at_last_arrival()
    if backlog > max(64, len(source.operations) // 20):
        failures.add(
            "open loop fell behind: %d of %d operations unfinished when "
            "the last one was due" % (backlog, len(source.operations))
        )
    return backlog


def run_checks(rig, failures):
    """Everything after the timed phase; returns the stored item list."""
    check_errors(rig, failures)
    rig.finish()
    try:
        rig.validate()
    except ReproError as exc:  # a violated invariant is a failed output
        failures.add("validate() raised %r" % (exc,))
    items = [(key, bytes(payload)) for key, payload in rig.media_items()]
    if rig.kind == "batch":
        check_batch(rig, items, failures)
    else:
        check_ycsb(rig, items, failures)
    return items
