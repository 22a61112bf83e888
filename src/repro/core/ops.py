"""Index operations and their state machines (paper §III-A).

Each index operation is decomposed into a finite sequence of
transitions.  We express the transition graph as a Python generator
that yields *effects* — latch requests, page reads, page writes, CPU
charges — to the working-thread engine.  Between effects the operation
is in a ready state; an effect that cannot complete immediately parks
the operation in a waiting state:

* ``IO_WAIT``    — waiting for the completion of submitted I/O
                   commands (detected by the working thread's probe),
* ``LATCH_WAIT`` — waiting in a node's FIFO pending-latch queue.

The generator expression of the state machine is exactly equivalent to
the paper's explicit state graph (Fig 5): every ``yield`` is a state,
active transitions are the engine resuming the generator, passive
transitions are I/O completion callbacks / latch grants moving the
operation back into the ready set.  The synchronous baselines serve the
same effects with blocking calls (:mod:`repro.baselines.sync_tree`).
The LSM plans (:mod:`repro.baselines.lsm.levels`) speak the same
vocabulary; ``MaintainEff`` and ``RetireEff`` are theirs alone.

One tree level is one transition of Fig 5 -- latch the child, release
the parent, read the node, search it -- and the tree plans yield it as
one effect, ``CoupleEff``.  ``LatchEff``, ``UnlatchEff``, ``ReadEff``
and ``ChargeEff`` spell the steps that are not a level: the meta
latch, rebalance siblings, the LSM and the Blink-tree plans.
"""

# Operation kinds
SEARCH = "search"
RANGE = "range"
INSERT = "insert"
UPDATE = "update"
DELETE = "delete"
SYNC = "sync"
BATCH = "batch"

UPDATE_KINDS = frozenset((INSERT, UPDATE, DELETE, SYNC, BATCH))

# Canonical session verbs (the OpSpec vocabulary).  DELETE/UPDATE/SYNC
# double as verbs; PUT/GET/SCAN are the batch-first spellings of
# insert/search/range.
PUT = "put"
GET = "get"
SCAN = "scan"

#: Verbs that may appear inside a batched operation.  SCAN/UPDATE/SYNC
#: run as standalone operations (a scan has no single target leaf).
BATCH_VERBS = frozenset((PUT, GET, DELETE))

# Operation scheduling states
ST_READY = "ready"
ST_IO_WAIT = "io_wait"
ST_LATCH_WAIT = "latch_wait"
ST_DONE = "done"


class Effect:
    """Base class for everything an operation coroutine yields."""

    __slots__ = ()


class LatchEff(Effect):
    """Request a latch on ``page_id``; resumes once granted."""

    __slots__ = ("page_id", "mode")

    def __init__(self, page_id, mode):
        self.page_id = page_id
        self.mode = mode


class UnlatchEff(Effect):
    """Release the latch held on ``page_id``."""

    __slots__ = ("page_id",)

    def __init__(self, page_id):
        self.page_id = page_id


class CoupleEff(Effect):
    """One latch-coupled level: latch ``page_id`` in ``mode``, release
    ``parent`` once granted (when given), read ``page_id`` and charge
    one node search.  Resumes with the node, like ``ReadEff``.

    Served exactly as the four effects ``LatchEff``, ``UnlatchEff``,
    ``ReadEff``, ``ChargeEff(node_search_ns)`` in that order: a plan
    is pure between yields, so only where the generator is resumed
    moves.
    """

    __slots__ = ("page_id", "mode", "parent")

    def __init__(self, page_id, mode, parent=None):
        self.page_id = page_id
        self.mode = mode
        self.parent = parent


class UnlatchManyEff(Effect):
    """Release the latches held on ``page_ids`` in one amortized step.

    Used by the batch plan when it drops a whole retained descent path
    at once: the engine charges one full release plus a discounted
    per-latch increment instead of a full release per page.
    """

    __slots__ = ("page_ids",)

    def __init__(self, page_ids):
        self.page_ids = list(page_ids)


class ReadEff(Effect):
    """Read one page; resumes with what the page layer makes of it: the
    parsed :class:`Node` for the tree, the page image for the LSM."""

    __slots__ = ("page_id",)

    def __init__(self, page_id):
        self.page_id = page_id


class ReadManyEff(Effect):
    """Read ``page_ids``; resumes with their page images, in order."""

    __slots__ = ("page_ids",)

    def __init__(self, page_ids):
        self.page_ids = page_ids


class WriteEff(Effect):
    """Persist one wave: modified nodes, optionally the meta page, and
    raw ``pages``.

    Under strong persistence the operation resumes only when every
    write I/O in the wave completed; under weak persistence the writes
    land in the read-write buffer and the operation resumes
    immediately.  Ordering across waves is expressed by yielding
    multiple ``WriteEff``s: an insert split writes newly created right
    siblings in a first wave and the pages that point at them in a
    second, so a crash between waves never leaves dangling pointers.

    ``pages`` are ``(lba, image)`` pairs written as they are: only the
    LSM plans yield them, and ``PaTreeEngine`` does not serve them.
    With ``on_durable`` the wave is a group commit: a polled operation
    does not wait for it, and ``on_durable()`` runs once every page
    landed, never if one was lost.
    """

    __slots__ = ("nodes", "write_meta", "coalesce", "pages", "on_durable")

    def __init__(self, nodes=(), write_meta=False, coalesce=False, pages=(), on_durable=None):
        self.nodes = list(nodes)
        self.write_meta = write_meta
        # coalesce=True lets the engine submit the whole wave as one
        # command vector (single doorbell); only the batch plan opts in
        # so single-op timing stays bit-for-bit identical.
        self.coalesce = coalesce
        self.pages = pages
        self.on_durable = on_durable


class ChargeEff(Effect):
    """Charge ``ns`` of CPU in ``category`` (index real work)."""

    __slots__ = ("ns", "category")

    def __init__(self, ns, category):
        self.ns = ns
        self.category = category


class SyncEff(Effect):
    """Flush all buffered dirty pages; resumes when durable."""

    __slots__ = ()


class AllocEff(Effect):
    """Allocate a page; resumes with its id.

    An effect, not a direct allocator call: the blocking interpreter
    allocates under a mutex, and under contention that mutex decides
    which thread gets which page id.
    """

    __slots__ = ()


class FreeEff(Effect):
    """Return ``page_id`` to the allocator and drop cached copies of it.

    Yielded after the page's ``UnlatchEff``.
    """

    __slots__ = ("page_id",)

    def __init__(self, page_id):
        self.page_id = page_id


class MaintainEff(Effect):
    """Run the LSM flush or compaction ``op``: admitted on its own when
    polled, inline on the writing thread when blocking."""

    __slots__ = ("op",)

    def __init__(self, op):
        self.op = op


class RetireEff(Effect):
    """Free the pages ``lbas`` a compaction dropped, once no reader may
    still walk them."""

    __slots__ = ("lbas",)

    def __init__(self, lbas):
        self.lbas = lbas


class Operation:
    """One in-flight index operation."""

    __slots__ = (
        "kind",
        "key",
        "payload",
        "high_key",
        "limit",
        "seq",
        "state",
        "gen",
        "resume_value",
        "step",
        "held_latches",
        "write_latches",
        "io_remaining",
        "result",
        "error",
        "admit_ns",
        "done_ns",
        "specs",
        "groups",
        "cursor",
        "spec_indices",
    )

    def __init__(self, kind, key=0, payload=None, high_key=None, limit=0):
        self.kind = kind
        self.key = key
        self.payload = payload
        self.high_key = high_key
        self.limit = limit
        self.seq = -1
        self.state = ST_READY
        self.gen = None
        self.resume_value = None
        # the CoupleEff a polled interpreter parked in the middle of
        # (latch wait or read wait); it goes on from there on resume
        self.step = None
        self.held_latches = {}
        self.write_latches = 0
        self.io_remaining = 0
        self.result = None
        # typed IoError/RetryExhaustedError when the op's I/O failed;
        # a completed op with error set produced no usable result
        self.error = None
        self.admit_ns = None
        self.done_ns = None
        # batch state: the OpSpec list, how many leaf groups the plan
        # touched, the input index of the spec currently being applied
        # (failing-key attribution), and — on a sharded sub-batch —
        # which parent indices this part covers.
        self.specs = None
        self.groups = 0
        self.cursor = -1
        self.spec_indices = None

    @property
    def is_update(self):
        return self.kind in UPDATE_KINDS

    @property
    def done(self):
        return self.state == ST_DONE

    @property
    def latency_ns(self):
        if self.done_ns is None or self.admit_ns is None:
            return None
        return self.done_ns - self.admit_ns

    def __repr__(self):
        return "Operation(%s key=%d %s)" % (self.kind, self.key, self.state)


def search_op(key):
    return Operation(SEARCH, key=key)


def range_op(low, high, limit=0):
    return Operation(RANGE, key=low, high_key=high, limit=limit)


def insert_op(key, payload):
    return Operation(INSERT, key=key, payload=payload)


def update_op(key, payload):
    return Operation(UPDATE, key=key, payload=payload)


def delete_op(key):
    return Operation(DELETE, key=key)


def sync_op():
    return Operation(SYNC)


class OpSpec:
    """Canonical description of one logical operation (session contract).

    Every session verb builds ``OpSpec``s and every ``execute()`` accepts
    them; ``put``/``get``/``delete`` specs may additionally be packed
    into one batched operation via :func:`batch_op`.
    """

    __slots__ = ("verb", "key", "payload", "high_key", "limit")

    def __init__(self, verb, key=0, payload=None, high_key=None, limit=0):
        self.verb = verb
        self.key = key
        self.payload = payload
        self.high_key = high_key
        self.limit = limit

    @classmethod
    def put(cls, key, payload):
        return cls(PUT, key=key, payload=payload)

    @classmethod
    def get(cls, key):
        return cls(GET, key=key)

    @classmethod
    def delete(cls, key):
        return cls(DELETE, key=key)

    @classmethod
    def update(cls, key, payload):
        return cls(UPDATE, key=key, payload=payload)

    @classmethod
    def scan(cls, low, high, limit=0):
        return cls(SCAN, key=low, high_key=high, limit=limit)

    @classmethod
    def sync(cls):
        return cls(SYNC)

    def to_operation(self):
        """The standalone :class:`Operation` equivalent of this spec."""
        if self.verb == PUT:
            return insert_op(self.key, self.payload)
        if self.verb == GET:
            return search_op(self.key)
        if self.verb == DELETE:
            return delete_op(self.key)
        if self.verb == UPDATE:
            return update_op(self.key, self.payload)
        if self.verb == SCAN:
            return range_op(self.key, self.high_key, self.limit)
        if self.verb == SYNC:
            return sync_op()
        raise ValueError("unknown verb %r" % (self.verb,))

    def __repr__(self):
        return "OpSpec(%s key=%d)" % (self.verb, self.key)


class OpResult:
    """Outcome of one :class:`OpSpec` (session contract).

    ``value`` carries the verb's natural result: payload-or-None for a
    get, was-new for a put, was-present for a delete/update, the row
    list for a scan, the flushed-page count for a sync.  ``error`` is
    the typed exception when the operation failed.
    """

    __slots__ = ("verb", "key", "value", "error")

    def __init__(self, verb, key, value, error=None):
        self.verb = verb
        self.key = key
        self.value = value
        self.error = error

    @property
    def ok(self):
        return self.error is None

    def __repr__(self):
        state = "ok" if self.error is None else "error=%r" % (self.error,)
        return "OpResult(%s key=%d %s)" % (self.verb, self.key, state)


def batch_op(specs):
    """Pack put/get/delete specs into one batched operation.

    The batch plan sorts the specs by key, shares one descent per leaf
    group, applies each group with the vectorized node helpers, and
    coalesces the group's page writes into one command vector.
    ``op.result`` is a list aligned with ``specs`` (input order).
    """
    from repro.errors import TreeError

    specs = list(specs)
    for spec in specs:
        if spec.verb not in BATCH_VERBS:
            raise TreeError("verb %r cannot be batched" % (spec.verb,))
    op = Operation(BATCH, key=specs[0].key if specs else 0)
    op.specs = specs
    return op
