"""NVMe command, status and completion objects.

A command carries the opcode, target LBA (page id), an optional data
payload (for writes), a completion callback and the context pointer the
application attached — exactly the fields an SPDK submission carries.
Timestamps are filled in by the device model so experiments can compute
per-I/O latency.

Completion status is a first-class :class:`IoStatus` code, not an
assumption: the device mints a :class:`Completion` record per command
when its result becomes visible on the completion ring, and every layer
above (driver retry policy, working-thread engines, session facades)
branches on that status instead of assuming success.
"""

import enum

OP_READ = "read"
OP_WRITE = "write"

_OPCODES = (OP_READ, OP_WRITE)


class IoStatus(enum.Enum):
    """Per-command status code, modelled on the NVMe status field.

    ``SUCCESS`` renders as ``"completed"`` (and the two pre-completion
    states keep their historical spellings) so command ``repr`` strings
    in traces and logs are stable across the string->enum migration.
    """

    #: constructed, not yet on a submission queue
    PENDING = "pending"
    #: on the submission queue or in service at the device
    SUBMITTED = "submitted"
    #: completed successfully; data (reads) / durability (writes) valid
    SUCCESS = "completed"
    #: transient media error — the command may succeed if retried
    MEDIA_ERROR = "media_error"
    #: unrecoverable read of a poisoned LBA — permanent until rewritten
    UNRECOVERED_READ = "unrecovered_read"

    @property
    def ok(self):
        return self is IoStatus.SUCCESS

    @property
    def is_failure(self):
        return self in _FAILURES

    @property
    def retriable(self):
        """Whether a retry of the same command can plausibly succeed."""
        return self is IoStatus.MEDIA_ERROR

    def __str__(self):
        return self.value


_FAILURES = frozenset((IoStatus.MEDIA_ERROR, IoStatus.UNRECOVERED_READ))


class NvmeCommand:
    """One I/O command travelling through a queue pair."""

    __slots__ = (
        "opcode",
        "is_write",
        "lba",
        "data",
        "callback",
        "context",
        "qpair",
        "submit_ns",
        "fetch_ns",
        "complete_ns",
        "visible_ns",
        "status",
        "retries",
        "escalations",
    )

    def __init__(self, opcode, lba, data=None, callback=None, context=None):
        if opcode not in _OPCODES:
            raise ValueError("unknown opcode %r" % (opcode,))
        if lba < 0:
            raise ValueError("negative lba %r" % (lba,))
        self.opcode = opcode
        # the opcode is never reassigned, so this is set once
        self.is_write = opcode == OP_WRITE
        self.lba = lba
        self.data = data
        self.callback = callback
        self.context = context
        self.qpair = None
        self.submit_ns = None
        self.fetch_ns = None
        self.complete_ns = None
        self.visible_ns = None
        self.status = IoStatus.PENDING
        # driver-level transparent retries of this command object
        self.retries = 0
        # engine-level escalations along this write chain (each
        # escalation is a fresh command; the count is carried forward)
        self.escalations = 0

    @property
    def ok(self):
        return self.status is IoStatus.SUCCESS

    @property
    def latency_ns(self):
        """Submit-to-completion-visible latency, once completed."""
        if self.visible_ns is None or self.submit_ns is None:
            return None
        return self.visible_ns - self.submit_ns

    def __repr__(self):
        return "NvmeCommand(%s lba=%d %s)" % (self.opcode, self.lba, self.status)


class Completion:
    """One completion-queue entry, minted by the device.

    Carries the final :class:`IoStatus` alongside the command; this is
    what ``probe`` returns and what completion callbacks receive, so
    consumers branch on ``completion.ok`` instead of assuming success.
    Field access for the common command attributes passes through.
    """

    __slots__ = ("command", "status", "ok", "visible_ns", "attempt")

    def __init__(self, command, status, visible_ns, attempt=0):
        self.command = command
        self.status = status
        # the status is never reassigned, so this is set once
        self.ok = status is IoStatus.SUCCESS
        self.visible_ns = visible_ns
        #: zero-based attempt index (== driver retries spent so far)
        self.attempt = attempt

    # -- command passthroughs ------------------------------------------

    @property
    def opcode(self):
        return self.command.opcode

    @property
    def lba(self):
        return self.command.lba

    @property
    def data(self):
        return self.command.data

    @property
    def context(self):
        return self.command.context

    @property
    def is_write(self):
        return self.command.is_write

    @property
    def submit_ns(self):
        return self.command.submit_ns

    @property
    def latency_ns(self):
        return self.command.latency_ns

    def __repr__(self):
        return "Completion(%s lba=%d %s attempt=%d)" % (
            self.opcode,
            self.lba,
            self.status,
            self.attempt,
        )
