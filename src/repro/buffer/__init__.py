"""Buffer management: LRU core, strong-persistent read-only buffer and
weak-persistent read-write buffer (paper §III-C)."""

from repro.buffer.lru import LruCache
from repro.buffer.read_only import ReadOnlyBuffer
from repro.buffer.read_write import ReadWriteBuffer
from repro.errors import SchedulerError


def make_buffer(persistence, buffer_pages):
    """Build the buffer matching a persistence mode, or None.

    The single factory behind the session facades, the shard router
    and the bench harness, and the one place a persistence string is
    checked: the tree interpreters read the mode back from the
    buffer's ``mode`` (no buffer means strong).  ``"weak"`` persistence
    gets a write-back :class:`ReadWriteBuffer` (and requires
    ``buffer_pages > 0``), ``"strong"`` gets a :class:`ReadOnlyBuffer`
    when ``buffer_pages`` is positive and no buffer otherwise.
    """
    if persistence not in ("strong", "weak"):
        raise SchedulerError("unknown persistence mode %r" % (persistence,))
    if persistence == "weak":
        if buffer_pages <= 0:
            raise SchedulerError("weak persistence requires a buffer")
        return ReadWriteBuffer(buffer_pages)
    if buffer_pages > 0:
        return ReadOnlyBuffer(buffer_pages)
    return None


__all__ = ["LruCache", "ReadOnlyBuffer", "ReadWriteBuffer", "make_buffer"]
