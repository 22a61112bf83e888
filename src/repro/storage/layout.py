"""Binary layout helpers.

Little-endian cursor-style writer/reader over page-sized byte buffers.
The variable-shape on-media structures (meta page, WAL records) are
packed through these helpers so their byte format is defined in one
idiom.  The two decoded several times per operation go through
precompiled ``struct`` layouts instead and a test holds each
byte-identical to this idiom: a tree node, whole page at once
(``repro.core.node``, ``tests/test_node.py``), and an SSTable data
page, one call per entry (``repro.baselines.lsm.sstable``,
``tests/test_lsm.py``).
"""

import struct

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")


class PageWriter:
    """Sequential writer into a fixed-size page buffer."""

    __slots__ = ("buf", "pos")

    def __init__(self, page_size):
        self.buf = bytearray(page_size)
        self.pos = 0

    def _put(self, packer, value):
        packer.pack_into(self.buf, self.pos, value)
        self.pos += packer.size

    def u8(self, value):
        self._put(_U8, value)

    def u16(self, value):
        self._put(_U16, value)

    def u32(self, value):
        self._put(_U32, value)

    def u64(self, value):
        self._put(_U64, value)

    def i64(self, value):
        self._put(_I64, value)

    def raw(self, data):
        end = self.pos + len(data)
        if end > len(self.buf):
            raise ValueError("page overflow: %d > %d" % (end, len(self.buf)))
        self.buf[self.pos:end] = data
        self.pos = end

    def seek(self, pos):
        self.pos = pos

    def finish(self):
        """Return the immutable page image."""
        return bytes(self.buf)


class PageReader:
    """Sequential reader over a page image."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def _get(self, packer):
        value = packer.unpack_from(self.buf, self.pos)[0]
        self.pos += packer.size
        return value

    def u8(self):
        return self._get(_U8)

    def u16(self):
        return self._get(_U16)

    def u32(self):
        return self._get(_U32)

    def u64(self):
        return self._get(_U64)

    def i64(self):
        return self._get(_I64)

    def raw(self, length):
        data = bytes(self.buf[self.pos:self.pos + length])
        if len(data) != length:
            raise ValueError("short read: wanted %d bytes" % length)
        self.pos += length
        return data

    def seek(self, pos):
        self.pos = pos
