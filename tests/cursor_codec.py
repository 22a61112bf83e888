"""The little-endian cursor codec the on-media formats were first
written in, kept as the field-by-field reference that the ``struct``
layouts of ``repro`` (tree node, tree meta page, SSTable data page, WAL
page) are held byte-identical to."""

import struct

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class PageWriter:
    """Sequential writer into a fixed-size page buffer."""

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

    def raw(self, data):
        end = self.pos + len(data)
        if end > len(self.buf):
            raise ValueError("page overflow: %d > %d" % (end, len(self.buf)))
        self.buf[self.pos:end] = data
        self.pos = end

    def finish(self):
        return bytes(self.buf)


class PageReader:
    """Sequential reader over a page image."""

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

    def raw(self, length):
        data = bytes(self.buf[self.pos:self.pos + length])
        if len(data) != length:
            raise ValueError("short read: wanted %d bytes" % length)
        self.pos += length
        return data
