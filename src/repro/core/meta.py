"""Tree meta page.

Page 0 of the tree's LBA range holds the root pointer, tree height,
allocator watermark and geometry, so a tree can be reopened from the
device alone.  The meta page is rewritten (through the same I/O path
as any other page) whenever the root changes.
"""

import struct

from repro.errors import CorruptPageError

META_MAGIC = 0x50415431  # "PAT1"
META_VERSION = 1
META_PAGE = 0

# magic u32 | version u16 | pad u16 | page_size u32 | payload_size u32 |
# root_page u64 | height u32 | pad u32 | next_page u64 | key_count u64,
# zero-filled to the page size
_LAYOUT = struct.Struct("<IHHIIQIIQQ")


class TreeMeta:
    """Mutable in-memory copy of the on-media meta page."""

    __slots__ = (
        "page_size",
        "payload_size",
        "root_page",
        "height",
        "next_page",
        "key_count",
    )

    def __init__(self, page_size, payload_size, root_page, height, next_page, key_count=0):
        self.page_size = page_size
        self.payload_size = payload_size
        self.root_page = root_page
        self.height = height
        self.next_page = next_page
        self.key_count = key_count

    def to_bytes(self):
        image = bytearray(self.page_size)
        _LAYOUT.pack_into(
            image,
            0,
            META_MAGIC,
            META_VERSION,
            0,
            self.page_size,
            self.payload_size,
            self.root_page,
            self.height,
            0,
            self.next_page,
            self.key_count,
        )
        return bytes(image)

    @classmethod
    def from_bytes(cls, image):
        (
            magic,
            version,
            _pad,
            page_size,
            payload_size,
            root_page,
            height,
            _pad2,
            next_page,
            key_count,
        ) = _LAYOUT.unpack_from(image)
        if magic != META_MAGIC:
            raise CorruptPageError("bad meta magic 0x%08x" % magic)
        if version != META_VERSION:
            raise CorruptPageError("unsupported meta version %d" % version)
        return cls(page_size, payload_size, root_page, height, next_page, key_count)

    def __repr__(self):
        return "TreeMeta(root=%d, height=%d, keys=%d)" % (
            self.root_page,
            self.height,
            self.key_count,
        )
