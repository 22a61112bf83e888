"""In-memory write buffer of the LSM store.

A sorted-key map (dict + lazily re-sorted key list) standing in for
LevelDB's skiplist.  Deletes are tombstones so they mask older
versions in the SSTables below.
"""

import bisect

TOMBSTONE = None  # stored value meaning "deleted"


class MemTable:
    """Mutable sorted map with tombstones."""

    def __init__(self):
        self._data = {}
        self._sorted_keys = []
        self._keys_dirty = False

    def __len__(self):
        return len(self._data)

    def put(self, key, value):
        if key not in self._data:
            self._keys_dirty = True
        self._data[key] = value

    def delete(self, key):
        self.put(key, TOMBSTONE)

    def get(self, key):
        """Returns (found, value).  ``found`` True with value None means
        a tombstone masks the key."""
        if key in self._data:
            return True, self._data[key]
        return False, None

    def _keys(self):
        if self._keys_dirty:
            self._sorted_keys = sorted(self._data)
            self._keys_dirty = False
        return self._sorted_keys

    def range_items(self, low, high):
        """Sorted (key, value-or-tombstone) pairs with low <= key <= high."""
        keys = self._keys()
        start = bisect.bisect_left(keys, low)
        end = bisect.bisect_right(keys, high)
        return [(key, self._data[key]) for key in keys[start:end]]

    def sorted_items(self):
        """All entries in key order (for flushing to an SSTable)."""
        return [(key, self._data[key]) for key in self._keys()]
