"""Fixed-capacity ring buffers for submission and completion queues.

NVMe queues are rings in host memory; we model the capacity limit (a
full submission queue rejects new commands, as the real driver would)
while keeping the implementation a simple circular list.
"""

from repro.errors import QueueFullError


class Ring:
    """Bounded FIFO ring buffer."""

    __slots__ = ("capacity", "_slots", "_head", "count", "name")

    def __init__(self, capacity, name="ring"):
        if capacity < 1:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self._slots = [None] * capacity
        self._head = 0
        # items held: a plain attribute to read, only the ring writes it
        self.count = 0
        self.name = name

    def __len__(self):
        return self.count

    @property
    def is_full(self):
        return self.count == self.capacity

    @property
    def is_empty(self):
        return self.count == 0

    @property
    def free_slots(self):
        return self.capacity - self.count

    def push(self, item):
        """Append an item; raises :class:`QueueFullError` when full."""
        count = self.count
        if count == self.capacity:
            raise QueueFullError("%s is full (capacity %d)" % (self.name, self.capacity))
        self._slots[(self._head + count) % self.capacity] = item
        self.count = count + 1

    def pop(self):
        """Remove and return the oldest item, or ``None`` when empty."""
        if self.count == 0:
            return None
        item = self._slots[self._head]
        self._slots[self._head] = None
        self._head = (self._head + 1) % self.capacity
        self.count -= 1
        return item

    def drain(self):
        """Remove and return every item, oldest first.

        Leaves the ring as that many :meth:`pop` calls would: empty,
        every slot cleared, the head just past the last item.
        """
        count = self.count
        if count == 0:
            return []
        slots = self._slots
        capacity = self.capacity
        head = self._head
        end = head + count
        if end <= capacity:
            items = slots[head:end]
            slots[head:end] = [None] * count
        else:
            end -= capacity
            items = slots[head:] + slots[:end]
            slots[head:] = [None] * (capacity - head)
            slots[:end] = [None] * end
        self._head = end % capacity
        self.count = 0
        return items

    def peek(self):
        if self.count == 0:
            return None
        return self._slots[self._head]

    def __repr__(self):
        return "Ring(%r, %d/%d)" % (self.name, self.count, self.capacity)
