"""Per-node MAC state: duplicate suppression and the transmit queue.

Both structures are deliberately dumb containers; the simulation loop
owns all timing decisions. The dedup cache applies to flooded traffic
only (a repeater must still accept a unicast copy addressed to it even
after overhearing the same packet id).
"""

from __future__ import annotations

from collections import deque


class DedupCache:
    """Packet-id memory with a time-to-live and a hard capacity.

    Entries expire lazily: a lookup first drops anything older than the
    ttl, then answers. When full, inserting evicts the oldest entry. One
    plain dict maps each cached id to its insertion time; a dict iterates
    in insertion order, so its first key is the oldest entry.
    """

    __slots__ = ("ttl_s", "capacity", "_stamps")

    def __init__(self, ttl_s: float, capacity: int) -> None:
        self.ttl_s = ttl_s
        self.capacity = capacity
        self._stamps: dict[int, float] = {}

    def seen(self, packet_id: int, now: float) -> bool:
        """True if the id is already cached; caches it otherwise."""
        stamps = self._stamps
        cutoff = now - self.ttl_s
        while stamps:
            oldest = next(iter(stamps))
            if stamps[oldest] > cutoff:
                break
            del stamps[oldest]
        if packet_id in stamps:
            return True
        stamps[packet_id] = now
        if len(stamps) > self.capacity:
            del stamps[next(iter(stamps))]
        return False


class TxQueue(deque):
    """FIFO transmit queue that drops the oldest entry when full; a
    ``deque``, so its length and truthiness are the deque's own."""

    __slots__ = ("capacity",)

    def __init__(self, capacity: int) -> None:
        super().__init__()
        self.capacity = capacity

    def push(self, item) -> object | None:
        """Append; returns the evicted entry when capacity was exceeded."""
        self.append(item)
        if len(self) > self.capacity:
            return self.popleft()
        return None

    # the oldest entry leaves first
    pop = deque.popleft

    # deque's own copy and reduce hand the items to __init__, which takes
    # the capacity
    def __reduce__(self):
        return type(self), (self.capacity,), None, iter(self)

    def __copy__(self):
        copied = type(self)(self.capacity)
        copied.extend(self)
        return copied
