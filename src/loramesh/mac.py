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


class TxQueue:
    """FIFO transmit queue that drops the oldest entry when full."""

    __slots__ = ("capacity", "_items")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._items: deque = deque()

    def push(self, item) -> object | None:
        """Append; returns the evicted entry when capacity was exceeded."""
        self._items.append(item)
        if len(self._items) > self.capacity:
            return self._items.popleft()
        return None

    def pop(self):
        return self._items.popleft()

    def __bool__(self) -> bool:
        return bool(self._items)
