"""Per-node MAC state: duplicate suppression and the transmit queue.

Both structures are deliberately dumb containers; the simulation loop
owns all timing decisions. The dedup cache applies to flooded traffic
only (a repeater must still accept a unicast copy addressed to it even
after overhearing the same packet id).
"""

from __future__ import annotations

from collections import OrderedDict, deque


class DedupCache:
    """Packet-id memory with a time-to-live and a hard capacity.

    Entries expire lazily: a lookup first drops anything older than the
    ttl, then answers. When full, inserting evicts the oldest entry.
    """

    def __init__(self, ttl_s: float = 60.0, capacity: int = 4096) -> None:
        self.ttl_s = ttl_s
        self.capacity = capacity
        # packet id -> insertion time, oldest first
        self._entries: OrderedDict[int, float] = OrderedDict()

    def _expire(self, now: float) -> None:
        cutoff = now - self.ttl_s
        entries = self._entries
        while entries:
            pid, stamp = next(iter(entries.items()))
            if stamp > cutoff:
                break
            del entries[pid]

    def seen(self, packet_id: int, now: float) -> bool:
        """True if the id is already cached; caches it otherwise."""
        self._expire(now)
        entries = self._entries
        if packet_id in entries:
            return True
        entries[packet_id] = now
        if len(entries) > self.capacity:
            entries.popitem(last=False)
        return False

    def __contains__(self, packet_id: int) -> bool:
        return packet_id in self._entries


class TxQueue:
    """FIFO transmit queue that drops the oldest entry when full."""

    __slots__ = ("capacity", "_items")

    def __init__(self, capacity: int = 512) -> None:
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

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)
