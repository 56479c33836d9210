"""Per-node MAC state: duplicate suppression.

The dedup cache is a deliberately dumb container; the simulation loop
owns all timing decisions. It applies to flooded traffic only (a
repeater must still accept a unicast copy addressed to it even after
overhearing the same packet id). A node's transmit queue is a plain
``deque`` on its ``Node``, which ``Simulation._enqueue`` bounds: past
``MacParams.queue_capacity`` the oldest entry is dropped, on record.
"""

from __future__ import annotations

from collections import deque


class DedupCache:
    """Packet-id memory with a time-to-live and a hard capacity.

    Entries expire lazily: a lookup first drops anything older than the
    ttl, then answers. When full, inserting evicts the oldest entry. A
    dict maps each cached id to its insertion time, and a ``deque``
    holds the ids oldest first. Nothing iterates the dict, whose deleted
    slots a walk from its front would have to skip.
    """

    __slots__ = ("ttl_s", "capacity", "_stamps", "_order")

    def __init__(self, ttl_s: float, capacity: int) -> None:
        self.ttl_s = ttl_s
        self.capacity = capacity
        self._stamps: dict[int, float] = {}
        self._order: deque[int] = deque()

    def seen(self, packet_id: int, now: float) -> bool:
        """True if the id is already cached; caches it otherwise."""
        stamps = self._stamps
        order = self._order
        cutoff = now - self.ttl_s
        while order and stamps[order[0]] <= cutoff:
            del stamps[order.popleft()]
        if packet_id in stamps:
            return True
        stamps[packet_id] = now
        order.append(packet_id)
        if len(order) > self.capacity:
            del stamps[order.popleft()]
        return False
