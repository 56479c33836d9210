"""Deterministic discrete-event core: clock, queue, and random streams."""

from __future__ import annotations

import hashlib
import random
from heapq import heappop, heappush


class EventQueue:
    """Min-heap of (time, seq, fn, args) with insertion-order tie breaks.

    Two events at the same timestamp pop in the order they were pushed,
    which pins the whole simulation to a single replayable order. A run
    loop may read ``heap`` (its first entry is the next event) but
    changes it only through ``push`` and ``pop``.
    """

    def __init__(self) -> None:
        self.heap: list[tuple[float, int, object, tuple]] = []
        self._seq = 0
        self.now = 0.0

    def push(self, when: float, fn, args: tuple = ()) -> None:
        # written so that a NaN time fails too: it compares false both ways
        if not when >= self.now:
            raise ValueError(f"cannot schedule at {when} before current time {self.now}")
        seq = self._seq = self._seq + 1
        heappush(self.heap, (when, seq, fn, args))

    def pop(self):
        when, _seq, fn, args = heappop(self.heap)
        self.now = when
        return fn, args

    def peek_time(self) -> float | None:
        return self.heap[0][0] if self.heap else None


class RngStreams:
    """Named, node-scoped random substreams derived from one run seed.

    Each (uid, purpose) pair owns an independent generator seeded from a
    hash of the triple, so adding a node or drawing more from one stream
    never perturbs any other stream. Draw sequences are reproducible
    across platforms (SHA-256 seed derivation, Mersenne Twister core).
    """

    def __init__(self, master_seed: int) -> None:
        self.master_seed = int(master_seed)
        self._streams: dict[tuple[int, str], random.Random] = {}

    def stream(self, uid: int, purpose: str) -> random.Random:
        key = (uid, purpose)
        rng = self._streams.get(key)
        if rng is None:
            digest = hashlib.sha256(
                f"{self.master_seed}:{uid}:{purpose}".encode("ascii")
            ).digest()
            rng = random.Random(int.from_bytes(digest[:16], "big"))
            self._streams[key] = rng
        return rng

    def uniform(self, uid: int, purpose: str, low: float, high: float) -> float:
        return self.stream(uid, purpose).uniform(low, high)
