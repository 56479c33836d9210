"""Run trace: the complete, replayable record of what happened on air.

Events are fixed-arity tuples (time, kind, node, packet, peer, duration,
channel) with None in unused slots. The newline-delimited JSON encoding
is built by hand so that identical runs serialize to identical bytes.
"""

from __future__ import annotations

import hashlib
import json

GENERATED = 0
TX_START = 1
TX_END = 2
RX_OK = 3
RX_COLLIDED = 4
RX_BELOW_SENS = 5
DROPPED_BUSY_TX = 6
QUEUE_DROPPED = 7
STANDBY_ARMED = 8
STANDBY_FIRED = 9
STANDBY_CANCELLED = 10
ROUTE_SWITCHED = 11
DELIVERED = 12
DUP_SUPPRESSED = 13

EVENT_NAMES = (
    "Generated",
    "TxStart",
    "TxEnd",
    "RxOk",
    "RxCollided",
    "RxBelowSens",
    "DroppedBusyTx",
    "QueueDropped",
    "StandbyArmed",
    "StandbyFired",
    "StandbyCancelled",
    "RouteSwitched",
    "DeliveredToGateway",
    "DuplicateSuppressed",
)

_NAME_TO_KIND = {name: kind for kind, name in enumerate(EVENT_NAMES)}

# Tuple slots.
T, KIND, NODE, PKT, PEER, DUR, CH = range(7)


def encode_event(ev: tuple) -> str:
    """One-line JSON for a trace tuple; stable field order, no spaces."""
    parts = [f'"t":{ev[T]!r},"ev":"{EVENT_NAMES[ev[KIND]]}","node":{ev[NODE]}']
    if ev[PKT] is not None:
        parts.append(f'"pkt":{ev[PKT]}')
    if ev[PEER] is not None:
        parts.append(f'"peer":{ev[PEER]}')
    if ev[DUR] is not None:
        parts.append(f'"dur":{ev[DUR]!r}')
    if ev[CH] is not None:
        parts.append(f'"ch":{ev[CH]}')
    return "{" + ",".join(parts) + "}"


def decode_event(line: str) -> tuple:
    data = json.loads(line)
    return (
        data["t"],
        _NAME_TO_KIND[data["ev"]],
        data["node"],
        data.get("pkt"),
        data.get("peer"),
        data.get("dur"),
        data.get("ch"),
    )


class TraceWriter:
    """The run's one trace sink: a streaming SHA-256 over the encoded lines.

    Each event is encoded once; the line feeds the hash and, when an open
    text file is given, is written there too, so the file's sha256 is the
    digest.
    """

    def __init__(self, fh=None) -> None:
        self._fh = fh
        self._hash = hashlib.sha256()

    def add(self, ev: tuple) -> None:
        line = encode_event(ev) + "\n"
        self._hash.update(line.encode("ascii"))
        if self._fh is not None:
            self._fh.write(line)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def read_trace(path: str):
    """Yield decoded trace tuples from an exported trace file."""
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield decode_event(line)
