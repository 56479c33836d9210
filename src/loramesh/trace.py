"""Run trace: the complete, replayable record of what happened on air.

Events are fixed-arity tuples (time, kind, node, packet, peer, duration,
channel) with None in unused slots. The newline-delimited JSON encoding
is built by hand so that identical runs serialize to identical bytes.
The writer encodes events in batches: one encoder call, one hash update
and one file write per batch, with the same bytes as line by line. The
simulation appends to the writer's batch directly. Every outcome of one
frame end shares its time, pkt, peer, duration and ch, so the encoder
builds the ``,"pkt":…,"peer":…,"dur":…,"ch":…}`` tail once per frame end
and reuses it for each outcome. A run has few distinct durations (one
airtime per payload size), so the ``,"dur":…`` piece of a nonzero float
is built once per value and kept, across batches, in a bounded memo.
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


# Events held by a writer before it encodes, hashes and writes them.
BATCH_EVENTS = 256

_HEADS = tuple(f',"ev":"{name}","node":' for name in EVENT_NAMES)
_UNSET = object()

# Encoded ``,"dur":…`` pieces by duration value, shared by every call
# and writer: a piece depends on its key alone, so sharing changes no
# output. Only nonzero floats are keys: equal nonzero floats share a
# repr, while 0.0 == -0.0 and 1 == 1.0 do not. A run's durations are
# airtimes, one per payload size, so the bound is met only by unusual
# callers; the memo is then emptied and refilled.
DUR_PIECES_MAX = 256
_dur_pieces: dict[float, str] = {}


def encode_events(events) -> str:
    """One JSON line per trace tuple, each ending in a newline.

    Stable field order, no spaces: ``t``, ``ev``, ``node``, then ``pkt``,
    ``peer``, ``dur`` and ``ch`` when set, numbers in ``repr`` form. Runs
    of events share pieces: all outcomes of one frame end carry the same
    time object, and a frame's end and its outcomes the same duration
    object; a duration seen before takes its piece from ``_dur_pieces``.
    An event with every field set (a reception outcome) takes a fast
    path: it reuses the whole encoded ``,"pkt":…,"peer":…,"dur":…,"ch":…}``
    tail while its pkt, peer and ch are the previous tail's objects and
    the duration piece was not rebuilt since, which holds for every
    outcome of one frame end, even with other events between them.
    """
    out = []
    append = out.append
    heads = _HEADS
    last_t = _UNSET
    head = ""
    pieces = _dur_pieces
    last_dur = _UNSET
    dur_part = ""
    # the tail is valid for exactly these objects
    tail_pkt = tail_peer = tail_ch = tail_dur = _UNSET
    tail = ""
    for t, kind, node, pkt, peer, dur, ch in events:
        if t is not last_t:
            last_t = t
            head = f'{{"t":{t!r}'
        if dur is not None:
            if dur is not last_dur:
                last_dur = dur
                if dur.__class__ is float and dur:
                    dur_part = pieces.get(dur)
                    if dur_part is None:
                        if len(pieces) >= DUR_PIECES_MAX:
                            pieces.clear()
                        dur_part = pieces[dur] = f',"dur":{dur!r}'
                else:
                    dur_part = f',"dur":{dur!r}'
            if peer is not None and pkt is not None and ch is not None:
                if (
                    pkt is not tail_pkt
                    or peer is not tail_peer
                    or ch is not tail_ch
                    or dur_part is not tail_dur
                ):
                    tail_pkt, tail_peer, tail_ch, tail_dur = pkt, peer, ch, dur_part
                    tail = f',"pkt":{pkt},"peer":{peer}{dur_part},"ch":{ch}}}\n'
                append(f"{head}{heads[kind]}{node}{tail}")
                continue
        line = f"{head}{heads[kind]}{node}"
        if pkt is not None:
            line += f',"pkt":{pkt}'
        if peer is not None:
            line += f',"peer":{peer}'
        if dur is not None:
            line += dur_part
        if ch is not None:
            line += f',"ch":{ch}'
        append(line + "}\n")
    return "".join(out)


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

    Events are held until ``BATCH_EVENTS`` of them are waiting; ``flush``
    then encodes the batch once, feeds it to the hash and, when an open
    text file is given, writes it there too, so the file's sha256 is the
    digest. ``hexdigest`` flushes first, and ``Simulation.run`` flushes
    when a run raises, so the file holds every event emitted. A caller
    may append to ``batch`` itself and call ``flush`` once it holds
    ``BATCH_EVENTS`` or more; the bytes do not depend on batch sizes.
    """

    def __init__(self, fh=None) -> None:
        self._fh = fh
        self._hash = hashlib.sha256()
        # the events waiting to be encoded; emptied in place, never replaced
        self.batch: list[tuple] = []

    def add(self, ev: tuple) -> None:
        batch = self.batch
        batch.append(ev)
        if len(batch) >= BATCH_EVENTS:
            self.flush()

    def flush(self) -> None:
        if not self.batch:
            # the file may be closed once the run is over
            return
        text = encode_events(self.batch)
        self.batch.clear()
        self._hash.update(text.encode("ascii"))
        if self._fh is not None:
            self._fh.write(text)

    def hexdigest(self) -> str:
        self.flush()
        return self._hash.hexdigest()


def read_trace(path: str):
    """Yield decoded trace tuples from an exported trace file."""
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield decode_event(line)
