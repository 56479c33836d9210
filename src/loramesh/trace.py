"""Run trace: the complete, replayable record of what happened on air.

Events are fixed-arity tuples (time, kind, node, packet, peer, duration,
channel); time and duration are floats. A kind is an index into
``KINDS``, the one table of event kinds, which gives each its NDJSON
name and its ``metrics.json`` count key.

An event has two forms. In memory (what the simulator appends to a
writer's batch, and what ``read_records`` yields) an unused slot holds
its stored value, ``NONE_INT`` (-1) for pkt, peer and ch and
``NONE_DUR`` (NaN) for dur, so ``pack_events`` packs each tuple as it
is, in C. Readers of a trace (``read_trace``, ``ndjson_line``) use None
in unused slots instead.

Wire form, version 2. A trace is ASCII text. Its first line is the
constant JSON ``HEADER`` (format name, version, record layout). Every
later line is one event: the base64 of one little-endian ``RECORD``
(``<dBiiidb``: t, kind, node, pkt, peer, dur, ch), 30 bytes, so 40
characters with no padding, then a newline. A None slot is stored as a
value no real event has: -1 for pkt, peer and ch, NaN for dur. ``struct``
raises, and never wraps, on a value its slot cannot hold, such as a node
or packet id beyond 2**31 - 1 or a channel beyond 127; the scenario
loader keeps node uids in range. The run's fingerprint ``trace_sha256``
is the sha256 of exactly these bytes, header included, whether or not a
file is written. Both float slots round-trip exactly, so ``read_records``
gives back the stored values and packing them again gives the same
digest.

One event per line keeps the bytes independent of where batches split
and leaves every emitted event in the file when a run raises. NDJSON is
only a rendering (``ndjson_line``, ``loramesh render``): one JSON object
per event, the bytes version 1 traces held.
"""

from __future__ import annotations

import binascii
import hashlib
import json
import os
import struct
from itertools import starmap

# Every event kind, as (NDJSON name, ``metrics.json`` count key); a
# kind's number is its index here, the byte a trace record stores.
KINDS = (
    ("Generated", "generated"),
    ("TxStart", "tx_start"),
    ("TxEnd", "tx_end"),
    ("RxOk", "rx_ok"),
    ("RxCollided", "rx_collided"),
    ("RxBelowSens", "rx_below_sensitivity"),
    ("DroppedBusyTx", "dropped_busy_tx"),
    ("QueueDropped", "queue_dropped"),
    ("StandbyArmed", "standby_armed"),
    ("StandbyFired", "standby_fired"),
    ("StandbyCancelled", "standby_cancelled"),
    ("RouteSwitched", "route_switched"),
    ("DeliveredToGateway", "delivered"),
    ("DuplicateSuppressed", "dup_suppressed"),
)
EVENT_NAMES = tuple(name for name, _key in KINDS)
COUNT_KEYS = tuple(key for _name, key in KINDS)
(
    GENERATED,
    TX_START,
    TX_END,
    RX_OK,
    RX_COLLIDED,
    RX_BELOW_SENS,
    DROPPED_BUSY_TX,
    QUEUE_DROPPED,
    STANDBY_ARMED,
    STANDBY_FIRED,
    STANDBY_CANCELLED,
    ROUTE_SWITCHED,
    DELIVERED,
    DUP_SUPPRESSED,
) = range(len(KINDS))

# Tuple slots.
T, KIND, NODE, PKT, PEER, DUR, CH = range(7)


# Events held by a writer before it packs, hashes and writes them.
BATCH_EVENTS = 256

FORMAT = "loramesh-trace"
VERSION = 2
RECORD = struct.Struct("<dBiiidb")
# base64 of one record: 30 bytes make 40 characters, no padding
RECORD_CHARS = 40
HEADER = (
    json.dumps(
        {
            "format": FORMAT,
            "version": VERSION,
            "record": RECORD.format,
            "fields": ["t", "kind", "node", "pkt", "peer", "dur", "ch"],
            "none": {"pkt": -1, "peer": -1, "dur": "NaN", "ch": -1},
            "line": "base64 of one record",
        },
        separators=(",", ":"),
    )
    + "\n"
)
_HEADER_HASH = hashlib.sha256(HEADER.encode("ascii"))

# The stored form of a None slot: an event held in memory (a writer's
# batch, ``read_records``) carries these, so records pack as they are.
NONE_INT = -1
NONE_DUR = float("nan")


def pack_events(events) -> bytes:
    """One trace line per event held in memory: the base64 of its record
    and a newline."""
    return b"".join(map(binascii.b2a_base64, starmap(RECORD.pack, events)))


class TraceWriter:
    """The run's one trace sink: a streaming SHA-256 over the packed lines.

    When an open text file is given, the header is written at once and
    every line after it as it is hashed, so the file's sha256 is the
    digest. Events are held until ``BATCH_EVENTS`` of them are waiting;
    ``flush`` then packs the batch once, feeds it to the hash and writes
    it. ``hexdigest`` flushes first, and ``Simulation.run`` flushes when a
    run raises, so the file holds every event emitted. A caller may
    append to ``batch`` itself and call ``flush`` once it holds
    ``BATCH_EVENTS`` or more; the bytes do not depend on batch sizes.
    """

    def __init__(self, fh=None) -> None:
        self._fh = fh
        self._hash = _HEADER_HASH.copy()
        # the events waiting to be packed, None slots in their stored
        # form; emptied in place, never replaced
        self.batch: list[tuple] = []
        if fh is not None:
            fh.write(HEADER)

    def add(self, ev: tuple) -> None:
        batch = self.batch
        batch.append(ev)
        if len(batch) >= BATCH_EVENTS:
            self.flush()

    def flush(self) -> None:
        if not self.batch:
            # the file may be closed once the run is over
            return
        data = pack_events(self.batch)
        self.batch.clear()
        self._hash.update(data)
        if self._fh is not None:
            self._fh.write(data.decode("ascii"))

    def hexdigest(self) -> str:
        self.flush()
        return self._hash.hexdigest()


class TraceFormatError(ValueError):
    """A file that is not a version 2 trace, with the file and line named."""


def _header_problem(line: str) -> str:
    if not line:
        return "empty file, no trace header"
    try:
        data = json.loads(line)
    except ValueError:
        data = None
    if isinstance(data, dict) and "t" in data and "ev" in data:
        return "a version 1 NDJSON trace; this reader reads version 2 only"
    if isinstance(data, dict) and data.get("format") == FORMAT:
        return f"unknown trace header (version {data.get('version')!r})"
    return "no trace header"


def _records(fh, name: str):
    first = fh.readline()
    if first != HEADER:
        raise TraceFormatError(f"{name}:1: {_header_problem(first)}")
    unpack = RECORD.unpack
    decode = binascii.a2b_base64
    kinds = len(EVENT_NAMES)
    for lineno, line in enumerate(fh, 2):
        try:
            if len(line) != RECORD_CHARS + 1 or line[-1] != "\n":
                raise ValueError
            # a non-base64 character is skipped, so the record comes out short
            record = unpack(decode(line[:-1]))
        except (ValueError, struct.error):
            raise TraceFormatError(
                f"{name}:{lineno}: not one {RECORD_CHARS}-character base64 record"
            ) from None
        if record[KIND] >= kinds:
            raise TraceFormatError(f"{name}:{lineno}: unknown event kind {record[KIND]}")
        yield record


def read_records(source):
    """Yield the events of a trace as they are held in memory, None slots
    in their stored form: a path, or a text file open for reading.

    Raises ``TraceFormatError``, naming the file and the line, at a
    missing or unknown header (a version 1 NDJSON trace among them) and
    at a line that is not one record; and, naming the file, at a path
    that cannot be opened.
    """
    if isinstance(source, (str, os.PathLike)):
        name = os.fspath(source)
        try:
            # undecodable bytes become a line that is not a record
            fh = open(source, encoding="ascii", errors="replace")
        except OSError as exc:
            raise TraceFormatError(f"{name}: cannot read trace: {exc.strerror}") from exc
        with fh:
            yield from _records(fh, name)
    else:
        yield from _records(source, getattr(source, "name", "<trace>"))


def read_trace(source):
    """Yield the event tuples of a trace, None in every unset slot; reads
    and raises as ``read_records`` does."""
    for t, kind, node, pkt, peer, dur, ch in read_records(source):
        yield (
            t,
            kind,
            node,
            None if pkt == NONE_INT else pkt,
            None if peer == NONE_INT else peer,
            None if dur != dur else dur,
            None if ch == NONE_INT else ch,
        )


def ndjson_line(ev: tuple) -> str:
    """One event as one JSON line: ``t``, ``ev`` and ``node``, then ``pkt``,
    ``peer``, ``dur`` and ``ch`` when set, numbers in ``repr`` form, no
    spaces, newline-terminated."""
    t, kind, node, pkt, peer, dur, ch = ev
    line = f'{{"t":{t!r},"ev":"{EVENT_NAMES[kind]}","node":{node}'
    if pkt is not None:
        line += f',"pkt":{pkt}'
    if peer is not None:
        line += f',"peer":{peer}'
    if dur is not None:
        line += f',"dur":{dur!r}'
    if ch is not None:
        line += f',"ch":{ch}'
    return line + "}\n"
