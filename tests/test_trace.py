"""The packed trace: one record per line, exact round trips, clean refusals,
and the NDJSON rendering."""

import base64
import hashlib
import io
import struct

import pytest
from hypothesis import example, given, strategies as st

from loramesh import trace as tr

# finite floats only: the NDJSON rendering is JSON, and repr(nan) is not
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 1e-07, 1e16, 5e-324, 0.014144, 1.7976931348623157e308]
)
# the widest values the record's int slots hold, or None
SLOT = st.none() | st.integers(min_value=0, max_value=2**31 - 1)
CHANNEL = st.none() | st.integers(min_value=0, max_value=127)


def _reuse(draw, previous, fresh):
    """The previous object itself, an equal but distinct float, or a new value."""
    how = draw(st.sampled_from(("same", "equal", "new")))
    if isinstance(previous, float) and how == "same":
        return previous
    if isinstance(previous, float) and how == "equal":
        return float(repr(previous))
    return draw(fresh)


@st.composite
def event_lists(draw):
    """Events whose times, durations and (pkt, peer, ch) often repeat.

    Every outcome of one frame end repeats the previous event's pkt, peer
    and ch objects; sometimes only ch changes, or an equal but distinct
    int stands in.
    """
    events = []
    t = dur = None
    pkt = peer = ch = None
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        t = _reuse(draw, t, FLOATS)
        dur = _reuse(draw, dur, st.none() | FLOATS)
        kind = draw(st.integers(min_value=0, max_value=len(tr.EVENT_NAMES) - 1))
        node = draw(st.integers(min_value=0, max_value=2**31 - 1))
        how = draw(st.sampled_from(("frame", "frame", "channel", "equal", "new")))
        if how == "new" or not events:
            pkt, peer, ch = draw(SLOT), draw(SLOT), draw(CHANNEL)
        elif how == "channel":
            ch = draw(CHANNEL)
        elif how == "equal":
            pkt, peer, ch = (None if x is None else int(str(x)) for x in (pkt, peer, ch))
        events.append((t, kind, node, pkt, peer, dur, ch))
    return events


# float edges and every None slot
ROUND_TRIPS = [
    (-0.0, tr.GENERATED, 0, None, None, None, None),
    (5e-324, tr.TX_START, 2**31 - 1, 2**31 - 1, None, 1.7976931348623157e308, 127),
    (1.7976931348623157e308, tr.RX_OK, 1, 0, 0, -0.0, 0),
    (0.0, tr.DUP_SUPPRESSED, 1, 0, 0, 5e-324, None),
    (1e16, tr.STANDBY_CANCELLED, 3, None, 2, None, None),
]


def stored(ev):
    """An event as the simulator holds it: each None slot in its stored form."""
    t, kind, node, pkt, peer, dur, ch = ev
    none, nan = tr.NONE_INT, tr.NONE_DUR
    return (
        t,
        kind,
        node,
        none if pkt is None else pkt,
        none if peer is None else peer,
        nan if dur is None else dur,
        none if ch is None else ch,
    )


def written(events, cuts=()):
    """The file a writer leaves when it is flushed after each index in
    ``cuts``; ``events`` have None in unused slots."""
    buf = io.StringIO()
    writer = tr.TraceWriter(buf)
    for i, ev in enumerate(events):
        writer.batch.append(stored(ev))
        if i in cuts:
            writer.flush()
    digest = writer.hexdigest()
    return buf.getvalue(), digest


@given(event_lists(), st.sets(st.integers(min_value=0, max_value=30)))
@example(ROUND_TRIPS, {0, 2})
def test_writer_output_spans_batches_unchanged(events, cuts):
    text, digest = written(events, cuts)
    whole = tr.HEADER + tr.pack_events(map(stored, events)).decode("ascii")
    assert (text, digest) == (whole, hashlib.sha256(whole.encode("ascii")).hexdigest())
    lines = text.splitlines(keepends=True)
    assert lines[0] == tr.HEADER
    assert all(len(line) == tr.RECORD_CHARS + 1 for line in lines[1:])
    again = list(tr.read_trace(io.StringIO(text)))
    # repr tells 0.0 from -0.0 and keeps every last bit
    assert [list(map(repr, ev)) for ev in again] == [list(map(repr, ev)) for ev in events]
    assert written(again)[1] == digest
    records = list(tr.read_records(io.StringIO(text)))
    assert [list(map(repr, ev)) for ev in records] == [
        list(map(repr, stored(ev))) for ev in events
    ]


def test_an_empty_trace_is_its_header():
    text, digest = written([])
    assert text == tr.HEADER
    assert digest == hashlib.sha256(tr.HEADER.encode("ascii")).hexdigest()
    assert tr.TraceWriter().hexdigest() == digest
    assert list(tr.read_trace(io.StringIO(text))) == []


def test_record_layout():
    ev = (1.5, tr.RX_OK, 7, 9, 3, 0.25, 1)
    (line,) = tr.pack_events([ev]).splitlines()
    assert struct.unpack("<dBiiidb", base64.b64decode(line)) == ev
    (line,) = tr.pack_events([stored((1.5, tr.GENERATED, 7, None, None, None, None))]).splitlines()
    t, kind, node, pkt, peer, dur, ch = struct.unpack("<dBiiidb", base64.b64decode(line))
    assert (t, kind, node, pkt, peer, ch) == (1.5, tr.GENERATED, 7, -1, -1, -1)
    assert dur != dur


@pytest.mark.parametrize("slot, value", [(tr.NODE, 2**31), (tr.PKT, 2**31), (tr.CH, 128)])
def test_a_value_beyond_its_slot_raises_and_never_wraps(slot, value):
    ev = [1.0, tr.TX_START, 1, 2, tr.NONE_INT, 0.5, 0]
    ev[slot] = value
    with pytest.raises(struct.error):
        tr.pack_events([tuple(ev)])


def trace_file(tmp_path, text):
    path = tmp_path / "trace.ndjson"
    path.write_text(text)
    return path


# a version 1 trace line, a missing header and an unknown one, a bad record
V1_LINE = '{"t":0.0,"ev":"Generated","node":101,"pkt":0}\n'
RECORD = tr.pack_events([stored((0.0, tr.GENERATED, 101, 0, None, None, None))]).decode("ascii")
WRONG_FILES = {
    "v1-ndjson": (V1_LINE * 2, 1, "version 1 NDJSON trace"),
    "empty": ("", 1, "no trace header"),
    "no-header": (RECORD * 2, 1, "no trace header"),
    "unknown-version": (tr.HEADER.replace('"version":2', '"version":3') + RECORD, 1, "version 3"),
    "short-record": (tr.HEADER + RECORD + RECORD[:30] + "\n", 3, "base64 record"),
    "long-record": (tr.HEADER + RECORD[:-1] + "AAAA\n", 2, "base64 record"),
    "not-base64": (tr.HEADER + RECORD + "!" * 40 + "\n", 3, "base64 record"),
    "one-bad-char": (tr.HEADER + RECORD[:20] + "*" + RECORD[21:], 2, "base64 record"),
    "padded": (tr.HEADER + RECORD[:36] + "====\n", 2, "base64 record"),
    "no-newline": (tr.HEADER + RECORD[:-1], 2, "base64 record"),
    "non-ascii": (tr.HEADER + "é" * 40 + "\n", 2, "base64 record"),
    "unknown-kind": (
        tr.HEADER + tr.pack_events([stored((0.0, 200, 1, 0, None, None, None))]).decode("ascii"),
        2,
        "unknown event kind 200",
    ),
}


@pytest.mark.parametrize("case", sorted(WRONG_FILES))
def test_a_wrong_file_names_its_file_and_line(tmp_path, case):
    text, lineno, why = WRONG_FILES[case]
    path = trace_file(tmp_path, text)
    with pytest.raises(tr.TraceFormatError, match=why) as exc:
        list(tr.read_trace(path))
    assert str(exc.value).startswith(f"{path}:{lineno}: ")
    assert isinstance(exc.value, ValueError)


# the NDJSON rendering of version 1, pinned line by line
EDGES = [
    ((-0.0, tr.GENERATED, 101, 11, None, None, None), '{"t":-0.0,"ev":"Generated","node":101,"pkt":11}'),
    (
        (1e-07, tr.TX_END, 1, 9, None, 1e16, 0),
        '{"t":1e-07,"ev":"TxEnd","node":1,"pkt":9,"dur":1e+16,"ch":0}',
    ),
    (
        (2.0, tr.RX_OK, 2, 9, 1, -0.0, 0),
        '{"t":2.0,"ev":"RxOk","node":2,"pkt":9,"peer":1,"dur":-0.0,"ch":0}',
    ),
    (
        (1.5, tr.STANDBY_CANCELLED, 3, 7, None, None, None),
        '{"t":1.5,"ev":"StandbyCancelled","node":3,"pkt":7}',
    ),
    (
        (1.5, tr.STANDBY_CANCELLED, 3, 8, 2, None, None),
        '{"t":1.5,"ev":"StandbyCancelled","node":3,"pkt":8,"peer":2}',
    ),
    (
        (3.25, tr.RX_COLLIDED, 5, 70000, 9, 0.014144, 1),
        '{"t":3.25,"ev":"RxCollided","node":5,"pkt":70000,"peer":9,"dur":0.014144,"ch":1}',
    ),
]


def test_ndjson_line_edges():
    for ev, line in EDGES:
        assert tr.ndjson_line(ev) == line + "\n"
