"""The packed trace: one record per line, exact round trips, clean refusals,
and the NDJSON rendering."""

import base64
import hashlib
import io
import math
import struct

import pytest
from hypothesis import example, given, strategies as st

from loramesh import trace as tr
from loramesh.cli import main

# finite floats only: the NDJSON rendering is JSON, and repr(nan) is not
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 1e-07, 1e16, 5e-324, 0.014144, 1.7976931348623157e308]
)
# the durations a run writes: finite and not negative, -0.0 among them
DURATIONS = st.floats(min_value=0.0, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 0.014144, 1.7976931348623157e308]
)
# unset slots
NONE, NAN = tr.NONE_INT, tr.NONE_DUR
# the widest values the record's int slots hold, or unset
SLOT = st.just(NONE) | st.integers(min_value=0, max_value=2**31 - 1)
CHANNEL = st.just(NONE) | st.integers(min_value=0, max_value=127)


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
    """Events that a run may write, whose times never decrease and whose
    times, durations and (pkt, peer, ch) often repeat.

    Every outcome of one frame end repeats the previous event's pkt, peer
    and ch objects; sometimes only ch changes, or an equal but distinct
    int stands in. A billed kind always carries a duration. The times are
    drawn in any order and then sorted, which keeps a repeated time's
    objects side by side.
    """
    events = []
    t = dur = None
    pkt = peer = ch = None
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        t = _reuse(draw, t, FLOATS)
        dur = _reuse(draw, dur, st.just(NAN) | DURATIONS)
        kind = draw(st.integers(min_value=0, max_value=len(tr.EVENT_NAMES) - 1))
        if kind in tr.BILLED and dur != dur:
            dur = draw(DURATIONS)
        node = draw(st.integers(min_value=0, max_value=2**31 - 1))
        how = draw(st.sampled_from(("frame", "frame", "channel", "equal", "new")))
        if how == "new" or not events:
            pkt, peer, ch = draw(SLOT), draw(SLOT), draw(CHANNEL)
        elif how == "channel":
            ch = draw(CHANNEL)
        elif how == "equal":
            pkt, peer, ch = (int(str(x)) for x in (pkt, peer, ch))
        events.append((t, kind, node, pkt, peer, dur, ch))
    times = sorted(ev[tr.T] for ev in events)
    return [(t,) + ev[1:] for t, ev in zip(times, events)]


# float edges and every unset slot, at times that never decrease
ROUND_TRIPS = [
    (-0.0, tr.GENERATED, 0, NONE, NONE, NAN, NONE),
    (0.0, tr.DUP_SUPPRESSED, 1, 0, 0, 5e-324, NONE),
    (5e-324, tr.TX_START, 2**31 - 1, 2**31 - 1, NONE, 1.7976931348623157e308, 127),
    (1e16, tr.STANDBY_CANCELLED, 3, NONE, 2, NAN, NONE),
    (1.7976931348623157e308, tr.RX_OK, 1, 0, 0, -0.0, 0),
]


def written(events, cuts=()):
    """The file a writer leaves when it is flushed after each index in ``cuts``."""
    buf = io.StringIO()
    writer = tr.TraceWriter(buf)
    for i, ev in enumerate(events):
        writer.batch.append(ev)
        if i in cuts:
            writer.flush()
    digest = writer.hexdigest()
    return buf.getvalue(), digest


@given(event_lists(), st.sets(st.integers(min_value=0, max_value=30)))
@example(ROUND_TRIPS, {0, 2})
def test_writer_output_spans_batches_unchanged(events, cuts):
    text, digest = written(events, cuts)
    whole = tr.HEADER + tr.pack_events(events).decode("ascii")
    assert (text, digest) == (whole, hashlib.sha256(whole.encode("ascii")).hexdigest())
    lines = text.splitlines(keepends=True)
    assert lines[0] == tr.HEADER
    assert all(len(line) == tr.RECORD_CHARS + 1 for line in lines[1:])
    again = list(tr.read_records(io.StringIO(text)))
    # repr tells 0.0 from -0.0, keeps every last bit and reads NaN as nan
    assert list(map(repr, again)) == list(map(repr, events))
    assert written(again)[1] == digest


def test_an_empty_trace_is_its_header():
    text, digest = written([])
    assert text == tr.HEADER
    assert digest == hashlib.sha256(tr.HEADER.encode("ascii")).hexdigest()
    assert tr.TraceWriter().hexdigest() == digest
    assert list(tr.read_records(io.StringIO(text))) == []


def test_record_layout():
    ev = (1.5, tr.RX_OK, 7, 9, 3, 0.25, 1)
    (line,) = tr.pack_events([ev]).splitlines()
    assert struct.unpack("<dBiiidb", base64.b64decode(line)) == ev
    (line,) = tr.pack_events([(1.5, tr.GENERATED, 7, NONE, NONE, NAN, NONE)]).splitlines()
    t, kind, node, pkt, peer, dur, ch = struct.unpack("<dBiiidb", base64.b64decode(line))
    assert (t, kind, node, pkt, peer, ch) == (1.5, tr.GENERATED, 7, -1, -1, -1)
    assert dur != dur


@pytest.mark.parametrize("slot, value", [(tr.NODE, 2**31), (tr.PKT, 2**31), (tr.CH, 128)])
def test_a_value_beyond_its_slot_raises_and_never_wraps(slot, value):
    ev = [1.0, tr.TX_START, 1, 2, NONE, 0.5, 0]
    ev[slot] = value
    with pytest.raises(struct.error):
        tr.pack_events([tuple(ev)])


def trace_file(tmp_path, text):
    path = tmp_path / "trace.ndjson"
    path.write_text(text)
    return path


# a version 1 trace line, a missing header and an unknown one, a bad record
V1_LINE = '{"t":0.0,"ev":"Generated","node":101,"pkt":0}\n'


def packed(ev):
    """One event's trace line."""
    return tr.pack_events([ev]).decode("ascii")


def line_2(*ev):
    """A trace whose one record, on line 2, is ``ev``."""
    return tr.HEADER + packed(ev)


RECORD = packed((0.0, tr.GENERATED, 101, 0, NONE, NAN, NONE))
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
    "unknown-kind": (line_2(0.0, 200, 1, 0, NONE, NAN, NONE), 2, "unknown event kind 200"),
    # a time must be finite; a duration finite and not negative, or NaN
    # for an unset one, but never unset on a kind that bills its window
    "time-infinite": (line_2(math.inf, tr.GENERATED, 1, 0, NONE, NAN, NONE), 2, "time inf"),
    "time-nan": (line_2(math.nan, tr.GENERATED, 1, 0, NONE, NAN, NONE), 2, "time nan"),
    # times never decrease: a repeated time is kept, a smaller one is not
    "time-goes-back": (
        line_2(5.0, tr.TX_END, 1, 0, NONE, 1.0, 0) + packed((2.0, tr.TX_END, 1, 1, NONE, 1.0, 0)),
        3,
        r"time 2\.0 is before the previous record's 5\.0",
    ),
    "duration-infinite": (line_2(1.0, tr.TX_END, 1, 0, NONE, math.inf, 0), 2, "duration inf"),
    "duration-negative": (line_2(1.0, tr.TX_END, 1, 0, NONE, -50.0, 0), 2, "duration -50.0"),
    "tx-end-no-duration": (line_2(1.0, tr.TX_END, 1, 0, NONE, NAN, 0), 2, "TxEnd has no duration"),
    "rx-ok-no-duration": (line_2(1.0, tr.RX_OK, 1, 0, 2, NAN, 0), 2, "RxOk has no duration"),
    "rx-collided-no-duration": (
        line_2(1.0, tr.RX_COLLIDED, 1, 0, 2, NAN, 0), 2, "RxCollided has no duration"
    ),
    # a node is never negative; pkt, peer and ch are -1 when unset
    "node-negative": (line_2(1.0, tr.GENERATED, -7, 0, NONE, NAN, NONE), 2, "node -7,"),
    "pkt-below-unset": (line_2(1.0, tr.GENERATED, 1, -2, NONE, NAN, NONE), 2, "pkt -2,"),
    "peer-below-unset": (line_2(1.0, tr.RX_OK, 1, 0, -3, 0.1, 0), 2, "peer -3,"),
    "ch-below-unset": (line_2(1.0, tr.TX_START, 1, 0, NONE, 0.1, -5), 2, "ch -5"),
}


def test_a_repeated_time_is_kept(tmp_path):
    # -0.0 and 0.0 are the same time
    times = (0.0, -0.0, 0.0, 1.0, 1.0)
    events = [(t, tr.GENERATED, 1, k, NONE, NAN, NONE) for k, t in enumerate(times)]
    path = trace_file(tmp_path, tr.HEADER + "".join(map(packed, events)))
    assert list(map(repr, tr.read_records(path))) == list(map(repr, events))


@pytest.mark.parametrize("case", sorted(WRONG_FILES))
def test_a_wrong_file_names_its_file_and_line(tmp_path, capsys, case):
    text, lineno, why = WRONG_FILES[case]
    path = trace_file(tmp_path, text)
    with pytest.raises(tr.TraceFormatError, match=why) as exc:
        list(tr.read_records(path))
    assert str(exc.value).startswith(f"{path}:{lineno}: ")
    assert isinstance(exc.value, ValueError)
    # render says the same on one line and exits 2
    assert main(["render", "--trace", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {exc.value}\n"


# the NDJSON rendering of version 1, pinned line by line
EDGES = [
    ((-0.0, tr.GENERATED, 101, 11, NONE, NAN, NONE), '{"t":-0.0,"ev":"Generated","node":101,"pkt":11}'),
    (
        (1e-07, tr.TX_END, 1, 9, NONE, 1e16, 0),
        '{"t":1e-07,"ev":"TxEnd","node":1,"pkt":9,"dur":1e+16,"ch":0}',
    ),
    (
        (2.0, tr.RX_OK, 2, 9, 1, -0.0, 0),
        '{"t":2.0,"ev":"RxOk","node":2,"pkt":9,"peer":1,"dur":-0.0,"ch":0}',
    ),
    (
        (1.5, tr.STANDBY_CANCELLED, 3, 7, NONE, NAN, NONE),
        '{"t":1.5,"ev":"StandbyCancelled","node":3,"pkt":7}',
    ),
    (
        (1.5, tr.STANDBY_CANCELLED, 3, 8, 2, NAN, NONE),
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
