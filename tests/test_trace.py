"""The batched trace encoder writes the bytes of the one-line-per-event rules."""

import hashlib
import io

from hypothesis import example, given, strategies as st

from loramesh import trace as tr


def reference_line(ev):
    """The per-event rules, one event at a time."""
    parts = [f'"t":{ev[tr.T]!r},"ev":"{tr.EVENT_NAMES[ev[tr.KIND]]}","node":{ev[tr.NODE]}']
    if ev[tr.PKT] is not None:
        parts.append(f'"pkt":{ev[tr.PKT]}')
    if ev[tr.PEER] is not None:
        parts.append(f'"peer":{ev[tr.PEER]}')
    if ev[tr.DUR] is not None:
        parts.append(f'"dur":{ev[tr.DUR]!r}')
    if ev[tr.CH] is not None:
        parts.append(f'"ch":{ev[tr.CH]}')
    return "{" + ",".join(parts) + "}"


def reference_text(events):
    return "".join(reference_line(ev) + "\n" for ev in events)


# finite floats only: the trace is JSON, and repr(nan) is not
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 1e-07, 1e16, 5e-324, 0.014144, 1.7976931348623157e308]
)
SLOT = st.none() | st.integers(min_value=0, max_value=10**6)


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
        dur = _reuse(draw, dur, st.none() | FLOATS | st.integers(min_value=0, max_value=3))
        kind = draw(st.integers(min_value=0, max_value=len(tr.EVENT_NAMES) - 1))
        node = draw(st.integers(min_value=0, max_value=2000))
        how = draw(st.sampled_from(("frame", "frame", "channel", "equal", "new")))
        if how == "new" or not events:
            pkt, peer, ch = draw(SLOT), draw(SLOT), draw(SLOT)
        elif how == "channel":
            ch = draw(SLOT)
        elif how == "equal":
            pkt, peer, ch = (None if x is None else int(str(x)) for x in (pkt, peer, ch))
        events.append((t, kind, node, pkt, peer, dur, ch))
    return events


T0 = 1.5
# one frame end: the same pkt and peer objects in every outcome
PKT, PEER = 70000, 9
EDGES = [
    (T0, tr.STANDBY_CANCELLED, 3, 7, None, None, None),
    (T0, tr.STANDBY_CANCELLED, 3, 8, 2, None, None),
    (1e-07, tr.TX_END, 1, 9, None, 1e16, 0),
    (float("1e-07"), tr.RX_OK, 2, 9, 1, 1e16, 0),
    (2.0, tr.RX_OK, 2, 9, 1, 0.0, 0),
    (2.0, tr.RX_OK, 2, 9, 1, -0.0, 0),
    (2.0, tr.RX_OK, 2, 9, 1, 1.0, 0),
    (2.0, tr.RX_OK, 2, 9, 1, 1, 0),
    (2.0, tr.RX_OK, 2, 9, 1, 1.0, 0),
    (0.0, tr.GENERATED, 101, 10, None, None, None),
    (-0.0, tr.GENERATED, 101, 11, None, None, None),
    # outcomes of one frame with a DuplicateSuppressed between them
    (3.25, tr.RX_OK, 4, PKT, PEER, 0.014144, 0),
    (3.25, tr.DUP_SUPPRESSED, 4, PKT, PEER, None, None),
    (3.25, tr.RX_COLLIDED, 5, PKT, PEER, 0.014144, 0),
    # the same pkt, peer and ch under a changed duration
    (4.0, tr.RX_OK, 4, PKT, PEER, 0.02, 0),
    (4.0, tr.RX_OK, 5, PKT, PEER, 0.03, 0),
    # a changed ch under an equal duration
    (5.0, tr.RX_OK, 4, PKT, PEER, 0.03, 0),
    (5.0, tr.RX_OK, 5, PKT, PEER, 0.03, 1),
    # equal but distinct durations with others between them
    (6.0, tr.TX_END, 4, 12, None, 0.014144, 0),
    (6.0, tr.TX_END, 5, 13, None, 0.03, 0),
    (6.0, tr.TX_END, 6, 14, None, float("0.014144"), 0),
    (6.0, tr.TX_END, 7, 15, None, 0.02, 0),
    (6.0, tr.TX_END, 8, 16, None, float(repr(0.03)), 0),
    # the memo's keys are floats: 1 after 1.0, 1.0 after 1, 0.0 after -0.0
    (7.0, tr.TX_END, 1, 17, None, 1.0, 0),
    (7.0, tr.TX_END, 1, 18, None, 0.5, 0),
    (7.0, tr.TX_END, 1, 19, None, 1, 0),
    (7.0, tr.TX_END, 1, 20, None, 0.5, 0),
    (7.0, tr.TX_END, 1, 21, None, 1.0, 0),
    (7.0, tr.TX_END, 1, 22, None, -0.0, 0),
    (7.0, tr.TX_END, 1, 23, None, 0.0, 0),
]


@given(event_lists())
@example(EDGES)
def test_encode_events_matches_the_per_event_rules(events):
    text = tr.encode_events(events)
    assert text == reference_text(events)
    lines = text.splitlines()
    assert len(lines) == len(events)
    for line, ev in zip(lines, events):
        # repr tells 0.0 from -0.0 and 1 from 1.0
        assert list(map(repr, tr.decode_event(line))) == list(map(repr, ev))


@given(event_lists())
@example(EDGES)
def test_writer_output_spans_batches_unchanged(events):
    # enough copies that the writer flushes full batches and a partial one
    stream = events * (tr.BATCH_EVENTS // max(len(events), 1) + 2)
    buf = io.StringIO()
    writer = tr.TraceWriter(buf)
    for ev in stream:
        writer.add(ev)
    digest = writer.hexdigest()
    expected = reference_text(stream)
    assert buf.getvalue() == expected
    assert digest == hashlib.sha256(expected.encode("ascii")).hexdigest()


def test_duration_memo_stays_bounded():
    # more distinct durations than the memo holds, then each again as an
    # equal but distinct float, in reverse
    durations = [0.001 * (k + 1) for k in range(tr.DUR_PIECES_MAX + 40)]
    again = [float(repr(d)) for d in reversed(durations)]
    events = [(1.0, tr.TX_END, 1, k, None, d, 0) for k, d in enumerate(durations + again)]
    for _ in range(2):
        assert tr.encode_events(events) == reference_text(events)
        assert len(tr._dur_pieces) <= tr.DUR_PIECES_MAX
    assert tr.encode_events(EDGES) == reference_text(EDGES)
