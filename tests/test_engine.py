import pytest
from hypothesis import given, strategies as st

from loramesh.engine import EventQueue, RngStreams


def test_event_queue_orders_by_time():
    q = EventQueue()
    seen = []
    q.push(3.0, seen.append, ("c",))
    q.push(1.0, seen.append, ("a",))
    q.push(2.0, seen.append, ("b",))
    while q:
        fn, args = q.pop()
        fn(*args)
    assert seen == ["a", "b", "c"]
    assert q.now == 3.0


def test_event_queue_ties_pop_in_push_order():
    q = EventQueue()
    seen = []
    for tag in range(20):
        q.push(5.0, seen.append, (tag,))
    while q:
        fn, args = q.pop()
        fn(*args)
    assert seen == list(range(20))


def test_event_queue_rejects_past():
    q = EventQueue()
    q.push(1.0, lambda: None)
    q.pop()
    with pytest.raises(ValueError):
        q.push(0.5, lambda: None)


def test_event_queue_peek_and_truthiness():
    q = EventQueue()
    assert q.peek_time() is None
    assert not q
    q.push(2.0, lambda: None)
    q.push(1.0, lambda: None)
    assert q.peek_time() == 1.0
    q.pop()
    assert q
    assert q.peek_time() == 2.0
    q.pop()
    assert not q


def test_rng_streams_reproducible():
    a = RngStreams(42)
    b = RngStreams(42)
    xs = [a.uniform(7, "mac", 0.0, 1.0) for _ in range(10)]
    ys = [b.uniform(7, "mac", 0.0, 1.0) for _ in range(10)]
    assert xs == ys


def test_rng_streams_independent_by_uid_and_purpose():
    r = RngStreams(42)
    base = [r.uniform(7, "mac", 0.0, 1.0) for _ in range(5)]
    other_uid = [r.uniform(8, "mac", 0.0, 1.0) for _ in range(5)]
    other_purpose = [r.uniform(7, "traffic", 0.0, 1.0) for _ in range(5)]
    assert base != other_uid
    assert base != other_purpose


def test_rng_streams_draws_elsewhere_do_not_perturb():
    a = RngStreams(1)
    b = RngStreams(1)
    for _ in range(100):
        a.uniform(99, "traffic", 0.0, 1.0)
    xs = [a.uniform(3, "standby", 0.0, 1.0) for _ in range(5)]
    ys = [b.uniform(3, "standby", 0.0, 1.0) for _ in range(5)]
    assert xs == ys


def test_rng_streams_different_seed_differs():
    assert RngStreams(1).uniform(0, "mac", 0.0, 1.0) != RngStreams(2).uniform(
        0, "mac", 0.0, 1.0
    )


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=500))
def test_rng_uniform_respects_bounds(seed, uid):
    r = RngStreams(seed)
    x = r.uniform(uid, "mac", 10.0, 100.0)
    assert 10.0 <= x <= 100.0

