import copy
import pickle

from hypothesis import example, given, strategies as st

from loramesh.mac import DedupCache, TxQueue
from reference import OrderedDictDedup


def test_dedup_first_sighting_caches():
    cache = DedupCache(ttl_s=60.0, capacity=4096)
    assert cache.seen(7, 0.0) is False
    assert cache.seen(7, 1.0) is True
    assert cache.seen(8, 1.0) is False


def test_dedup_ttl_expiry():
    cache = DedupCache(ttl_s=60.0, capacity=4096)
    cache.seen(7, 0.0)
    assert cache.seen(7, 59.9) is True
    # entry inserted at t=0 expires once now - ttl >= 0
    assert cache.seen(7, 60.0) is False
    assert cache.seen(7, 60.1) is True


def test_dedup_capacity_evicts_oldest():
    cache = DedupCache(ttl_s=1e9, capacity=3)
    for pid in (1, 2, 3):
        cache.seen(pid, 0.0)
    cache.seen(4, 0.0)
    assert all(cache.seen(pid, 0.0) for pid in (2, 3, 4))
    assert cache.seen(1, 0.0) is False  # forgotten, treated as new


def test_txqueue_fifo():
    q = TxQueue(capacity=8)
    q.push("a")
    q.push("b")
    assert q
    assert q.pop() == "a"
    assert q.pop() == "b"
    assert not q


def test_txqueue_copies_keep_capacity_and_entries():
    q = TxQueue(capacity=2)
    q.push("a")
    for copied in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
        assert type(copied) is TxQueue and copied.capacity == 2 and list(copied) == ["a"]
        copied.push("b")
        assert copied.push("c") == "a" and list(q) == ["a"]


def test_txqueue_drops_oldest_when_full():
    q = TxQueue(capacity=2)
    assert q.push("a") is None
    assert q.push("b") is None
    evicted = q.push("c")
    assert evicted == "a"
    assert q.pop() == "b"
    assert q.pop() == "c"


# Lookups as (time step, packet id). Steps on a 0.5 s grid against a
# whole-second ttl land stamps exactly at now - ttl; few ids and a small
# capacity make repeats and capacity eviction common.
LOOKUPS = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5]), st.integers(0, 6)), max_size=60
)


@given(LOOKUPS, st.sampled_from([1.0, 2.0, 3.0]), st.integers(1, 4))
@example([(0.0, 1), (2.0, 1)], 2.0, 4)  # stamp exactly at now - ttl expires
@example([(0.0, 1), (0.0, 2), (0.0, 3), (0.0, 1)], 60.0, 2)  # 1 was evicted
def test_dedup_matches_the_ordered_dict_reference(lookups, ttl, capacity):
    cache = DedupCache(ttl, capacity)
    ref = OrderedDictDedup(ttl, capacity)
    now = 0.0
    for step, pid in lookups:
        now += step
        assert cache.seen(pid, now) == ref.seen(pid, now), (now, pid)
