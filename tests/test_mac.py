from loramesh.mac import DedupCache, TxQueue


def test_dedup_first_sighting_caches():
    cache = DedupCache()
    assert cache.seen(7, 0.0) is False
    assert cache.seen(7, 1.0) is True
    assert 7 in cache


def test_dedup_ttl_expiry():
    cache = DedupCache(ttl_s=60.0)
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
    assert 1 not in cache
    assert all(pid in cache for pid in (2, 3, 4))
    assert cache.seen(1, 0.0) is False  # forgotten, treated as new


def test_txqueue_fifo():
    q = TxQueue(capacity=8)
    q.push("a")
    q.push("b")
    assert len(q) == 2
    assert q.pop() == "a"
    assert q.pop() == "b"
    assert not q


def test_txqueue_drops_oldest_when_full():
    q = TxQueue(capacity=2)
    assert q.push("a") is None
    assert q.push("b") is None
    evicted = q.push("c")
    assert evicted == "a"
    assert q.pop() == "b"
    assert q.pop() == "c"
