"""The locked LRU cache behind every process-wide memo table."""

from repro.utils.lru import LRUCache


def test_put_keeps_and_returns_the_first_value():
    cache = LRUCache(4)
    first, second = object(), object()
    assert cache.put("k", first) is first
    assert cache.put("k", second) is first
    assert cache.get("k") is first
    assert len(cache) == 1


def test_evicts_the_least_recently_used_entry():
    cache = LRUCache(3)
    for key in "abc":
        cache.put(key, key.upper())
    assert cache.get("a") == "A"  # "b" is now the least recently used
    cache.put("d", "D")
    assert cache.get("b") is None
    assert [cache.get(key) for key in "acd"] == ["A", "C", "D"]
    cache.put("c", "ignored")  # a repeated put refreshes the entry too
    cache.put("e", "E")
    assert cache.get("a") is None
    assert [cache.get(key) for key in "cde"] == ["C", "D", "E"]


def test_lowered_maxsize_trims_on_the_next_put():
    cache = LRUCache(8)
    for i in range(8):
        cache.put(i, i)
    cache.maxsize = 2
    cache.put(8, 8)
    assert len(cache) == 2
    assert cache.get(7) == 7 and cache.get(8) == 8


def test_info_counts_hits_and_misses_until_clear():
    cache = LRUCache(2)
    cache.put("k", 1)
    cache.get("k")
    cache.get("missing")
    assert cache.info() == {"hits": 1, "misses": 1, "size": 1, "maxsize": 2}
    cache.clear()
    assert cache.info() == {"hits": 0, "misses": 0, "size": 0, "maxsize": 2}
