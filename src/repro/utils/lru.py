"""One locked LRU cache for every process-wide memo table.

The gate, gate-PTM and plan caches are shared by every thread of a
process: ``ExecutionService`` dispatcher threads compile and bind plans
while user code does the same on the main thread.  Each
:class:`LRUCache` guards its ``OrderedDict`` with its own lock, so an
eviction can never race a ``move_to_end``.

Values are built outside the lock.  :meth:`LRUCache.put` keeps the first
value stored under a key and returns it, so threads racing to build the
same entry all end up sharing one object.

Pool workers are forked, and a fork can land while another thread holds
a cache lock; the child would inherit it locked with no thread left to
release it.  One ``os.register_at_fork`` hook therefore gives every live
cache a fresh lock in the child.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from typing import Dict, Generic, Hashable, Optional, TypeVar

V = TypeVar("V")


class LRUCache(Generic[V]):
    """A bounded, thread-safe mapping that evicts the least recently used entry.

    ``maxsize`` is a plain attribute: set it at any time and the next
    :meth:`put` trims the cache to it.  :meth:`info` reports the hits
    and misses of :meth:`get` since the last :meth:`clear`.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, V]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        _LIVE.add(self)

    def get(self, key: Hashable) -> Optional[V]:
        """The value under ``key``, now the most recently used, or ``None``."""
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self._misses += 1
                return None
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: V) -> V:
        """Store ``value`` unless ``key`` is already present; return the stored value."""
        with self._lock:
            stored = self._data.setdefault(key, value)
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
            return stored

    def clear(self) -> None:
        """Drop every entry and reset the hit and miss counters."""
        with self._lock:
            self._data.clear()
            self._hits = 0
            self._misses = 0

    def info(self) -> Dict[str, int]:
        """Counters: ``{"hits", "misses", "size", "maxsize"}``."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._data),
                "maxsize": self.maxsize,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


_LIVE: "weakref.WeakSet[LRUCache]" = weakref.WeakSet()


def _renew_locks() -> None:
    for cache in _LIVE:
        cache._lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_locks)
