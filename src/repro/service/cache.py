"""Per-shard LRU of warm instance representatives, with real eviction.

The batched engine's speed comes from reusing one representative
instance's lazy caches per fingerprint (:func:`repro.algos.batch_api.
solve_batch` with a caller-owned ``reps`` mapping).  A service that
keeps every representative forever trades that speed for unbounded
memory — exactly the ``solve_many`` growth the service layer exists to
fix.  :class:`InstanceLRU` is the bounded mapping a shard passes as
``reps``: hits refresh recency, admitting past the bound evicts the
least-recently-used representative *and releases its caches*
(:meth:`~repro.core.instance.Instance.release_caches`, which clears the
shared cache dicts in place, the numpy scratch of the vectorized engine
included).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..core.instance import Instance

__all__ = ["InstanceLRU", "LRUStats"]


@dataclass(frozen=True)
class LRUStats:
    """Counters of one LRU table (monotone except ``entries``)."""

    entries: int
    peak_entries: int
    hits: int
    misses: int
    evictions: int
    max_entries: int


class InstanceLRU:
    """Bounded ``fingerprint → Instance`` mapping with release-on-evict.

    Implements exactly the mapping protocol ``solve_batch`` touches
    (``get`` / ``__setitem__``), plus ``__len__``/``__contains__`` for
    accounting.  Not thread-safe by design: each service shard owns one
    table and is the only thread that touches it (the sharding-by-
    fingerprint invariant).  ``peak_entries`` can never exceed
    ``max_entries`` — eviction happens *before* admission.
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._table: OrderedDict[str, Instance] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._peak = 0

    def get(self, fingerprint: str, default: Optional[Instance] = None):
        inst = self._table.get(fingerprint)
        if inst is None:
            self._misses += 1
            return default
        self._hits += 1
        self._table.move_to_end(fingerprint)
        return inst

    def __setitem__(self, fingerprint: str, instance: Instance) -> None:
        table = self._table
        if fingerprint in table:
            table[fingerprint] = instance
            table.move_to_end(fingerprint)
            return
        while len(table) >= self.max_entries:
            _, evicted = table.popitem(last=False)
            evicted.release_caches()
            self._evictions += 1
        table[fingerprint] = instance
        self._peak = max(self._peak, len(table))

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._table

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        """Evict everything (shutdown hook): releases every cache set."""
        while self._table:
            _, evicted = self._table.popitem(last=False)
            evicted.release_caches()
            self._evictions += 1

    def stats(self) -> LRUStats:
        return LRUStats(
            entries=len(self._table),
            peak_entries=self._peak,
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            max_entries=self.max_entries,
        )
