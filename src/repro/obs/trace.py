"""Thread-local tracing scopes: solver counters and timed spans.

The design copies :mod:`repro.core.cancel` exactly, because it solves
the same problem — an orthogonal concern that must reach the probe loops
without signature churn and without perturbing them:

* **Bit-identity when disarmed (and when armed).**  A scope never
  changes a probe: the seams only *count* (``scope.count(...)``) or
  record wall-clock spans, never branch the numeric paths.  With no
  scope armed, every seam is a single thread-local read and a ``None``
  check — the same cost profile as :func:`repro.core.cancel.
  check_cancelled`.
* **No signature churn.**  The owner of a solve (a shard worker, a
  bench harness, a test) installs a :class:`TraceScope` with ``with``;
  the seams in :mod:`repro.algos.search`, :mod:`repro.algos.api`,
  :mod:`repro.algos.batch_api`, :mod:`repro.core.xbatch` and
  :mod:`repro.core.itemstore` report into whatever scope is current on
  their thread.  Solves run entirely on
  one thread, so a thread-local is exact.

Scopes nest: an inner scope shadows the outer one for its ``with`` body
and, by default, folds its counts and spans into the outer scope on
exit (``propagate=False`` keeps them separate).  ``clock`` is injectable
for deterministic tests.

Counter glossary (what the seams report):

=========================  ==============================================
``probe.<kind>.<mode>``    dual-test probe values requested per probe
                           kind/mode, counted where a request leaves its
                           plan: by ``drive_plan`` on the sequential path
                           and by the lockstep coordinator when it
                           collects a round (``-`` for a blank mode:
                           the modeless kinds)
``memo.hit``               accept-memo cache hits (no kernel call)
``memo.call``              distinct kernel accept evaluations
``dispatch.grid``          dual searches dispatched to the vectorized
                           grid tier (one count per search)
``dispatch.scalar``        dual searches dispatched to scalar probing
                           (one count per search)
``xbatch.fused_rounds``    lockstep rounds that fused >= 1 probe group
``xbatch.straggler``       lockstep items that fell back to the
                           sequential per-item path
``xbatch.rows_fused``      probe rows the vectorized engine evaluated in
                           numpy (lockstep rounds and flip-search grid
                           blocks alike)
``xbatch.rows_scalar``     probe rows the vectorized engine handed to the
                           scalar kernel (numpy absent, overflow
                           precheck missed, too few rows, or a kind
                           with no fused lane: ``nonp``, ``pmtn``)
``itemstore.emit``         ItemStore bulk ``emit_window`` calls
=========================  ==============================================
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Optional

__all__ = [
    "TraceScope",
    "TraceWriter",
    "count",
    "count_probe",
    "current_scope",
    "span",
]


class _Scope(threading.local):
    scope: Optional["TraceScope"] = None


_scope = _Scope()


class TraceScope:
    """One armed tracing context (counters + spans) for a ``with`` body.

    ``counts`` maps counter keys (see the module glossary) to ints;
    ``spans`` is a list of dicts ``{"name", "t0", "dur", ...attrs}``
    in completion order.  Both are owned by the scope's thread — a
    scope must never be shared across threads (install one per worker).
    """

    __slots__ = ("name", "counts", "spans", "clock", "propagate", "_prev")

    def __init__(
        self,
        name: str = "trace",
        *,
        clock: Callable[[], float] = time.monotonic,
        propagate: bool = True,
    ) -> None:
        self.name = name
        self.counts: dict[str, int] = {}
        self.spans: list[dict] = []
        self.clock = clock
        self.propagate = propagate
        self._prev: Optional[TraceScope] = None

    def __enter__(self) -> "TraceScope":
        self._prev = _scope.scope
        _scope.scope = self
        return self

    def __exit__(self, *exc) -> None:
        _scope.scope = self._prev
        prev, self._prev = self._prev, None
        if self.propagate and prev is not None:
            prev.merge_counts(self.counts)
            prev.spans.extend(self.spans)

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def count(self, key: str, n: int = 1) -> None:
        counts = self.counts
        counts[key] = counts.get(key, 0) + n

    def merge_counts(self, counts: dict) -> None:
        mine = self.counts
        for key, n in counts.items():
            mine[key] = mine.get(key, 0) + n

    def add_span(self, name: str, t0: float, dur: float, **attrs) -> dict:
        record = {"name": name, "t0": t0, "dur": dur}
        if attrs:
            record.update(attrs)
        self.spans.append(record)
        return record

    def span(self, name: str, **attrs) -> "_Span":
        return _Span(self, name, attrs)

    def snapshot(self) -> dict:
        """JSON-shaped copy of this scope's counts and spans."""
        return {
            "name": self.name,
            "counts": dict(self.counts),
            "spans": list(self.spans),
        }


class _Span:
    """One timed region; records into its scope on exit (no-op unarmed)."""

    __slots__ = ("scope", "span_name", "attrs", "t0")

    def __init__(self, scope: Optional[TraceScope], name: str, attrs) -> None:
        self.scope = scope
        self.span_name = name
        self.attrs = attrs
        self.t0 = 0.0

    def __enter__(self) -> "_Span":
        if self.scope is not None:
            self.t0 = self.scope.clock()
        return self

    def __exit__(self, *exc) -> None:
        scope = self.scope
        if scope is not None:
            scope.add_span(
                self.span_name, self.t0, scope.clock() - self.t0,
                **self.attrs,
            )


def current_scope() -> Optional[TraceScope]:
    """The scope armed on this thread (None outside any scope)."""
    return _scope.scope


def count(key: str, n: int = 1) -> None:
    """Seam-side counter bump: one thread-local read when disarmed."""
    scope = _scope.scope
    if scope is not None:
        counts = scope.counts
        counts[key] = counts.get(key, 0) + n


def count_probe(kind: str, mode: str, n: int) -> None:
    """Count ``n`` probes under ``probe.<kind>.<mode>`` (blank -> ``-``).

    The key string is only built when a scope is armed, so the disarmed
    path stays a thread-local read and a ``None`` check.
    """
    scope = _scope.scope
    if scope is not None:
        key = f"probe.{kind or '-'}.{mode or '-'}"
        counts = scope.counts
        counts[key] = counts.get(key, 0) + n


def span(name: str, **attrs) -> _Span:
    """A timed region recorded into the current scope (no-op unarmed)."""
    return _Span(_scope.scope, name, attrs)


class TraceWriter:
    """Thread-safe JSONL span sink (``--trace FILE``).

    One JSON object per line; writes are serialized under a lock so
    shard workers (on the process backend relaying child span
    summaries) can share one file.  Flushes per record — trace volume
    is per *batch*, not per probe, so the syscall cost is negligible.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")
        self._lock = threading.Lock()

    def write(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":"))
        with self._lock:
            if self._fh.closed:  # late batch racing close(): drop, don't die
                return
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
