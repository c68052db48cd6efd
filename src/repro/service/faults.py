"""Deterministic fault injection for the service layer.

The robustness machinery of :mod:`repro.service` — shard supervision,
deadlines, shedding, structured errors — is only trustworthy if it can
be *driven*: every failure path needs a way to fire on demand, in a
test, deterministically.  A :class:`FaultPlan` is that driver: a fixed,
seeded list of fault specs consumed by the shard workers (via two narrow
hooks) and by the chaos harness (for client-side faults).

The six injection points mirror the real-world failure modes the
supervisor must survive:

* :class:`KillWorker` — raise :class:`WorkerKilled` (a ``BaseException``,
  so it sails past the shard's per-item ``except Exception`` isolation)
  at the start of a shard's N-th micro-batch dispatch: the worker thread
  dies exactly the way an un-catchable defect would.
* :class:`DelaySolve` — sleep inside ``solve_batch`` just before an
  item's solve: an artificially slow request, used to push work past its
  ``timeout_ms`` deadline while it is *in flight*.
* :class:`RaiseInBatch` — raise a ``RuntimeError`` inside
  ``solve_batch``: an unexpected per-request failure, exercising the
  micro-batch isolation fallback and the ``internal`` error path.
* :class:`WedgeSolve` — a **busy loop** before an item's solve that
  ignores cooperative cancellation entirely (no probe boundaries, no
  token checks): the non-cooperative hang a ``timeout_ms`` deadline
  cannot interrupt.  The two worker backends differ by construction
  here, and both behaviors are asserted in ``tests/test_service_faults``:
  a **thread** backend cannot preempt the wedge — it can only shed the
  wedged request at shutdown (``close()`` resolves the future with a
  ``shutdown`` error while the loop runs on in the daemon thread) —
  while a **process** backend SIGKILLs the wedged child once the batch
  deadline plus ``hard_kill_grace_ms`` passes and resolves the request
  with a ``timeout`` error.
* :class:`SigKill` — a **process-targeted** fault: the parent-side
  supervisor SIGKILLs a shard's live child immediately after handing it
  a micro-batch, simulating a segfault/OOM mid-solve.  Meaningful only
  under ``workers="process"`` (a thread backend has no process to
  kill); adjudicated by the supervisor via :meth:`FaultPlan.sigkill_now`
  so a restarted child never resets the firing state.
* :class:`DropConnection` — a **client-side** fault: the chaos harness
  closes its connection after sending N requests mid-burst.  The plan
  only carries the spec (:meth:`FaultPlan.drop_connection_after`); the
  server side must simply survive it.

Under the process backend **every** firing decision is made by the
parent supervisor against the single authoritative plan: batch-level
kills via :meth:`FaultPlan.on_batch_start` / :meth:`FaultPlan.sigkill_now`,
and item-level faults via :meth:`FaultPlan.item_directives`, whose
mechanical outcome (sleep / busy-spin / raise) ships over the pipe for
the child to execute (:func:`execute_directive`).  Arming children with
their own plan copy would be wrong twice over: a freshly restarted
child would re-fire already-consumed faults from reset state (burning
the restart budget, or re-wedging on the recovery request), and
``fired`` counts would be invisible to the parent the tests assert on.

Counters are kept **per shard** (requests route to shards by instance
fingerprint, which is deterministic), so a plan fires at the same
points on every run of the same request sequence.  ``seed`` feeds the
:meth:`FaultPlan.preset` builders, which derive their thresholds from a
``random.Random(seed)`` — the fixed plan set the chaos bench runs under.

Plans round-trip through JSON (:meth:`to_obj` / :meth:`from_obj`) so
``python -m repro.service --faults '<json>'`` can arm a subprocess.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

__all__ = [
    "DelaySolve",
    "DropConnection",
    "FaultPlan",
    "KillWorker",
    "RaiseInBatch",
    "SigKill",
    "WedgeSolve",
    "WorkerKilled",
    "execute_directive",
]


def execute_directive(directive: Optional[dict], *,
                      clock: Callable[[], float] = time.monotonic,
                      sleep: Callable[[float], None] = time.sleep) -> None:
    """Execute one item directive from :meth:`FaultPlan.item_directives`.

    Runs wherever the item is actually solved: in the shard thread
    (thread backend, via :meth:`FaultPlan.on_item`) or in the child
    process (process backend, directive shipped inside the batch frame).
    Order matters and mirrors the historical hook: sleep the delays,
    spin the wedges, then raise.

    ``clock`` and ``sleep`` are injectable (the same pattern as
    :class:`repro.core.cancel.CancelToken` and
    :class:`repro.obs.trace.TraceScope`) so tests can drive the wedge's
    busy-wait and the delay deterministically without wall-clock waits.
    """
    if not directive:
        return
    for seconds in directive.get("delays", ()):
        sleep(seconds)
    for seconds in directive.get("wedges", ()):
        # Busy-wait, never sleep, never check a token: the point is
        # a hang cooperative cancellation cannot reach.
        end = clock() + seconds
        while clock() < end:
            pass
    message = directive.get("raise")
    if message is not None:
        raise RuntimeError(message)


class WorkerKilled(BaseException):
    """The injected worker-thread death (intentionally not an Exception).

    Deriving from ``BaseException`` is the point: the shard's dispatch
    loop isolates per-request failures with ``except Exception``, so an
    injected kill must not be catchable there — it has to unwind the
    whole worker thread and trigger the supervisor, exactly like a
    genuine un-catchable defect would.
    """


@dataclass(frozen=True)
class KillWorker:
    """Kill a shard worker at the start of its ``after_batches+1``-th dispatch."""

    shard: Optional[int] = None   # None: fires on whichever shard gets there
    after_batches: int = 1
    times: int = 1


@dataclass(frozen=True)
class DelaySolve:
    """Sleep ``seconds`` before solving a shard's ``after_items+1``-th item."""

    seconds: float = 0.2
    shard: Optional[int] = None
    after_items: int = 0
    times: int = 1


@dataclass(frozen=True)
class RaiseInBatch:
    """Raise inside ``solve_batch`` before a shard's ``after_items+1``-th item."""

    shard: Optional[int] = None
    after_items: int = 0
    times: int = 1
    message: str = "injected solve failure"


@dataclass(frozen=True)
class WedgeSolve:
    """Busy-loop ``seconds`` before a shard's ``after_items+1``-th item.

    Unlike :class:`DelaySolve` (a plain sleep a thread scheduler can
    work around), the wedge spins without ever checking a cancel token
    — the worker is *gone* for the duration as far as cooperative
    cancellation is concerned.  See the module docstring for how the
    two backends shed it.
    """

    seconds: float = 2.0
    shard: Optional[int] = None
    after_items: int = 0
    times: int = 1


@dataclass(frozen=True)
class SigKill:
    """SIGKILL a shard's child right after its ``after_batches+1``-th dispatch.

    Process backend only; adjudicated parent-side
    (:meth:`FaultPlan.sigkill_now`) so the in-flight micro-batch is
    already in the child when the kill lands — the crash-containment
    path, not the pre-dispatch :class:`KillWorker` path.
    """

    shard: Optional[int] = None
    after_batches: int = 1
    times: int = 1


@dataclass(frozen=True)
class DropConnection:
    """Client-side: the harness drops its connection after N requests."""

    after_requests: int = 8


_KINDS = {
    "kill_worker": KillWorker,
    "delay_solve": DelaySolve,
    "raise_in_batch": RaiseInBatch,
    "wedge_solve": WedgeSolve,
    "sigkill": SigKill,
    "drop_connection": DropConnection,
}
_KIND_OF = {cls: kind for kind, cls in _KINDS.items()}


class FaultPlan:
    """A fixed, seeded set of faults with deterministic firing state.

    One plan instance is shared by every shard of one service (hook
    calls are serialized under an internal lock); ``fired`` exposes how
    often each kind actually fired, so tests and the chaos bench can
    assert the plan was exercised, and stats can be reconciled against
    injected damage.
    """

    def __init__(self, faults: Sequence = (), seed: int = 0) -> None:
        for fault in faults:
            if type(fault) not in _KIND_OF:
                raise ValueError(f"unknown fault spec {fault!r}")
        self.faults = tuple(faults)
        self.seed = seed
        self._lock = threading.Lock()
        self._remaining = [
            getattr(fault, "times", 0) for fault in self.faults
        ]
        self._batches: dict[int, int] = {}   # shard -> dispatches started
        self._items: dict[int, int] = {}     # shard -> items reached
        self.fired: dict[str, int] = {kind: 0 for kind in _KINDS}

    # ------------------------------------------------------------------ #
    # worker-side hooks (called from shard threads)
    # ------------------------------------------------------------------ #

    def on_batch_start(self, shard: int) -> None:
        """Hook: a shard is about to dispatch a micro-batch.  May kill it."""
        with self._lock:
            count = self._batches.get(shard, 0) + 1
            self._batches[shard] = count
            for idx, fault in enumerate(self.faults):
                if (
                    isinstance(fault, KillWorker)
                    and (fault.shard is None or fault.shard == shard)
                    and count > fault.after_batches
                    and self._remaining[idx] > 0
                ):
                    self._remaining[idx] -= 1
                    self.fired["kill_worker"] += 1
                    raise WorkerKilled(
                        f"injected kill: shard {shard}, batch {count}"
                    )

    def item_directives(self, shard: int) -> Optional[dict]:
        """Consume firing state for one item; return what should happen.

        Counts one item reached on ``shard`` and returns the mechanical
        directive ``{"delays": [s, ...], "wedges": [s, ...], "raise":
        msg | None}`` — or ``None`` when nothing fires.  This is the
        decide-without-execute half of :meth:`on_item`: the process
        backend calls it in the *parent* (the single authoritative plan
        — a restarted child must never re-fire from reset state) and
        ships the directive across the pipe for the child to execute
        (:func:`execute_directive`).
        """
        delays: list[float] = []
        wedges: list[float] = []
        raise_msg: Optional[str] = None
        with self._lock:
            count = self._items.get(shard, 0) + 1
            self._items[shard] = count
            for idx, fault in enumerate(self.faults):
                if self._remaining[idx] <= 0:
                    continue
                if isinstance(fault, DelaySolve) and (
                    fault.shard is None or fault.shard == shard
                ) and count > fault.after_items:
                    self._remaining[idx] -= 1
                    self.fired["delay_solve"] += 1
                    delays.append(fault.seconds)
                elif isinstance(fault, WedgeSolve) and (
                    fault.shard is None or fault.shard == shard
                ) and count > fault.after_items:
                    self._remaining[idx] -= 1
                    self.fired["wedge_solve"] += 1
                    wedges.append(fault.seconds)
                elif isinstance(fault, RaiseInBatch) and (
                    fault.shard is None or fault.shard == shard
                ) and count > fault.after_items:
                    self._remaining[idx] -= 1
                    self.fired["raise_in_batch"] += 1
                    if raise_msg is None:
                        raise_msg = fault.message
        if not delays and not wedges and raise_msg is None:
            return None
        return {"delays": delays, "wedges": wedges, "raise": raise_msg}

    def on_item(self, shard: int, item) -> None:
        """Hook: a shard is about to solve one batch item (via ``before_solve``)."""
        execute_directive(self.item_directives(shard))

    def item_hook(self, shard: int) -> Callable:
        """The ``before_solve`` callable a shard passes to ``solve_batch``."""
        return lambda item: self.on_item(shard, item)

    def sigkill_now(self, shard: int) -> bool:
        """Hook: should the supervisor SIGKILL ``shard``'s child mid-batch?

        Called by the process-shard supervisor right after
        :meth:`on_batch_start` for the same dispatch (the batch count it
        reads is the one that call just recorded).  Parent-side by
        design: the parent holds the single authoritative plan, so a
        restarted child cannot reset the firing state.
        """
        with self._lock:
            count = self._batches.get(shard, 0)
            for idx, fault in enumerate(self.faults):
                if (
                    isinstance(fault, SigKill)
                    and (fault.shard is None or fault.shard == shard)
                    and count > fault.after_batches
                    and self._remaining[idx] > 0
                ):
                    self._remaining[idx] -= 1
                    self.fired["sigkill"] += 1
                    return True
        return False

    # ------------------------------------------------------------------ #
    # client-side spec (consumed by the chaos harness, not the server)
    # ------------------------------------------------------------------ #

    def drop_connection_after(self) -> Optional[int]:
        """Requests to send before dropping the connection (None: don't)."""
        for fault in self.faults:
            if isinstance(fault, DropConnection):
                return fault.after_requests
        return None

    # ------------------------------------------------------------------ #
    # JSON round-trip (the ``--faults`` CLI flag)
    # ------------------------------------------------------------------ #

    def to_obj(self) -> dict:
        return {
            "seed": self.seed,
            "faults": [
                {"kind": _KIND_OF[type(fault)], **fault.__dict__}
                for fault in self.faults
            ],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "FaultPlan":
        if not isinstance(obj, dict) or not isinstance(obj.get("faults"), list):
            raise ValueError(f"fault plan must be {{seed, faults: [...]}}, got {obj!r}")
        faults = []
        for spec in obj["faults"]:
            kind = spec.get("kind")
            if kind not in _KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r}; expected one of {sorted(_KINDS)}"
                )
            fields = {k: v for k, v in spec.items() if k != "kind"}
            try:
                faults.append(_KINDS[kind](**fields))
            except TypeError as exc:
                raise ValueError(f"bad fields for fault {kind!r}: {exc}") from None
        return cls(faults, seed=obj.get("seed", 0))

    # ------------------------------------------------------------------ #
    # the fixed chaos-bench plan set
    # ------------------------------------------------------------------ #

    PRESETS = ("kill", "delay", "raise", "drop", "wedge", "sigkill")

    @classmethod
    def preset(cls, name: str, seed: int = 0) -> "FaultPlan":
        """One of the fixed chaos scenarios, thresholds derived from ``seed``.

        ``kill``    — kill shard 0 early, then again (restart supervision);
        ``delay``   — slow two solves well past a short deadline;
        ``raise``   — three injected in-batch failures (isolation fallback);
        ``drop``    — client vanishes mid-burst;
        ``wedge``   — one non-cooperative busy hang (shed at shutdown on
        threads, hard-killed on deadline under processes);
        ``sigkill`` — SIGKILL shard 0's child mid-batch (process backend).
        """
        rng = random.Random(seed)
        if name == "kill":
            faults: tuple = (
                KillWorker(shard=0, after_batches=rng.randint(1, 3)),
                KillWorker(shard=0, after_batches=rng.randint(4, 6)),
            )
        elif name == "delay":
            faults = (
                DelaySolve(seconds=0.25, after_items=rng.randint(0, 3), times=2),
            )
        elif name == "raise":
            faults = (
                RaiseInBatch(after_items=rng.randint(0, 3), times=3),
            )
        elif name == "drop":
            faults = (DropConnection(after_requests=rng.randint(6, 12)),)
        elif name == "wedge":
            faults = (
                WedgeSolve(seconds=1.0, after_items=rng.randint(0, 2)),
            )
        elif name == "sigkill":
            faults = (
                SigKill(shard=0, after_batches=rng.randint(1, 3)),
            )
        else:
            raise ValueError(
                f"unknown preset {name!r}; expected one of {cls.PRESETS}"
            )
        return cls(faults, seed=seed)
