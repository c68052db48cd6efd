"""The scheduling instance model.

An :class:`Instance` is the quintuple of the paper's Section 1: ``m``
identical machines, ``n`` jobs partitioned into ``c`` non-empty classes
``C_1, ..., C_c``, a processing time ``t_j ∈ N`` per job and a setup time
``s_i`` per class.  Instances are immutable; all aggregate quantities the
algorithms need in O(1) (``P(C_i)``, ``t^(i)_max``, ``N``, ``s_max``) are
computed once, on first read, and then kept on the instance, which keeps
every per-``T`` dual test at O(c) as required by Class Jumping (Sections
3.4, 4.4).  Construction only validates, so an instance that is never
solved (a service request answered on a warm representative) never pays
for them.
"""

from __future__ import annotations

import hashlib
import marshal
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InvalidInstanceError, echo


def _check_m(m) -> None:
    if not isinstance(m, int) or m < 1:
        raise InvalidInstanceError(f"m must be a positive integer, got {echo(m)}")


def _as_int(value, what: str) -> int:
    """Exact integer coercion; rejects floats like ``1.5`` loudly."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInstanceError(f"{what} must be an integer, got {echo(value)}") from None


class JobRef(NamedTuple):
    """Stable identity of a job: class index and position within the class.

    Class indices are 0-based in code (the paper uses 1-based ``i ∈ [c]``).
    """

    cls: int
    idx: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"C{self.cls}#{self.idx}"


@dataclass(frozen=True)
class Instance:
    """An immutable batch-setup scheduling instance.

    Parameters
    ----------
    m:
        Number of identical parallel machines (``m ≥ 1``).
    setups:
        ``setups[i]`` is the setup time ``s_i`` of class ``i`` (non-negative
        integer; the paper assumes ``s_i ≥ 1`` and all provided generators
        follow that, but zero setups are accepted and handled).
    jobs:
        ``jobs[i]`` is the tuple of processing times of the jobs in class
        ``i``; every class is non-empty and every ``t_j ≥ 1``.
    """

    m: int
    setups: tuple[int, ...]
    jobs: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_m(self.m)
        if len(self.setups) != len(self.jobs):
            raise InvalidInstanceError(
                f"setups ({len(self.setups)}) and jobs ({len(self.jobs)}) must have "
                "one entry per class"
            )
        if len(self.jobs) == 0:
            raise InvalidInstanceError("instance needs at least one class")
        for i, s in enumerate(self.setups):
            if not isinstance(s, int) or s < 0:
                raise InvalidInstanceError(f"setup s_{i} must be a non-negative int, got {echo(s)}")
        for i, times in enumerate(self.jobs):
            if len(times) == 0:
                raise InvalidInstanceError(f"class {i} is empty; the paper requires C_i != {{}}")
            for t in times:
                if not isinstance(t, int) or t < 1:
                    raise InvalidInstanceError(
                        f"processing times must be positive ints, class {i} has {echo(t)}"
                    )
        # Lazy per-class caches (built on first use; keyed by class index).
        object.__setattr__(self, "_jobs_sorted_cache", {})
        object.__setattr__(self, "_misc_cache", {})

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def _from_checked(cls, m: int, setups: tuple[int, ...],
                      jobs: tuple[tuple[int, ...], ...],
                      sorted_cache: dict, misc_cache: dict) -> "Instance":
        """An instance on class data that an earlier instance validated.

        Skips ``__post_init__``: only ``m`` is checked, with its rule and
        text.  The two cache dicts are used as they are given, so the
        caller decides what the instance shares.  The protocol's ingest
        passes fresh ones, with the known fingerprint in ``misc_cache``;
        :meth:`with_machines` passes its own, to share them.
        """
        _check_m(m)
        inst = object.__new__(cls)
        put = object.__setattr__
        put(inst, "m", m)
        put(inst, "setups", setups)
        put(inst, "jobs", jobs)
        put(inst, "_jobs_sorted_cache", sorted_cache)
        put(inst, "_misc_cache", misc_cache)
        return inst

    @staticmethod
    def build(m: int, classes: Sequence[tuple[int, Sequence[int]]]) -> "Instance":
        """Build from ``[(s_i, [t_j, ...]), ...]`` — the natural literal form."""
        return Instance(
            m=m,
            setups=tuple(_as_int(s, "setup") for s, _ in classes),
            jobs=tuple(tuple(_as_int(t, "processing time") for t in ts) for _, ts in classes),
        )

    @staticmethod
    def from_flat(
        m: int, setups: Sequence[int], job_classes: Sequence[int], job_times: Sequence[int]
    ) -> "Instance":
        """Build from flat parallel arrays (``job_classes[k]`` is 0-based)."""
        if len(job_classes) != len(job_times):
            raise InvalidInstanceError("job_classes and job_times must have equal length")
        buckets: list[list[int]] = [[] for _ in setups]
        for cls, t in zip(job_classes, job_times):
            if not 0 <= cls < len(setups):
                raise InvalidInstanceError(f"job class {echo(cls)} out of range [0, {len(setups)})")
            buckets[cls].append(_as_int(t, "processing time"))
        return Instance(
            m=m,
            setups=tuple(_as_int(s, "setup") for s in setups),
            jobs=tuple(map(tuple, buckets)),
        )

    # ------------------------------------------------------------------ #
    # aggregates
    # ------------------------------------------------------------------ #
    #
    # Computed on first read and stored in the instance ``__dict__``
    # (``cached_property`` bypasses the frozen ``__setattr__``), so later
    # reads are plain attribute loads.  Equality, hashing and ``repr``
    # are keyed on ``(m, setups, jobs)``, of which these are functions.

    @cached_property
    def class_processing(self) -> tuple[int, ...]:
        """``P(C_i)`` of every class."""
        return tuple(map(sum, self.jobs))

    @cached_property
    def class_tmax(self) -> tuple[int, ...]:
        """``t^(i)_max`` of every class."""
        return tuple(map(max, self.jobs))

    @cached_property
    def class_sizes(self) -> tuple[int, ...]:
        """``n_i = |C_i|`` of every class."""
        return tuple(map(len, self.jobs))

    @cached_property
    def n(self) -> int:
        """Number of jobs."""
        return sum(self.class_sizes)

    @cached_property
    def total_processing(self) -> int:
        """``P(J)`` — total processing time of all jobs."""
        return sum(self.class_processing)

    @cached_property
    def total_load(self) -> int:
        """``N = P(J) + Σ s_i`` — the total load with one setup per class."""
        return sum(self.setups) + self.total_processing

    @cached_property
    def smax(self) -> int:
        """``s_max`` — the largest setup time."""
        return max(self.setups)

    @cached_property
    def tmax(self) -> int:
        """``t_max`` — the largest processing time."""
        return max(self.class_tmax)

    @property
    def c(self) -> int:
        """Number of classes."""
        return len(self.setups)

    @property
    def delta(self) -> int:
        """``Δ = max{s_max, t_max}`` — the largest input value (Theorem 8)."""
        return max(self.smax, self.tmax)

    def processing(self, cls: int) -> int:
        """``P(C_i)`` — total processing time of class ``cls``."""
        return self.class_processing[cls]

    def job_time(self, job: JobRef) -> int:
        """Processing time ``t_j`` of a :class:`JobRef`."""
        return self.jobs[job.cls][job.idx]

    def iter_jobs(self) -> Iterator[tuple[JobRef, int]]:
        """Yield ``(JobRef, t_j)`` for every job, grouped by class."""
        for cls, times in enumerate(self.jobs):
            for idx, t in enumerate(times):
                yield JobRef(cls, idx), t

    def class_jobs(self, cls: int) -> tuple[tuple[JobRef, int], ...]:
        """Cached ``(JobRef, t_j)`` tuple of one class (integer times).

        One :class:`JobRef` per job, built on first call and kept in the
        shared misc cache under ``("jobs", cls)``.  The scaled-integer
        engines never call it for a whole class: they read ``jobs[cls]``
        and take a job's index from its position (see :meth:`Batch.whole
        <repro.core.wrapping.Batch.whole>`), so a full splittable solve
        builds none.  Its readers are the constructions that pick or cut
        single jobs (Algorithm 3's non-nice steps, Algorithm 6, Lemma 9's
        next-fit, the baselines), the Fraction reference engines and
        Algorithm 2's ``I⁻exp`` step.  The returned tuple is shared — do
        not mutate.
        """
        cached = self._misc_cache.get(("jobs", cls))
        if cached is None:
            cached = tuple(
                (JobRef(cls, idx), t) for idx, t in enumerate(self.jobs[cls])
            )
            self._misc_cache[("jobs", cls)] = cached
        return cached

    def class_jobs_sorted(self, cls: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Cached ``(sorted processing times, prefix sums)`` of one class.

        ``prefix[k] = Σ sorted_times[:k]`` (so ``prefix`` has ``n_i + 1``
        entries).  The scaled-integer dual tests bisect these to count and
        weigh threshold sets (``J⁺``, ``K``, ``C*_i``) in O(log n_i) instead
        of rescanning the class.
        """
        cached = self._jobs_sorted_cache.get(cls)
        if cached is None:
            ts = tuple(sorted(self.jobs[cls]))
            prefix = [0]
            for t in ts:
                prefix.append(prefix[-1] + t)
            cached = (ts, tuple(prefix))
            self._jobs_sorted_cache[cls] = cached
        return cached

    def class_prefix(self, cls: int) -> tuple[int, ...]:
        """Cached prefix sums of one class's processing times in job order.

        ``prefix[k] = Σ jobs[cls][:k]`` (``n_i + 1`` entries, strictly
        increasing since ``t_j ≥ 1``).  The Algorithm-6 store tier bisects
        these to turn quota wraps and machine fills into window emissions
        (:meth:`repro.core.itemstore.ItemStore.emit_window`) — one bulk
        extend per machine instead of per-job placement work.
        """
        cached = self._misc_cache.get(("prefix", cls))
        if cached is None:
            prefix = [0]
            for t in self.jobs[cls]:
                prefix.append(prefix[-1] + t)
            cached = tuple(prefix)
            self._misc_cache[("prefix", cls)] = cached
        return cached

    def fingerprint(self) -> str:
        """Stable content digest of ``(setups, jobs)`` — machine-count free.

        Two instances share a fingerprint iff they may share caches (the
        :func:`~repro.algos.batch_api.solve_many` rep key, the service
        shard key): the digest covers the class data only, so ``m``
        sweeps of one instance all land on the same fingerprint.  The
        digest is blake2b-128 of ``marshal.dumps((setups, jobs), 2)``,
        one C-level pass over the nested tuples.  Version 2 writes no
        back-references, so the bytes depend only on the values and the
        nesting, never on which row or int objects are shared; every
        tuple is length-prefixed and every int is encoded exactly at any
        size, so distinct class data gives distinct bytes.  ``marshal``
        refuses int subclasses (an ``IntEnum`` an in-process caller may
        pass); those are hashed as the plain ints they hold, so they
        match the plain-int instance they equal.  The hex string is
        stable across processes of one interpreter version, which lets
        the process backend ship it to its children and a client pin
        requests to shards deterministically; shard placement
        (:func:`repro.service.shards.shard_index`) follows it, so a
        change of encoding moves every instance to another shard.
        Cached in the shared misc cache, so ``with_machines(...,
        share_caches=True)`` copies inherit it without re-hashing, and
        the service's wire ingest seeds it on a repeated payload text.
        """
        cached = self._misc_cache.get("fingerprint")
        if cached is None:
            try:
                data = marshal.dumps((self.setups, self.jobs), 2)
            except ValueError:
                # ``int.__index__`` reads the stored value, whatever the
                # subclass overrides.
                data = marshal.dumps((
                    tuple(map(int.__index__, self.setups)),
                    tuple(tuple(map(int.__index__, ts)) for ts in self.jobs),
                ), 2)
            cached = hashlib.blake2b(data, digest_size=16).hexdigest()
            self._misc_cache["fingerprint"] = cached
        return cached

    def cache_stats(self) -> dict[str, int]:
        """Entry counts of the lazy caches (service eviction accounting).

        ``sorted_views`` counts the per-class sorted views; ``misc``
        counts everything else, including the int64 scratch
        :mod:`repro.core.xbatch` parks there.  Both counts are for the
        *shared* cache set — cache-sharing ``with_machines`` copies
        report the same numbers.
        """
        return {
            "sorted_views": len(self._jobs_sorted_cache),
            "misc": len(self._misc_cache),
        }

    def release_caches(self) -> None:
        """Drop every lazily built cache (the service LRU eviction hook).

        Clears both cache dicts *in place*, so cache-sharing copies hand
        their memory back too — that is the point of evicting a
        fingerprint — including the numpy scratch :mod:`repro.core.xbatch`
        keeps in the misc cache.  The instance stays fully usable: every
        cache rebuilds on demand, bit-identically, at the usual
        construction cost.
        """
        self._jobs_sorted_cache.clear()
        self._misc_cache.clear()

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #

    def describe(self) -> str:
        """One-line summary used by examples and experiment logs."""
        return (
            f"Instance(m={self.m}, n={self.n}, c={self.c}, N={self.total_load}, "
            f"smax={self.smax}, tmax={self.tmax})"
        )

    def with_machines(self, m: int, *, share_caches: bool = False) -> "Instance":
        """Copy with a different machine count (used by sweeps).

        With ``share_caches=True`` the copy reuses this instance's lazy
        caches — job views, sorted views with prefix sums, and the misc
        cache with the search bounds and the :mod:`repro.core.xbatch`
        scratch — all machine-count independent, so every dual-test
        kernel reads the copy exactly like a fresh instance on ``m``
        machines.  Validation is skipped and the aggregates are copied
        from this already-validated instance, which computes them on the
        first copy if nothing has read them yet, so they are computed
        once per cache set and each copy is O(c) instead of O(n).  This
        is the primitive behind
        :func:`repro.algos.batch_api.sweep_machines`.
        """
        if not share_caches:
            return Instance(m=m, setups=self.setups, jobs=self.jobs)
        inst = Instance._from_checked(
            m, self.setups, self.jobs, self._jobs_sorted_cache, self._misc_cache
        )
        put = object.__setattr__
        for name in (
            "class_processing", "class_tmax", "class_sizes",
            "n", "total_processing", "total_load", "smax", "tmax",
        ):
            put(inst, name, getattr(self, name))
        return inst


def concat_instances(m: int, parts: Iterable[Instance]) -> Instance:
    """Union of the classes of several instances on ``m`` machines.

    Used by generators to compose adversarial families from building blocks.
    """
    setups: list[int] = []
    jobs: list[tuple[int, ...]] = []
    for part in parts:
        setups.extend(part.setups)
        jobs.extend(part.jobs)
    return Instance(m=m, setups=tuple(setups), jobs=tuple(jobs))
