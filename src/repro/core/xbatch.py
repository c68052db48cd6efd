"""The vectorized dual-test engine: probe rows over one or many instances.

The searches of Theorems 2/3/6/8 probe the per-``T`` dual tests of
:mod:`repro.core.fastnum` one candidate at a time.
:meth:`BatchDualContext.evaluate` answers a whole list of probe rows
``(member, tn, td)`` — candidates ``T = tn/td`` over one or several
member instances — in one call.  It serves two callers:

* the lockstep coordinator of :func:`repro.algos.batch_api.solve_batch`
  (``xbatch=True``) advances many items' bracket searches one round at a
  time and hands each round's probe rows, across *different* instances,
  to one evaluation;
* the splittable and preemptive flip searches with ``use_grid=True``
  send each candidate block to a one-member context (every row names
  member 0); their blocks are ``split`` and ``pmtn_base`` rows.

Which kinds fuse:

* ``split`` (Theorem 7) and ``pmtn_base`` (Algorithm 4's monotone core)
  run in one numpy pass.  Their scalar kernels touch every class once
  per probe, so padded ``(members, c_max)`` class columns do the same
  work at array speed (zero padding is neutral: a padded class has
  ``s = P = 0``, so it is never expensive and adds zero setup/load).
  Candidates carry their own denominators (class-jump points ``2P_i/k``
  do), so there is no common scale and no lcm blow-up;
* ``nonp`` (Theorem 9) and ``pmtn`` (Theorem 5) always run on the scalar
  kernel.  It counts every class whose term is fixed by ``T/2`` with one
  bisection of a class table and loops only over the rest, which a
  padded pass over all ``c_max`` classes does not beat (the
  ``speedup/xbatch/*`` cells of ``benchmarks/run_bench.py`` measure it).

Each fused verdict is **bit-identical** to the scalar kernel.  ``int64``
products can wrap silently, so an exact-int overflow precheck
(:func:`_grid_is_safe`, per member) drops unsafe members to the scalar
kernel.  Without numpy the whole evaluation is a pure-Python loop over
:mod:`repro.core.fastnum` — numpy stays optional.

The differential suites (``tests/test_xbatch.py``,
``tests/test_fastnum_differential.py``) assert row-for-row bit-identity
against the scalar kernel on every kind, including the overflow
boundary.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .fastnum import (
    SplitVerdict,
    fast_base_core,
    fast_nonp_test,
    fast_pmtn_test,
    fast_split_test,
)
from .instance import Instance
from ..obs.trace import count as obs_count

try:  # pragma: no cover - exercised via both branches in CI matrices
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = ["BatchDualContext", "HAVE_NUMPY", "PROBE_KINDS"]

#: True when the vectorized tier is available at all.
HAVE_NUMPY = _np is not None

#: The dual-test kinds one batch row can carry.  ``pmtn`` honours a mode
#: (``alpha``/``gamma``); ``pmtn_base`` is Algorithm 4's monotone core.
PROBE_KINDS = ("split", "nonp", "pmtn", "pmtn_base")

#: Conservative ceiling for every vectorized intermediate (int64 headroom).
_GUARD = 1 << 62

#: Cap on ``rows * c_max`` elements per vectorized chunk (bounds temp memory).
_CHUNK_ELEMS = 1 << 22

#: The kinds with a fused numpy lane; the others always probe scalar.
_FUSED_KINDS = ("split", "pmtn_base")

#: Below this many fusable rows a padded kernel dispatch costs more than
#: the scalar probes it replaces; purely a performance cutoff (both
#: paths are bit-identical).
_MIN_FUSED_ROWS = 2


def _ceil_div_np(num, den):
    """Elementwise exact ``ceil(num/den)``, ``den > 0`` (floor-div identity)."""
    return -((-num) // den)


def _maxima(instance: Instance) -> tuple[int, int, int]:
    """Cached ``(max_i P_i, s_max, alpha_cap)`` for the overflow bound.

    ``alpha_cap`` dominates every α-style machine count any lane can
    produce on a *non-trivial* candidate (``tn ≥ spt·td``): there
    ``tn − s_i·td ≥ t^(i)_max·td``, hence ``⌈P_i·td/(tn − s_i·td)⌉ ≤
    ⌈P_i/t^(i)_max⌉``, and the cheap-class counts add at most ``n_i``
    (one machine per big job).
    """
    mx = instance._misc_cache.get("maxima")
    if mx is None:
        alpha_cap = max(
            n + -((-p) // tm)
            for n, p, tm in zip(
                instance.class_sizes, instance.class_processing, instance.class_tmax
            )
        )
        mx = (max(instance.class_processing), instance.smax, alpha_cap)
        instance._misc_cache["maxima"] = mx
    return mx


def _grid_is_safe(instance: Instance, tns: list[int], tds: list[int]) -> bool:
    """Exact-integer bound on every int64 intermediate of one member's rows.

    Conservative: ``K`` dominates every per-class machine count that any
    of the four tests can produce — jump-style counts ``β/γ ≤ ⌈2P/T⌉``
    (the fused ``split``/``pmtn_base`` lanes) via the ``min_tn`` term,
    and α-style counts ``⌈P·td/(tn − s·td)⌉``, which only the scalar
    kinds produce, via ``alpha_cap`` (see :func:`_maxima`), so the bound
    holds whichever kinds fuse.  ``unit``
    dominates every per-class scaled quantity, and each accumulated sum
    touches at most ``c`` classes with a constant factor ≤ 8.  A miss
    only costs speed — the rows drop to the scalar kernel, never
    precision.
    """
    max_tn, min_tn = max(tns), min(tns)
    max_td = max(tds)
    maxP, smax, alpha_cap = _maxima(instance)
    # (maxP + smax): the base-core γ count divides 2(s_i + P_i), not 2P_i.
    K = max((2 * (maxP + smax) * max_td) // min_tn + 2, alpha_cap)
    unit = max(max_tn, 2 * (smax + maxP + 1) * max_td)
    c = len(instance.setups)
    return (
        8 * c * K * unit < _GUARD
        and instance.m * max_tn < _GUARD
        and (instance.total_processing + c * smax * K) * max_td < _GUARD
    )


def _member_cols(instance: Instance) -> tuple:
    """Per-member int64 class columns ``(setups, P)``.

    Parked in the member's misc cache (m-independent, shared by
    cache-sharing ``with_machines`` copies, cleared by
    ``release_caches``) so a warm rep pads the batch arrays from
    ready-made views instead of re-converting the Python lists.
    """
    cols = instance._misc_cache.get("xgrid_cols")
    if cols is None:
        cols = (
            _np.asarray(instance.setups, dtype=_np.int64),
            _np.asarray(instance.class_processing, dtype=_np.int64),
        )
        instance._misc_cache["xgrid_cols"] = cols
    return cols


class BatchDualContext:
    """The member instances of one evaluation and their padded columns.

    ``members`` are the distinct :class:`~repro.core.instance.Instance`
    objects of a batch, keyed by identity (one per fingerprint
    representative or cache-sharing ``with_machines`` copy, so each
    machine count of a fingerprint is its own member), or the single
    instance of a per-instance candidate block.  The context owns the
    padded per-class arrays the fused ``split``/``pmtn_base`` rows read;
    they build lazily on the first fused evaluation from the members'
    cached per-instance columns.
    """

    def __init__(self, members: Sequence[Instance]) -> None:
        self.members = list(members)
        self._pad: Optional[dict] = None

    def member_index(self, instance: Instance) -> int:
        """Index of ``instance`` in ``members`` (appends unseen instances)."""
        for i, member in enumerate(self.members):
            if member is instance:
                return i
        self.members.append(instance)
        self._pad = None  # rebuild lazily
        return len(self.members) - 1

    def _padded(self) -> dict:
        """Padded ``(members, c_max)`` class columns + per-member scalars."""
        pad = self._pad
        if pad is None:
            g = len(self.members)
            c_max = max(len(inst.setups) for inst in self.members)
            S = _np.zeros((g, c_max), dtype=_np.int64)
            P = _np.zeros((g, c_max), dtype=_np.int64)
            for k, inst in enumerate(self.members):
                cS, cP = _member_cols(inst)
                c = len(inst.setups)
                S[k, :c] = cS
                P[k, :c] = cP
            pad = {
                "c_max": c_max,
                "S": S,
                "P": P,
                "m": _np.asarray([inst.m for inst in self.members], dtype=_np.int64),
                "tp": _np.asarray(
                    [inst.total_processing for inst in self.members], dtype=_np.int64
                ),
            }
            self._pad = pad
        return pad

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def scalar_one(self, kind: str, mode: str, mi: int, tn: int, td: int):
        """One probe on the scalar kernel — the exact pure-Python tier."""
        inst = self.members[mi]
        if kind == "split":
            return fast_split_test(inst, tn, td)
        if kind == "nonp":
            return fast_nonp_test(inst, tn, td)
        if kind == "pmtn":
            return fast_pmtn_test(inst, tn, td, mode)
        if kind == "pmtn_base":
            return fast_base_core(inst, tn, td)
        raise ValueError(f"unknown probe kind {kind!r}")

    def evaluate(self, kind: str, mode: str, rows: Sequence[tuple[int, int, int]]):
        """Verdicts for ``rows = [(member_idx, tn, td), ...]``, row order.

        Bit-identical to ``[scalar_one(kind, mode, *row) for row in
        rows]`` on every tier.  ``split`` and ``pmtn_base`` rows run in
        one numpy pass for the members whose rows clear the exact-int
        overflow precheck; the rest of them, every ``nonp``/``pmtn`` row
        (no fused lane: the scalar kernel's class-table bisection beats
        a padded pass), and everything when numpy is unavailable run on
        the scalar kernel.
        """
        if kind not in PROBE_KINDS:
            raise ValueError(f"unknown probe kind {kind!r}")
        out: list = [None] * len(rows)
        fused: list[int] = []
        if HAVE_NUMPY and kind in _FUSED_KINDS and len(rows) >= _MIN_FUSED_ROWS:
            by_member: dict[int, list[int]] = {}
            for j, (mi, _, _) in enumerate(rows):
                by_member.setdefault(mi, []).append(j)
            for mi, idxs in by_member.items():
                tns = [rows[j][1] for j in idxs]
                tds = [rows[j][2] for j in idxs]
                if _grid_is_safe(self.members[mi], tns, tds):
                    fused.extend(idxs)
        if len(fused) < _MIN_FUSED_ROWS:
            fused = []
        if fused:
            obs_count("xbatch.rows_fused", len(fused))
        if len(fused) < len(rows):
            obs_count("xbatch.rows_scalar", len(rows) - len(fused))
        fused_set = set(fused)
        for j, (mi, tn, td) in enumerate(rows):
            if j not in fused_set:
                out[j] = self.scalar_one(kind, mode, mi, tn, td)
        if fused:
            fused.sort()
            mis = _np.asarray([rows[j][0] for j in fused], dtype=_np.int64)
            tns = _np.asarray([rows[j][1] for j in fused], dtype=_np.int64)
            tds = _np.asarray([rows[j][2] for j in fused], dtype=_np.int64)
            lane = self._split_rows if kind == "split" else self._base_rows
            for j, v in zip(fused, lane(mis, tns, tds)):
                out[j] = v
        return out

    def _chunks(self, n_rows: int):
        c_max = self._padded()["c_max"]
        step = max(1, _CHUNK_ELEMS // max(1, c_max))
        for lo in range(0, n_rows, step):
            yield lo, min(n_rows, lo + step)

    # each kernel below mirrors its scalar twin in repro.core.fastnum
    # with the candidate axis as rows and the padded class axis as columns.

    def _split_rows(self, mis, tns, tds) -> list[SplitVerdict]:
        pad = self._padded()
        out: list[SplitVerdict] = []
        for lo, hi in self._chunks(len(mis)):
            mi = mis[lo:hi]
            tn, td = tns[lo:hi, None], tds[lo:hi, None]
            S, P = pad["S"][mi], pad["P"][mi]
            exp = 2 * S * td > tn
            beta = _ceil_div_np(2 * P * td, tn)
            load = pad["tp"][mi] + _np.where(exp, beta * S, S).sum(axis=1)
            m_exp = _np.where(exp, beta, 0).sum(axis=1)
            m = pad["m"][mi]
            acc = (m * tns[lo:hi] >= load * tds[lo:hi]) & (m >= m_exp)
            out.extend(
                SplitVerdict(bool(a), int(l), int(me))
                for a, l, me in zip(acc, load, m_exp)
            )
        return out

    def _base_rows(self, mis, tns, tds) -> list[tuple[int, int]]:
        pad = self._padded()
        out: list[tuple[int, int]] = []
        for lo, hi in self._chunks(len(mis)):
            mi = mis[lo:hi]
            tn, td = tns[lo:hi, None], tds[lo:hi, None]
            S, P = pad["S"][mi], pad["P"][mi]
            total = S + P
            exp = 2 * S * td > tn
            iplus = exp & (total * td >= tn)
            izero = exp & ~iplus & (4 * total * td > 3 * tn)
            iminus = exp & ~iplus & ~izero
            gam = _np.maximum(1, _ceil_div_np(2 * total * td, tn) - 2)
            load = pad["tp"][mi] + _np.where(iplus, gam * S, S).sum(axis=1)
            gsum = _np.where(iplus, gam, 0).sum(axis=1)
            l = izero.sum(axis=1)
            minus = iminus.sum(axis=1)
            m_prime = l + gsum + _ceil_div_np(minus, 2)
            out.extend((int(a), int(b)) for a, b in zip(load, m_prime))
        return out
