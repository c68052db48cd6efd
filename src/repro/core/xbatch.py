"""The vectorized dual-test engine: probe rows over one or many instances.

The searches of Theorems 2/3/6/8 probe the per-``T`` dual tests of
:mod:`repro.core.fastnum` one candidate at a time.
:meth:`BatchDualContext.evaluate` answers a whole list of probe rows
``(member, tn, td)`` — candidates ``T = tn/td`` over one or several
member instances — in one numpy evaluation.  It serves two callers:

* the lockstep coordinator of :func:`repro.algos.batch_api.solve_batch`
  (``xbatch=True``) advances many items' bracket searches one round at a
  time and hands each round's probe rows, across *different* instances,
  to one evaluation;
* the splittable and preemptive flip searches with ``use_grid=True``
  send each candidate block to a one-member context (every row names
  member 0).

The layout:

* every member :class:`~repro.core.instance.Instance` contributes its
  per-class columns to padded ``(members, c_max)`` arrays (zero padding
  is neutral for all four duals: a padded class has ``s = P = t_max =
  0``, so it is never expensive, never cheap-with-stars, and adds zero
  setup/load).  Candidates carry their own denominators (class-jump
  points ``2P_i/k`` do), so there is no common scale and no lcm blow-up;
* the per-class sorted job views concatenate into one **flat key space**
  keyed by a global class slot (member offset + class offset): slot
  ``g`` owns keys in ``[g·spacing, (g+1)·spacing)``, with one trailing
  *empty* slot for padded lanes, so all ``rows × c_max`` job-threshold
  queries resolve in a single ``searchsorted``;
* each verdict is **bit-identical** to the scalar kernel.  ``int64``
  products can wrap silently, so an exact-int overflow precheck
  (:func:`_grid_is_safe` per member, plus the global flat-key bound)
  drops unsafe members to the scalar kernel.  The preemptive case-3a
  lanes that reach the continuous knapsack (an inherently sequential
  greedy) resolve through the scalar kernel lane by lane.  Without
  numpy the whole evaluation is a pure-Python loop over
  :mod:`repro.core.fastnum` — numpy stays optional.

The differential suites (``tests/test_xbatch.py``,
``tests/test_fastnum_differential.py``) assert row-for-row bit-identity
against the scalar kernel on every kind, including the overflow
boundary.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .bounds import setup_plus_tmax
from .fastnum import (
    NonpVerdict,
    PmtnVerdict,
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
    of the tests can produce — jump-style counts ``β/γ ≤ ⌈2P/T⌉`` via
    the ``min_tn`` term, α-style counts ``⌈P·td/(tn − s·td)⌉`` via
    ``alpha_cap`` (see :func:`_maxima`; masked lanes are clamped to 1 in
    the kernels so no other quotient feeds a product).  ``unit``
    dominates every per-class scaled quantity, and each accumulated sum
    touches at most ``c`` classes with a constant factor ≤ 8.  A miss
    only costs speed — the rows drop to the scalar kernel, never
    precision.  The flat key space has its own bound
    (:meth:`BatchDualContext._flat_keys_safe`).
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
    """Per-member int64 class columns ``(setups, P, class_tmax)``.

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
            _np.asarray(instance.class_tmax, dtype=_np.int64),
        )
        instance._misc_cache["xgrid_cols"] = cols
    return cols


def _member_segments(instance: Instance) -> dict:
    """Per-member pieces of the flat sorted-key layout, batch-independent.

    The batch layout interleaves every member's per-class sorted keys
    into one global key space; the only batch-dependent parts of that
    are the slot offsets and the spacing.  Everything member-local —
    concatenated sorted keys, each key's class id, prefix sums, and the
    per-class counts — is computed once per instance and parked in its
    shared misc cache, so assembling a fresh batch layout
    is a handful of vectorised ops per member rather than a Python loop
    over every class of every member.
    """
    seg = instance._misc_cache.get("xgrid_segments")
    if seg is None:
        c = len(instance.setups)
        keys_parts = []
        prefix_parts = []
        counts = _np.empty(c, dtype=_np.int64)
        plens = _np.empty(c, dtype=_np.int64)
        for ci in range(c):
            ts, prefix = instance.class_jobs_sorted(ci)
            keys_parts.append(_np.asarray(ts, dtype=_np.int64))
            prefix_parts.append(_np.asarray(prefix, dtype=_np.int64))
            counts[ci] = len(ts)
            plens[ci] = len(prefix)
        seg = {
            "keys": _np.concatenate(keys_parts)
            if keys_parts
            else _np.empty(0, dtype=_np.int64),
            "class_of_key": _np.repeat(
                _np.arange(c, dtype=_np.int64), counts
            ),
            "prefix": _np.concatenate(prefix_parts)
            if prefix_parts
            else _np.empty(0, dtype=_np.int64),
            "counts": counts,
            "plens": plens,
        }
        instance._misc_cache["xgrid_segments"] = seg
    return seg


class BatchDualContext:
    """Ragged→flat mapping over the member instances of one evaluation.

    ``members`` are the distinct :class:`~repro.core.instance.Instance`
    objects of a batch, keyed by identity (one per fingerprint
    representative or cache-sharing ``with_machines`` copy, so each
    machine count of a fingerprint is its own member), or the single
    instance of a per-instance candidate block.  The context owns the
    padded per-class arrays and the global flat sorted-key layout; both
    build lazily on the first fused evaluation from the members'
    cached per-instance columns and sorted views.
    """

    def __init__(self, members: Sequence[Instance]) -> None:
        self.members = list(members)
        self._pad: Optional[dict] = None
        self._flat: Optional[dict] = None
        self._flat_safe: Optional[bool] = None

    def member_index(self, instance: Instance) -> int:
        """Index of ``instance`` in ``members`` (appends unseen instances)."""
        for i, member in enumerate(self.members):
            if member is instance:
                return i
        self.members.append(instance)
        self._pad = self._flat = self._flat_safe = None  # rebuild lazily
        return len(self.members) - 1

    # ------------------------------------------------------------------ #
    # lazily built batch-level layouts
    # ------------------------------------------------------------------ #

    def _padded(self) -> dict:
        """Padded ``(members, c_max)`` class columns + per-member scalars."""
        pad = self._pad
        if pad is None:
            g = len(self.members)
            c_max = max(len(inst.setups) for inst in self.members)
            S = _np.zeros((g, c_max), dtype=_np.int64)
            P = _np.zeros((g, c_max), dtype=_np.int64)
            tmax = _np.zeros((g, c_max), dtype=_np.int64)
            for k, inst in enumerate(self.members):
                cS, cP, ctm = _member_cols(inst)
                c = len(inst.setups)
                S[k, :c] = cS
                P[k, :c] = cP
                tmax[k, :c] = ctm
            pad = {
                "c_max": c_max,
                "S": S,
                "P": P,
                "tmax": tmax,
                "m": _np.asarray([inst.m for inst in self.members], dtype=_np.int64),
                "tp": _np.asarray(
                    [inst.total_processing for inst in self.members], dtype=_np.int64
                ),
                "spt": _np.asarray(
                    [setup_plus_tmax(inst) for inst in self.members], dtype=_np.int64
                ),
            }
            self._pad = pad
        return pad

    def _flat_layout(self) -> dict:
        """Global flat sorted-key space over every member's classes.

        Class ``ci`` of member ``mi`` owns global slot ``slot_base[mi] +
        ci``; slot ``n_slots`` is the empty dummy slot every padded lane
        points at (searchsorted past the last real key ⟹ count 0,
        weight 0).  ``spacing`` exceeds every job length of every
        member, so slot key ranges stay disjoint.
        """
        flat = self._flat
        if flat is None:
            pad = self._padded()
            g, c_max = len(self.members), pad["c_max"]
            spacing = max(inst.tmax for inst in self.members) + 2
            cs = [len(inst.setups) for inst in self.members]
            slot_base = [0] * g
            for k in range(1, g):
                slot_base[k] = slot_base[k - 1] + cs[k - 1]
            n_slots = slot_base[-1] + cs[-1]
            # (members, c_max) global slot ids; padded lanes → dummy slot
            slot = _np.full((g, c_max), n_slots, dtype=_np.int64)
            keys_parts = []
            prefix_parts = []
            counts_parts = []
            plens_parts = []
            for k, inst in enumerate(self.members):
                seg = _member_segments(inst)
                slot[k, : cs[k]] = slot_base[k] + _np.arange(cs[k], dtype=_np.int64)
                keys_parts.append(
                    seg["keys"] + (seg["class_of_key"] + slot_base[k]) * spacing
                )
                prefix_parts.append(seg["prefix"])
                counts_parts.append(seg["counts"])
                plens_parts.append(seg["plens"])
            counts_all = _np.concatenate(counts_parts)  # slot order
            pos = int(counts_all.sum())
            noff = _np.zeros(n_slots + 2, dtype=_np.int64)
            _np.cumsum(counts_all, out=noff[1 : n_slots + 1])
            noff[n_slots + 1] = pos
            poff = _np.zeros(n_slots + 1, dtype=_np.int64)
            _np.cumsum(_np.concatenate(plens_parts), out=poff[1:])
            counts = _np.zeros(n_slots + 1, dtype=_np.int64)
            counts[:n_slots] = counts_all
            # dummy slot: zero keys, a single 0-prefix entry
            prefix_parts.append(_np.zeros(1, dtype=_np.int64))
            flat = {
                "spacing": spacing,
                "slot": slot,
                "n_slots": n_slots,
                "keys": _np.concatenate(keys_parts)
                if keys_parts
                else _np.empty(0, dtype=_np.int64),
                "prefix": _np.concatenate(prefix_parts),
                "noff": noff,
                "poff": poff,
                "counts": counts,
            }
            self._flat = flat
        return flat

    def _flat_keys_safe(self) -> bool:
        """Does the *global* key space fit int64 with headroom?"""
        safe = self._flat_safe
        if safe is None:
            spacing = max(inst.tmax for inst in self.members) + 2
            n_slots = sum(len(inst.setups) for inst in self.members)
            safe = (n_slots + 2) * spacing < _GUARD
            self._flat_safe = safe
        return safe

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
        rows]`` on every tier: fused numpy for the members whose rows
        clear the exact-int overflow precheck, the scalar kernel for the
        rest (and for everything when numpy is unavailable).
        """
        if kind not in PROBE_KINDS:
            raise ValueError(f"unknown probe kind {kind!r}")
        out: list = [None] * len(rows)
        fused: list[int] = []
        if HAVE_NUMPY and len(rows) >= _MIN_FUSED_ROWS:
            need_flat = kind in ("nonp", "pmtn")
            flat_ok = not need_flat or self._flat_keys_safe()
            if flat_ok:
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
            if kind == "split":
                verdicts = self._split_rows(mis, tns, tds)
            elif kind == "pmtn_base":
                verdicts = self._base_rows(mis, tns, tds)
            elif kind == "nonp":
                verdicts = self._nonp_rows(mis, tns, tds)
            else:
                verdicts = self._pmtn_rows(mis, tns, tds, mode)
            for j, v in zip(fused, verdicts):
                out[j] = v
        return out

    def _chunks(self, n_rows: int, fine: int = 1):
        c_max = self._padded()["c_max"]
        step = max(1, _CHUNK_ELEMS // max(1, fine * c_max))
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

    def _nonp_rows(self, mis, tns, tds) -> list[NonpVerdict]:
        pad = self._padded()
        flat = self._flat_layout()
        out: list[Optional[NonpVerdict]] = [None] * len(mis)
        trivial = tns < pad["spt"][mis] * tds
        for j in _np.nonzero(trivial)[0]:
            inst = self.members[int(mis[j])]
            out[int(j)] = NonpVerdict(False, inst.total_load, inst.m + 1)  # Note 2
        live = _np.nonzero(~trivial)[0]
        spacing, hi_clip = flat["spacing"], flat["spacing"] - 2
        keys, prefix = flat["keys"], flat["prefix"]
        noff, poff, counts = flat["noff"], flat["poff"], flat["counts"]
        for lo, hi in self._chunks(len(live), fine=4):
            idx = live[lo:hi]
            mi = mis[idx]
            tn, td = tns[idx, None], tds[idx, None]
            td2 = 2 * td
            S, P = pad["S"][mi], pad["P"][mi]
            slot = flat["slot"][mi]
            base = slot * spacing
            std = S * td
            cap = tn - std
            exp = 2 * std > tn
            m_exp = _ceil_div_np(P * td, cap)
            q_big = base + _np.clip(tn // td2, 0, hi_clip)
            cut_big = (
                _np.searchsorted(keys, q_big.ravel(), side="right").reshape(q_big.shape)
                - noff[slot]
            )
            n_big = counts[slot] - cut_big
            w_big = P - prefix[poff[slot] + cut_big]
            q_ge = base + _np.clip((tn - 2 * std) // td2, 0, hi_clip)
            cut_ge = (
                _np.searchsorted(keys, q_ge.ravel(), side="right").reshape(q_ge.shape)
                - noff[slot]
            )
            k_weight = (P - prefix[poff[slot] + cut_ge]) - w_big
            m_chp = n_big + _np.where(
                k_weight > 0, _ceil_div_np(k_weight * td, cap), 0
            )
            m_i = _np.where(exp, m_exp, m_chp)
            load = (
                pad["tp"][mi]
                + (m_i * S).sum(axis=1)
                + _np.where(P * td > m_i * cap, S, 0).sum(axis=1)
            )
            m_prime = m_i.sum(axis=1)
            m = pad["m"][mi]
            acc = (m * tns[idx] >= load * tds[idx]) & (m >= m_prime)
            for k, j in enumerate(idx):
                out[int(j)] = NonpVerdict(bool(acc[k]), int(load[k]), int(m_prime[k]))
        return out  # type: ignore[return-value]

    def _pmtn_rows(self, mis, tns, tds, mode: str) -> list[PmtnVerdict]:
        pad = self._padded()
        flat = self._flat_layout()
        out: list[Optional[PmtnVerdict]] = [None] * len(mis)
        trivial = tns < pad["spt"][mis] * tds
        for j in _np.nonzero(trivial)[0]:
            inst = self.members[int(mis[j])]
            out[int(j)] = PmtnVerdict(False, inst.total_load, 0, "trivial", False)
        live = _np.nonzero(~trivial)[0]
        spacing, hi_clip = flat["spacing"], flat["spacing"] - 2
        keys, prefix = flat["keys"], flat["prefix"]
        noff, poff, counts = flat["noff"], flat["poff"], flat["counts"]
        for lo, hi in self._chunks(len(live), fine=4):
            idx = live[lo:hi]
            mi = mis[idx]
            tn, td = tns[idx, None], tds[idx, None]
            td2 = 2 * td
            S, P, tmax = pad["S"][mi], pad["P"][mi], pad["tmax"][mi]
            total = S + P
            std = S * td
            exp = 2 * std > tn
            iplus = exp & (total * td >= tn)
            izero = exp & ~iplus & (4 * total * td > 3 * tn)
            iminus = exp & ~iplus & ~izero
            if mode == "alpha":
                # κ = max(1, ⌊P·td/(tn−s·td)⌋).  Off the I⁺exp lanes the
                # denominator is forced positive AND κ is clamped to 1:
                # masked-lane quotients would otherwise feed ``κ·s``
                # products the overflow precheck does not (and need not)
                # bound.
                k = _np.where(
                    iplus,
                    _np.maximum(1, (P * td) // _np.where(iplus, tn - std, 1)),
                    1,
                )
            else:
                num2 = 2 * P * td
                bp = num2 // tn
                cond = num2 - bp * tn <= 2 * (tn - std)
                k = _np.where(cond, _np.maximum(bp, 1), _ceil_div_np(num2, tn))
            load = pad["tp"][mi] + _np.where(iplus, k * S, S).sum(axis=1)
            counts_sum = _np.where(iplus, k, 0).sum(axis=1)
            l = izero.sum(axis=1)
            n_minus = iminus.sum(axis=1)
            base_sum = _np.where(iplus, k * S + P, 0)
            chp_plus = ~exp & (4 * std >= tn)
            base_sum = base_sum + _np.where(iminus | chp_plus, total, 0)
            star = ~exp & ~chp_plus & (2 * (S + tmax) * td > tn)
            slot = flat["slot"][mi]
            q = slot * spacing + _np.clip((tn - 2 * std) // td2, 0, hi_clip)
            cut = (
                _np.searchsorted(keys, q.ravel(), side="right").reshape(q.shape)
                - noff[slot]
            )
            cnt = counts[slot] - cut
            p_star = P - prefix[poff[slot] + cut]
            demand2 = _np.where(star, td2 * (S + P), 0).sum(axis=1)
            lstar2 = _np.where(
                star, td2 * (S + p_star) - cnt * (tn - 2 * std), 0
            ).sum(axis=1)
            base = base_sum.sum(axis=1)
            m = pad["m"][mi]
            m_prime = l + counts_sum + _ceil_div_np(n_minus, 2)
            F2 = 2 * (m - l) * tns[idx] - 2 * base * tds[idx]
            acc_simple = (m * tns[idx] >= load * tds[idx]) & (m >= m_prime)
            nice = l == 0
            case3b = ~nice & (F2 >= demand2)
            y_neg = ~nice & ~case3b & (F2 - lstar2 < 0)
            for k_i, j in enumerate(idx):
                j = int(j)
                if nice[k_i]:
                    out[j] = PmtnVerdict(
                        bool(acc_simple[k_i]), int(load[k_i]), int(m_prime[k_i]),
                        "nice", False,
                    )
                elif case3b[k_i]:
                    out[j] = PmtnVerdict(
                        bool(acc_simple[k_i]), int(load[k_i]), int(m_prime[k_i]),
                        "3b", False,
                    )
                elif y_neg[k_i]:
                    out[j] = PmtnVerdict(
                        False, int(load[k_i]), int(m_prime[k_i]), "3a", True
                    )
                else:  # case 3a with the knapsack: scalar lane (rare)
                    out[j] = fast_pmtn_test(
                        self.members[int(mis[j])], int(tns[j]), int(tds[j]), mode
                    )
        return out  # type: ignore[return-value]
