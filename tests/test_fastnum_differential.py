"""Differential safety net: scaled-integer kernel vs Fraction reference.

The fast kernel (:mod:`repro.core.fastnum` plus the ``kernel="fast"``
construction paths) must be **bit-exact** against the historical
Fraction-only implementations: same accept/reject decision at every probed
``T``, same loads and machine counts, same knapsack selection, and — end
to end — the same schedules, makespans and ratio bounds.  This module
asserts all of that on every instance of the generator suites.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.algos.api import solve, solve_point
from repro.algos.jumping_pmtn import _base_core
from repro.algos.nonpreemptive import nonp_dual_schedule, nonp_dual_test
from repro.algos.pmtn_general import pmtn_dual_schedule, pmtn_dual_test
from repro.algos.splittable import split_dual_schedule, split_dual_test, split_dual_test_fast
from repro.core import xbatch
from repro.core.bounds import Variant, setup_plus_tmax, t_min
from repro.core.classification import nonp_partition, nonp_partition_fast
from repro.core.errors import RejectedMakespanError
from repro.core.fastnum import (
    fast_base_core,
    fast_nonp_test,
    fast_pmtn_test,
    fast_split_test,
)
from repro.core.instance import Instance
from repro.core.validate import validate_schedule
from repro.core.xbatch import BatchDualContext, _grid_is_safe
from repro.generators import adversarial_suite, medium_suite, small_exact_suite

from .conftest import accepted_3a_instance, general_case_instance, mk

SUITE_INSTANCES = [
    pytest.param(inst, id=f"{suite}:{label}")
    for suite, items in (
        ("small", small_exact_suite()),
        ("medium", medium_suite()),
        ("adversarial", adversarial_suite()),
    )
    for label, inst in items
]


def probe_points(inst, variant, count=12, seed=0):
    """T_min, the window ends, bisection midpoints, seeded rationals and
    the group boundaries of up to 8 seeded classes.

    A class changes group in Theorems 5, 7 and 9 at ``T = 2s_i`` (cheap /
    expensive), ``4s_i`` (``I⁺chp``), ``s_i + P_i`` (``I⁺exp``),
    ``4(s_i + P_i)/3`` (``I⁰exp``) and ``2(s_i + t_max^i)`` (the classes
    that only pay their setup); ``max_i(s_i + t_max^i)`` is Notes 1 and 2.
    Each is probed exactly and nudged by ``±1/(2m)``, so the equivalence
    tests check the kernels exactly where the class tables cut.
    """
    rng = random.Random(f"{seed}-{inst.m}-{inst.total_load}-{variant.value}")
    tmin = t_min(inst, variant)
    pts = [tmin, 2 * tmin, Fraction(3, 2) * tmin, Fraction(1), Fraction(inst.total_load)]
    lo, hi = tmin, 2 * tmin
    for _ in range(5):  # ε-search style midpoints (power-of-two denominators)
        mid = (lo + hi) / 2
        pts.append(mid)
        lo = mid
    for _ in range(count):  # class-jump style rationals with small denominators
        pts.append(Fraction(rng.randint(1, 2 * inst.total_load), rng.randint(1, 2 * inst.m)))
    edges = [Fraction(setup_plus_tmax(inst))]
    for i in rng.sample(range(inst.c), min(8, inst.c)):
        s, total = inst.setups[i], inst.setups[i] + inst.class_processing[i]
        edges += [
            Fraction(2 * s), Fraction(4 * s), Fraction(total), Fraction(4 * total, 3),
            Fraction(2 * (s + inst.class_tmax[i])),
        ]
    nudge = Fraction(1, 2 * inst.m)
    pts += [T + d for T in edges for d in (0, nudge, -nudge) if T + d > 0]
    return pts


class TestDualTestEquivalence:
    """The int kernels reproduce the reference verdicts at every probe."""

    @pytest.mark.parametrize("inst", SUITE_INSTANCES)
    def test_splittable(self, inst):
        for T in probe_points(inst, Variant.SPLITTABLE):
            ref = split_dual_test(inst, T)
            fast = fast_split_test(inst, T.numerator, T.denominator)
            assert fast.accepted == ref.accepted
            assert Fraction(fast.load) == ref.load
            assert fast.machines_exp == ref.machines_exp
            full = split_dual_test_fast(inst, T)
            assert (full.accepted, full.exp, full.chp, full.betas, full.load) == (
                ref.accepted, ref.exp, ref.chp, ref.betas, ref.load,
            )

    @pytest.mark.parametrize("inst", SUITE_INSTANCES)
    def test_nonpreemptive(self, inst):
        for T in probe_points(inst, Variant.NONPREEMPTIVE):
            ref = nonp_dual_test(inst, T)
            fast = fast_nonp_test(inst, T.numerator, T.denominator)
            assert fast.accepted == ref.accepted
            assert Fraction(fast.load) == ref.load
            assert fast.machines_needed == ref.machines_needed

    @pytest.mark.parametrize("inst", SUITE_INSTANCES)
    def test_preemptive(self, inst):
        for T in probe_points(inst, Variant.PREEMPTIVE):
            for mode in ("alpha", "gamma"):
                ref = pmtn_dual_test(inst, T, mode=mode)
                fast = fast_pmtn_test(inst, T.numerator, T.denominator, mode)
                assert fast.accepted == ref.accepted
                assert Fraction(fast.load) == ref.load
                assert fast.machines_needed == ref.machines_needed
                assert fast.case == ref.case
                assert fast.y_negative == any(
                    "F < L*" in r for r in ref.reject_reasons
                )
            # the Class-Jumping monotone core
            bl, bm = _base_core(inst, T)
            fl, fm = fast_base_core(inst, T.numerator, T.denominator)
            assert (Fraction(fl), fm) == (bl, bm)


def grid_pairs(points):
    """Split a candidate list into parallel ``(numerators, denominators)``."""
    return [T.numerator for T in points], [T.denominator for T in points]


def grid_verdicts(inst, kind, mode, tns, tds, *, numpy_tier=True):
    """A per-instance candidate grid: the rows of a one-member engine context.

    ``numpy_tier=False`` evaluates with numpy monkeypatched away — the
    exact code path taken when numpy is not installed.
    """
    rows = [(0, tn, td) for tn, td in zip(tns, tds)]
    with pytest.MonkeyPatch.context() as mp:
        if not numpy_tier:
            mp.setattr(xbatch, "HAVE_NUMPY", False)
        return BatchDualContext([inst]).evaluate(kind, mode, rows)


#: The numpy tier (when importable) and the pure-python tier.
TIERS = [True, False] if xbatch.HAVE_NUMPY else [False]


class TestGridEquivalence:
    """Every grid verdict is bit-identical to the scalar kernel's.

    A grid is the rows of a one-member
    :class:`~repro.core.xbatch.BatchDualContext`.  Covered per suite
    instance and per kind: the vectorized numpy tier (when importable),
    the pure-python tier (numpy monkeypatched away — also the exact code
    path taken when numpy is absent), and mixed per-candidate
    denominators.  The overflow fallback branch is pinned separately
    with a huge-value instance.
    """

    @pytest.mark.parametrize("inst", SUITE_INSTANCES)
    def test_split_grid(self, inst):
        tns, tds = grid_pairs(probe_points(inst, Variant.SPLITTABLE))
        want = [fast_split_test(inst, tn, td) for tn, td in zip(tns, tds)]
        for tier in TIERS:
            assert grid_verdicts(inst, "split", "", tns, tds, numpy_tier=tier) == want

    @pytest.mark.parametrize("inst", SUITE_INSTANCES)
    def test_nonp_grid(self, inst):
        tns, tds = grid_pairs(probe_points(inst, Variant.NONPREEMPTIVE))
        want = [fast_nonp_test(inst, tn, td) for tn, td in zip(tns, tds)]
        for tier in TIERS:
            assert grid_verdicts(inst, "nonp", "", tns, tds, numpy_tier=tier) == want

    @pytest.mark.parametrize("inst", SUITE_INSTANCES)
    @pytest.mark.parametrize("mode", ["alpha", "gamma"])
    def test_pmtn_grid(self, inst, mode):
        tns, tds = grid_pairs(probe_points(inst, Variant.PREEMPTIVE))
        want = [fast_pmtn_test(inst, tn, td, mode) for tn, td in zip(tns, tds)]
        for tier in TIERS:
            assert grid_verdicts(inst, "pmtn", mode, tns, tds, numpy_tier=tier) == want

    @pytest.mark.parametrize("inst", SUITE_INSTANCES)
    def test_base_core_grid(self, inst):
        tns, tds = grid_pairs(probe_points(inst, Variant.PREEMPTIVE))
        want = [fast_base_core(inst, tn, td) for tn, td in zip(tns, tds)]
        for tier in TIERS:
            assert grid_verdicts(inst, "pmtn_base", "", tns, tds, numpy_tier=tier) == want

    @pytest.mark.parametrize("inst", SUITE_INSTANCES)
    def test_nonp_partition_fast(self, inst):
        for T in probe_points(inst, Variant.NONPREEMPTIVE):
            if T <= inst.smax:  # alpha undefined below the largest setup
                continue
            assert nonp_partition_fast(inst, T) == nonp_partition(inst, T)

    def test_overflow_falls_back_to_scalar(self):
        """Products past int64 must route to the scalar kernel, bit-exact."""
        big = Instance(
            m=3,
            setups=(10**13, 7),
            jobs=((10**14, 10**13), (5, 10**12)),
        )
        tns, tds = grid_pairs(probe_points(big, Variant.PREEMPTIVE, count=6))
        assert not _grid_is_safe(big, tns, tds)
        assert grid_verdicts(big, "split", "", tns, tds) == [
            fast_split_test(big, tn, td) for tn, td in zip(tns, tds)
        ]
        assert grid_verdicts(big, "nonp", "", tns, tds) == [
            fast_nonp_test(big, tn, td) for tn, td in zip(tns, tds)
        ]
        for mode in ("alpha", "gamma"):
            assert grid_verdicts(big, "pmtn", mode, tns, tds) == [
                fast_pmtn_test(big, tn, td, mode) for tn, td in zip(tns, tds)
            ]

    def test_overflow_alpha_counts_force_fallback(self):
        """Regression: α-style counts ⌈P·td/(tn−s·td)⌉ can dwarf the
        jump-style bound ⌈2P/T⌉ when T barely clears a huge setup; the
        precheck must reject such grids (the old bound approved them and
        the int64 products wrapped silently)."""
        inst = Instance(m=3, setups=(2**47,), jobs=((1,) * (2**17),))
        tns, tds = [2**47 + 1, 2**48], [1, 1]
        assert not _grid_is_safe(inst, tns, tds)
        for tier in TIERS:
            assert grid_verdicts(inst, "nonp", "", tns, tds, numpy_tier=tier) == [
                fast_nonp_test(inst, tn, td) for tn, td in zip(tns, tds)
            ]
            for mode in ("alpha", "gamma"):
                assert grid_verdicts(inst, "pmtn", mode, tns, tds, numpy_tier=tier) == [
                    fast_pmtn_test(inst, tn, td, mode) for tn, td in zip(tns, tds)
                ]

    def test_numpy_absent_is_supported(self, monkeypatch):
        """With numpy gone the engine still answers, on the scalar kernel."""
        inst = small_exact_suite()[0][1]
        tns, tds = grid_pairs(probe_points(inst, Variant.SPLITTABLE, count=4))
        want = [fast_split_test(inst, tn, td) for tn, td in zip(tns, tds)]
        monkeypatch.setattr(xbatch, "_np", None)
        monkeypatch.setattr(xbatch, "HAVE_NUMPY", False)
        assert grid_verdicts(inst, "split", "", tns, tds) == want


def placements_key(schedule):
    return sorted(
        (p.machine, p.start, p.length, p.cls, p.job) for p in schedule.iter_all()
    )


class TestEndToEndEquivalence:
    """solve() is bit-identical across kernels: T, schedule, bounds."""

    @pytest.mark.parametrize("inst", SUITE_INSTANCES)
    @pytest.mark.parametrize("variant", list(Variant))
    def test_solve_three_halves(self, inst, variant):
        fast = solve(inst, variant, "three_halves", kernel="fast")
        ref = solve(inst, variant, "three_halves", kernel="fraction")
        assert fast.T == ref.T
        assert fast.makespan == ref.makespan
        assert fast.ratio_bound == ref.ratio_bound
        assert fast.opt_lower_bound == ref.opt_lower_bound
        assert placements_key(fast.schedule) == placements_key(ref.schedule)

    @pytest.mark.parametrize("inst", SUITE_INSTANCES[:12])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_solve_eps(self, inst, variant):
        fast = solve(inst, variant, "eps", kernel="fast")
        ref = solve(inst, variant, "eps", kernel="fraction")
        assert fast.T == ref.T
        assert fast.makespan == ref.makespan
        assert fast.ratio_bound == ref.ratio_bound
        assert placements_key(fast.schedule) == placements_key(ref.schedule)


def ordered_rows(schedule):
    """(machine, start, length, cls, job) in storage order (machine-major,
    bottom to top on both tiers — order is part of the bit-identity)."""
    return [(p.machine, p.start, p.length, p.cls, p.job) for p in schedule.iter_all()]


class TestRepairFlagsFuzz:
    """Seeded preemption-heavy fuzz through Algorithm 6's repair passes.

    The instances are drawn tight (the construction runs at the *minimal*
    accepted integer ``T``), which forces splits in steps 1–2, residual
    streaming through step 3 and the step-4a/4b repairs — exactly the
    ``crossed``/``removed``/``from_step3`` machinery of the flattened
    :class:`~repro.core.itemstore.ItemStore`.  Every case asserts
    bit-identity against the ``kernel="fraction"`` reference (ordered
    placements, not just sets) and identical verdicts from the columnar
    and scalar validators; the suite as a whole must have exercised every
    repair flag.  Runs on the seeded path only — no numpy, no hypothesis
    required (the minimal-deps CI job executes this class).
    """

    SEEDS = range(60)

    @staticmethod
    def gen(seed):
        rng = random.Random(seed)
        m = rng.randint(2, 8)
        c = rng.randint(2, 7)
        classes = []
        for _ in range(c):
            s = rng.randint(1, 14)
            nj = rng.randint(1, 7)
            classes.append((s, [rng.randint(1, 18) for _ in range(nj)]))
        return Instance.build(m, classes)

    def test_repair_flags_bit_identity(self):
        from repro.core.validate import validate_schedule_scalar, validate_columns

        totals = {"pieces": 0, "from_step3": 0, "crossed": 0, "removed": 0}
        for seed in self.SEEDS:
            inst = self.gen(seed)
            T = solve_point(inst, Variant.NONPREEMPTIVE, schedules=False).T
            for T_probe in (T, T + 1):
                stages: dict = {}
                fast = nonp_dual_schedule(inst, T_probe, stages_out=stages)
                ref = nonp_dual_schedule(inst, T_probe, kernel="fraction")
                assert ordered_rows(fast) == ordered_rows(ref), f"seed {seed} T={T_probe}"
                cols = fast.columns()
                assert cols is not None, "fast construction must emit columns"
                cmax_cols = validate_columns(
                    inst, cols, Variant.NONPREEMPTIVE
                )
                assert cmax_cols == validate_schedule_scalar(
                    ref, Variant.NONPREEMPTIVE
                )
                assert cmax_cols <= Fraction(3, 2) * T_probe
                if T_probe == T:
                    fc = stages["item_store"].flag_counts()
                    for key in totals:
                        totals[key] += fc[key]
        # the suite must actually have driven the repair machinery
        assert totals["pieces"] > 0, "no split pieces — generator too loose"
        assert totals["from_step3"] > 0, "no residual streaming exercised"
        assert totals["crossed"] > 0, "no step-3 crossing items exercised"
        assert totals["removed"] > 0, "no step-4a consolidations exercised"

    def test_stage_snapshots_match_reference(self):
        """Steps 1–3 snapshots are bit-identical across tiers too."""
        for seed in (3, 7, 21, 33):
            inst = self.gen(seed)
            T = solve_point(inst, Variant.NONPREEMPTIVE, schedules=False).T
            fast_stages: dict = {}
            ref_stages: dict = {}
            nonp_dual_schedule(inst, T, stages_out=fast_stages)
            nonp_dual_schedule(inst, T, stages_out=ref_stages, kernel="fraction")
            for key in ("step1", "step2", "step3", "step4"):
                assert ordered_rows(fast_stages[key]) == ordered_rows(ref_stages[key]), (
                    f"seed {seed} stage {key}"
                )


class TestConstructionEquivalence:
    """Accepted-T constructions agree placement for placement."""

    @pytest.mark.parametrize("inst", SUITE_INSTANCES)
    def test_split_schedule(self, inst):
        T = 2 * t_min(inst, Variant.SPLITTABLE)
        fast = split_dual_schedule(inst, T, kernel="fast")
        ref = split_dual_schedule(inst, T, kernel="fraction")
        assert placements_key(fast) == placements_key(ref)

    @pytest.mark.parametrize("inst", SUITE_INSTANCES)
    def test_nonp_schedule(self, inst):
        from repro.core.numeric import frac_ceil

        T = frac_ceil(2 * t_min(inst, Variant.NONPREEMPTIVE))
        fast = nonp_dual_schedule(inst, T, kernel="fast")
        ref = nonp_dual_schedule(inst, T, kernel="fraction")
        assert placements_key(fast) == placements_key(ref)

    @pytest.mark.parametrize("mode", ["alpha", "gamma"])
    def test_pmtn_schedule(self, mode):
        """Algorithm 3 case by case: the nice shortcut, case 3a and case 3b."""
        # nice at T = 20 with one I+exp, one I-exp and two cheap classes
        nice = mk(4, (12, [8, 8]), (11, [2]), (2, [3, 4]), (1, [2, 2]))
        T = Fraction(20)
        cases = set()
        for inst in (nice, accepted_3a_instance(), general_case_instance()):
            cases.add(pmtn_dual_test(inst, T, mode).case)
            fast = pmtn_dual_schedule(inst, T, mode, kernel="fast")
            ref = pmtn_dual_schedule(inst, T, mode, kernel="fraction")
            assert ordered_rows(fast) == ordered_rows(ref)
            assert validate_schedule(fast, Variant.PREEMPTIVE) <= Fraction(3, 2) * T
        assert cases == {"nice", "3a", "3b"}

    @pytest.mark.parametrize("mode", ["alpha", "gamma"])
    @pytest.mark.parametrize(
        "inst, T, case, reasons",
        [
            pytest.param(mk(2, (4, [8])), 1, "trivial", "T < max(s_i + t_max^i)", id="trivial"),
            pytest.param(mk(2, (2, [3, 4]), (1, [2, 2, 2])), 7, "nice", "mT < L_nice", id="nice"),
            pytest.param(
                mk(1, (8, [6, 8]), (11, [8])), 20, "3a",
                "F < L* (obligatory outside load exceeds residual time)", id="3a-y-negative",
            ),
            pytest.param(
                mk(3, (12, [9]), (5, [7, 2]), (12, [10]), (6, [5])), 22, "3a",
                "mT < L_pmtn", id="3a-load",
            ),
            pytest.param(
                mk(3, (12, [4, 2, 1]), (1, [3]), (2, [4, 5, 6]), (9, [5, 6, 6])), 20, "3b",
                "mT < L_pmtn", id="3b-load",
            ),
            pytest.param(
                mk(2, *[(11, [2])] * 5), 20, "nice", "mT < L_nice, m < m_nice",
                id="machines",
            ),
        ],
    )
    def test_pmtn_rejection(self, inst, T, case, reasons, mode):
        """Both kernels reject with the reference's reasons, word for word."""
        assert pmtn_dual_test(inst, T, mode).case == case
        messages = []
        for kernel in ("fast", "fraction"):
            with pytest.raises(RejectedMakespanError) as err:
                pmtn_dual_schedule(inst, T, mode, kernel=kernel)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0] == f"T={T} rejected by Theorem 5: {reasons}"
