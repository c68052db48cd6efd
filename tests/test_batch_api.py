"""Batched solve engine vs looped ``solve()`` — bit-identical outputs.

``sweep_machines``/``solve_many`` exist purely for speed: shared caches,
batched grid searches, optional bounds-only resolution.  None of that
may change a single answer, so every mode is differential-tested here
against fresh-instance ``solve()`` calls.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.algos.api import solve
from repro.algos.batch_api import SweepPoint, solve_many, sweep_machines
from repro.core import xbatch
from repro.core.bounds import Variant
from repro.core.instance import Instance
from repro.generators import medium_suite, small_exact_suite

SWEEP_INSTANCES = [
    pytest.param(inst, id=f"{suite}:{label}")
    for suite, items in (
        ("small", small_exact_suite()),
        ("medium", medium_suite()),
    )
    for label, inst in items
]


def placements_key(schedule):
    return sorted(
        (p.machine, p.start, p.length, p.cls, p.job) for p in schedule.iter_all()
    )


def machine_counts(inst: Instance) -> list[int]:
    """A spread including the trivial endpoints (m=1, m ≥ n)."""
    ms = sorted({1, 2, max(1, inst.m // 2), inst.m, inst.m + 3, inst.n + 1})
    return [m for m in ms if m >= 1]


def fresh(inst: Instance, m: int) -> Instance:
    return Instance(m=m, setups=inst.setups, jobs=inst.jobs)


class TestSweepMachines:
    @pytest.mark.parametrize("inst", SWEEP_INSTANCES)
    @pytest.mark.parametrize("variant", list(Variant))
    def test_full_mode_matches_looped_solve(self, inst, variant):
        ms = machine_counts(inst)
        swept = sweep_machines(inst, ms, variant)
        for m, res in zip(ms, swept):
            ref = solve(fresh(inst, m), variant)
            assert res.T == ref.T
            assert res.makespan == ref.makespan
            assert res.ratio_bound == ref.ratio_bound
            assert res.opt_lower_bound == ref.opt_lower_bound
            assert placements_key(res.schedule) == placements_key(ref.schedule)

    @pytest.mark.parametrize("inst", SWEEP_INSTANCES)
    @pytest.mark.parametrize("variant", list(Variant))
    def test_bounds_mode_matches_solve_certificates(self, inst, variant):
        ms = machine_counts(inst)
        grids = [None, False]
        if variant is Variant.SPLITTABLE and xbatch.HAVE_NUMPY:
            grids.append(True)  # force the flip search's grid blocks
        for use_grid in grids:
            points = sweep_machines(
                inst, ms, variant, schedules=False, use_grid=use_grid
            )
            for m, point in zip(ms, points):
                ref = solve(fresh(inst, m), variant)
                assert isinstance(point, SweepPoint)
                assert point.m == m
                assert point.T == ref.T
                assert point.ratio_bound == ref.ratio_bound
                assert point.opt_lower_bound == ref.opt_lower_bound
                assert ref.makespan <= point.makespan_bound

    @pytest.mark.parametrize("variant", list(Variant))
    def test_bounds_mode_eps_algorithm(self, variant):
        inst = medium_suite()[0][1]
        ms = machine_counts(inst)
        points = sweep_machines(inst, ms, variant, algorithm="eps", schedules=False)
        for m, point in zip(ms, points):
            ref = solve(fresh(inst, m), variant, "eps")
            assert point.T == ref.T
            assert point.ratio_bound == ref.ratio_bound
            assert point.opt_lower_bound == ref.opt_lower_bound

    def test_fraction_kernel_sweep(self):
        inst = medium_suite()[0][1]
        ms = [1, inst.m, inst.m + 2]
        swept = sweep_machines(inst, ms, Variant.PREEMPTIVE, kernel="fraction")
        for m, res in zip(ms, swept):
            ref = solve(fresh(inst, m), Variant.PREEMPTIVE, kernel="fraction")
            assert res.T == ref.T
            assert placements_key(res.schedule) == placements_key(ref.schedule)

    def test_bounds_mode_rejects_non_dual_algorithms(self):
        inst = medium_suite()[0][1]
        with pytest.raises(ValueError):
            sweep_machines(inst, [inst.m], algorithm="two", schedules=False)

    def test_use_grid_with_full_schedules_raises(self):
        """Full-schedule sweeps use scalar searches; forcing grids must not
        silently degrade."""
        inst = medium_suite()[0][1]
        with pytest.raises(ValueError):
            sweep_machines(inst, [inst.m], use_grid=True)
        with pytest.raises(ValueError):
            solve_many([inst], use_grid=True)

    def test_use_grid_true_without_numpy_raises(self, monkeypatch):
        from repro.core import xbatch

        monkeypatch.setattr(xbatch, "HAVE_NUMPY", False)
        inst = medium_suite()[0][1]
        with pytest.raises(RuntimeError):
            sweep_machines(
                inst, [inst.m], Variant.SPLITTABLE, schedules=False, use_grid=True
            )

    @pytest.mark.parametrize(
        "variant,algorithm,kernel",
        [
            (Variant.SPLITTABLE, "eps", "fast"),
            (Variant.NONPREEMPTIVE, "three_halves", "fast"),
            (Variant.PREEMPTIVE, "three_halves", "fast"),
            (Variant.SPLITTABLE, "three_halves", "fraction"),
        ],
        ids=["eps", "nonpreemptive", "preemptive", "fraction"],
    )
    def test_use_grid_true_without_a_grid_raises_up_front(
        self, variant, algorithm, kernel
    ):
        """Shapes with no grid refuse ``use_grid=True`` before any solve."""
        from repro.algos.batch_api import BatchItem, solve_batch

        inst = medium_suite()[0][1]
        ok = BatchItem(instance=inst, variant=Variant.SPLITTABLE, schedules=False)
        bad = BatchItem(
            instance=inst, variant=variant, algorithm=algorithm, schedules=False
        )
        solved: list = []
        calls = [
            lambda: sweep_machines(
                inst, [inst.m], variant, algorithm, kernel=kernel,
                schedules=False, use_grid=True,
            ),
            lambda: solve_many(
                [inst], variant, algorithm, kernel=kernel,
                schedules=False, use_grid=True,
            ),
            lambda: solve_batch(
                [ok, bad], kernel=kernel, use_grid=True, before_solve=solved.append
            ),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="use_grid=True"):
                call()
        assert solved == []  # the valid first item never reached its solve

    @pytest.mark.parametrize("xb", [False, True])
    def test_use_grid_true_without_numpy_raises_before_any_solve(
        self, xb, monkeypatch
    ):
        """The numpy check is a request check: no item reaches its solve."""
        from repro.algos.batch_api import BatchItem, solve_batch

        monkeypatch.setattr(xbatch, "HAVE_NUMPY", False)
        item = BatchItem(
            instance=medium_suite()[0][1], variant=Variant.SPLITTABLE,
            schedules=False,
        )
        solved: list = []
        with pytest.raises(RuntimeError, match="numpy is not installed"):
            solve_batch(
                [item, item], use_grid=True, before_solve=solved.append, xbatch=xb
            )
        assert solved == []

    def test_preemptive_flip_search_probes_scalar_in_the_grid_window(self):
        """At c = 100 (block 102, block×c 10,200) only the splittable
        search engages a grid; every preemptive point dispatches scalar."""
        from repro.generators import uniform_instance
        from repro.obs.trace import TraceScope

        inst = uniform_instance(m=24, c=100, n_per_class=2, seed=404)
        ms = [8, 24, 40]
        with TraceScope() as scope:
            points = sweep_machines(
                inst, ms, Variant.PREEMPTIVE, schedules=False, use_grid=None
            )
        assert [p.m for p in points] == ms
        assert scope.counts.get("dispatch.scalar") == len(ms)
        assert "dispatch.grid" not in scope.counts

    def test_sweep_does_not_mutate_base_machine_count(self):
        inst = medium_suite()[0][1]
        m_before = inst.m
        sweep_machines(inst, [1, m_before + 5], Variant.SPLITTABLE)
        assert inst.m == m_before


class TestSolveMany:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_mixed_stream_matches_loop(self, variant):
        base = medium_suite()[0][1]
        other = medium_suite()[1][1]
        stream = [
            base,
            base.with_machines(max(1, base.m // 2)),
            other,
            base.with_machines(base.m + 4),
            base,  # exact duplicate
        ]
        results = solve_many(stream, variant)
        for inst, res in zip(stream, results):
            ref = solve(fresh(inst, inst.m), variant)
            assert res.T == ref.T
            assert res.makespan == ref.makespan
            assert placements_key(res.schedule) == placements_key(ref.schedule)

    def test_bounds_mode(self):
        base = medium_suite()[0][1]
        stream = [base, base.with_machines(base.m + 2)]
        points = solve_many(stream, Variant.NONPREEMPTIVE, schedules=False)
        for inst, point in zip(stream, points):
            ref = solve(fresh(inst, inst.m), Variant.NONPREEMPTIVE)
            assert point.T == ref.T
            assert point.opt_lower_bound == ref.opt_lower_bound


class TestSharedCaches:
    def test_with_machines_share_caches_is_equivalent(self):
        inst = medium_suite()[0][1]
        for i in range(inst.c):
            inst.class_jobs(i)
            inst.class_jobs_sorted(i)
        shared = inst.with_machines(inst.m + 3, share_caches=True)
        plain = inst.with_machines(inst.m + 3)
        assert shared == plain
        assert shared.m == plain.m == inst.m + 3
        # caches are the same objects; only m differs
        assert shared._misc_cache is inst._misc_cache
        assert shared.class_jobs(0) is inst.class_jobs(0)
        assert shared._jobs_sorted_cache is inst._jobs_sorted_cache
        assert shared.class_jobs_sorted(0) is inst.class_jobs_sorted(0)
        assert shared.setups is inst.setups

    def test_share_caches_validates_m(self):
        inst = small_exact_suite()[0][1]
        from repro.core.errors import InvalidInstanceError

        with pytest.raises(InvalidInstanceError):
            inst.with_machines(0, share_caches=True)
