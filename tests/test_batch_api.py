"""Batched solve engine vs looped ``solve()`` — bit-identical outputs.

``sweep_machines``/``solve_many`` exist purely for speed: shared caches,
batched grid searches, optional bounds-only resolution.  None of that
may change a single answer, so every mode is differential-tested here
against fresh-instance ``solve()`` calls.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.algos.api import solve, solve_point
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
        points = sweep_machines(inst, ms, variant, schedules=False)
        force_grid = variant is Variant.SPLITTABLE and xbatch.HAVE_NUMPY
        for m, point in zip(ms, points):
            ref = solve(fresh(inst, m), variant)
            results = [point]
            if force_grid:  # the flip search's grid blocks, forced below the policy
                results.append(
                    solve_point(fresh(inst, m), variant, schedules=False, grid=True)
                )
            for got in results:
                assert isinstance(got, SweepPoint)
                assert got.m == m
                assert got.T == ref.T
                assert got.ratio_bound == ref.ratio_bound
                assert got.opt_lower_bound == ref.opt_lower_bound
                assert ref.makespan <= got.makespan_bound

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

    @pytest.mark.parametrize(
        "c,variant,algorithm,options,dispatch",
        [
            pytest.param(100, Variant.SPLITTABLE, "three_halves", {}, "grid",
                         id="c100-block102-grid"),
            pytest.param(300, Variant.SPLITTABLE, "three_halves", {}, "grid",
                         id="c300-work38400-grid"),
            pytest.param(60, Variant.SPLITTABLE, "three_halves", {}, "scalar",
                         id="c60-block62-below-block-min"),
            pytest.param(600, Variant.SPLITTABLE, "three_halves", {}, "scalar",
                         id="c600-work76800-above-work-max"),
            pytest.param(100, Variant.SPLITTABLE, "three_halves",
                         {"schedules": True}, "scalar", id="c100-full-schedules"),
            pytest.param(100, Variant.SPLITTABLE, "three_halves",
                         {"kernel": "fraction"}, "scalar", id="c100-fraction-kernel"),
            pytest.param(100, Variant.SPLITTABLE, "eps", {}, "scalar",
                         id="c100-eps"),
            pytest.param(100, Variant.PREEMPTIVE, "three_halves", {}, "scalar",
                         id="c100-preemptive"),
            pytest.param(100, Variant.SPLITTABLE, "three_halves",
                         {"numpy": False}, "scalar", id="c100-numpy-hidden"),
        ],
    )
    def test_grid_policy_on_both_sides_of_its_window(
        self, c, variant, algorithm, options, dispatch, monkeypatch
    ):
        """``GRID_POLICY`` alone picks each point's probes: the bounds-only
        splittable flip search on the fast kernel, with numpy, engages
        the grid inside the ``(64, 64_000)`` window (block = min(c + 2,
        128), ``block × c``), and every other shape probes scalar."""
        from repro.generators import uniform_instance
        from repro.obs.trace import TraceScope

        options = {"schedules": False, "kernel": "fast", "numpy": True, **options}
        if dispatch == "grid" and not xbatch.HAVE_NUMPY:
            pytest.skip("the grid needs numpy")
        if not options.pop("numpy"):
            monkeypatch.setattr(xbatch, "HAVE_NUMPY", False)
        inst = uniform_instance(m=24, c=c, n_per_class=2, seed=404)
        ms = [8, 24, 40]
        with TraceScope() as scope:
            points = sweep_machines(inst, ms, variant, algorithm, **options)
        other = "scalar" if dispatch == "grid" else "grid"
        assert scope.counts.get(f"dispatch.{dispatch}") == len(ms)
        assert f"dispatch.{other}" not in scope.counts
        for m, point in zip(ms, points):
            ref = solve(fresh(inst, m), variant, algorithm)
            assert (point.T, point.ratio_bound, point.opt_lower_bound) == (
                ref.T, ref.ratio_bound, ref.opt_lower_bound,
            )

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
