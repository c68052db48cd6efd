"""Tests for the analysis utilities (gantt, metrics, complexity, reporting)."""

from fractions import Fraction

import pytest

from repro.algos.api import solve
from repro.core import Instance, JobRef, Schedule, Variant
from repro.analysis import (
    ScalingPoint,
    class_glyph,
    evaluate_schedule,
    fit_loglog,
    fmt_ratio,
    fmt_time,
    format_markdown,
    format_table,
    render_gantt,
    render_template,
    time_algorithm,
)

from .conftest import mk


def demo_schedule() -> tuple[Instance, Schedule]:
    inst = mk(2, (2, [3, 4]), (1, [2, 2, 2]))
    sched = Schedule(inst)
    sched.add_setup(0, 0, 0)
    sched.add_job(0, 2, JobRef(0, 0))
    sched.add_job(0, 5, JobRef(0, 1))
    sched.add_setup(1, 0, 1)
    for j in range(3):
        sched.add_job(1, 1 + 2 * j, JobRef(1, j))
    return inst, sched


class TestGantt:
    def test_contains_machines_and_legend(self):
        _, sched = demo_schedule()
        art = render_gantt(sched, width=40, markers={"T": 9}, title="demo")
        assert "demo" in art
        assert "M  0" in art and "M  1" in art
        assert "A=class 0" in art
        assert "#" in art  # setups drawn

    def test_marker_ruler(self):
        _, sched = demo_schedule()
        art = render_gantt(sched, width=40, markers={"T/2": Fraction(9, 2), "T": 9})
        assert "T/2" in art and "|" in art

    def test_machine_subset(self):
        _, sched = demo_schedule()
        art = render_gantt(sched, width=40, machines=[1])
        assert "M  1" in art and "M  0" not in art

    def test_horizon_scaling(self):
        _, sched = demo_schedule()
        wide = render_gantt(sched, width=40, horizon=18)
        tight = render_gantt(sched, width=40, horizon=9)

        def drawn(art: str) -> int:
            rows = [l for l in art.splitlines() if l.startswith("M")]
            return max(len(l) for l in rows)

        # with doubled horizon the machine rows occupy ~half the columns
        assert drawn(wide) <= drawn(tight) - 10

    def test_empty_schedule(self):
        inst = mk(2, (2, [3]))
        art = render_gantt(Schedule(inst), width=40)
        assert "M  0" in art

    def test_glyphs_cycle(self):
        assert class_glyph(0) == "A"
        assert class_glyph(26) == "a"
        assert isinstance(class_glyph(1000), str)

    def test_render_template(self):
        art = render_template([(0, 2, 9), (1, 5, 12)], m=3, width=40)
        assert "=" in art and "M  2" in art


class TestMetrics:
    def test_against_lb(self):
        inst, sched = demo_schedule()
        metrics = evaluate_schedule(sched, Variant.NONPREEMPTIVE)
        assert metrics.makespan == 9
        assert metrics.reference_kind == "lower-bound"
        assert metrics.ratio >= 1
        assert 0 < metrics.setup_share < 1
        assert metrics.machines_used == 2
        assert 0 < metrics.utilization <= 1

    def test_against_opt(self):
        inst, sched = demo_schedule()
        metrics = evaluate_schedule(sched, Variant.NONPREEMPTIVE, opt=9)
        assert metrics.reference_kind == "opt"
        assert metrics.ratio == 1

    def test_row_serializable(self):
        _, sched = demo_schedule()
        row = evaluate_schedule(sched, Variant.NONPREEMPTIVE).row()
        assert set(row) >= {"makespan", "ratio", "utilization"}


class TestComplexity:
    def test_linear_fit(self):
        pts = [ScalingPoint(n, 0.001 * n) for n in (100, 200, 400, 800)]
        fit = fit_loglog(pts)
        assert abs(fit.exponent - 1.0) < 1e-9
        assert fit.r_squared > 0.999
        assert fit.is_near_linear()

    def test_quadratic_fit_flagged(self):
        pts = [ScalingPoint(n, 1e-6 * n * n) for n in (100, 200, 400, 800)]
        fit = fit_loglog(pts)
        assert abs(fit.exponent - 2.0) < 1e-9
        assert not fit.is_near_linear()

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_loglog([ScalingPoint(10, 0.1)])

    def test_time_algorithm_runs(self):
        insts = [("a", mk(2, (1, [1, 2]))), ("b", mk(2, (1, [1, 2, 3, 4])))]
        pts = time_algorithm(lambda i: i.total_load, insts, repeats=1)
        assert [p.n for p in pts] == [2, 4]
        assert all(p.seconds >= 0 for p in pts)

    def test_time_algorithm_times_cold_solves(self):
        """Each repeat gets its own equal instance with empty caches, so
        no repeat or algorithm times caches an earlier call built."""
        inst = mk(2, (2, [3, 4]), (1, [2, 2, 2]))
        solve(inst)  # warm the caller's object: the timed copies stay cold
        seen = []

        def fn(cold):
            assert cold == inst and cold is not inst
            assert cold._misc_cache == {} and cold._jobs_sorted_cache == {}
            assert not vars(cold).keys() & {"n", "total_load", "smax", "tmax"}
            seen.append(cold)
            solve(cold)

        time_algorithm(fn, [("a", inst)], repeats=3)
        time_algorithm(fn, [("a", inst)], repeats=2)
        assert len({id(cold) for cold in seen}) == 5


class TestReporting:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [["x", 1], ["yyy", 22]], title="t")
        lines = out.splitlines()
        assert lines[0] == "t"
        assert all("|" in l for l in lines[1:] if "-+-" not in l)

    def test_markdown(self):
        out = format_markdown(["h1", "h2"], [[1, 2]])
        assert out.splitlines()[1] == "|---|---|"

    def test_fmt_helpers(self):
        assert fmt_ratio(Fraction(3, 2)) == "1.5000"
        assert fmt_time(0.5e-4).endswith("µs")
        assert fmt_time(0.5).endswith("ms")
        assert fmt_time(2.0).endswith("s")
