"""Integration tests for the experiment harnesses (Table 1, figures, CLI)."""

from fractions import Fraction

import pytest

from repro.algos.search import GRID_BLOCK
from repro.core import Variant, xbatch
from repro.experiments import (
    FIGURES,
    render_figure,
    render_scaling,
    run_grid_crossover,
    run_ratio_study,
    run_scaling,
    run_table1,
)
from repro.experiments.figures import fig7_instance, fig10_13_instance
from repro.experiments.table1 import QUOTED_ROWS, best_reference
from repro.experiments.__main__ import main as cli_main
from repro.generators import small_exact_suite

needs_numpy = pytest.mark.skipif(
    not xbatch.HAVE_NUMPY, reason="Experiment S3 needs numpy"
)


class TestFigures:
    @pytest.mark.parametrize("fig_id", sorted(FIGURES))
    def test_each_figure_renders(self, fig_id):
        art = render_figure(fig_id)
        assert "Figure" in art
        assert "M" in art  # at least one machine row

    def test_figure_1_combined(self):
        art = render_figure("1")
        assert "Figure 1(a)" in art and "Figure 1(b)" in art

    def test_unknown_figure(self):
        with pytest.raises(KeyError):
            render_figure("99")

    def test_fig7_instance_is_m_eq_c_5(self):
        inst = fig7_instance()
        assert inst.m == inst.c == 5

    def test_fig10_instance_shape(self):
        inst, T = fig10_13_instance()
        assert inst.c == 5 and T == 20


class TestTable1:
    def test_small_run_respects_guarantees(self):
        rows = run_table1(include_medium=False, include_adversarial=False)
        executed = [r for r in rows if r.measured_max is not None]
        assert len(executed) >= 10
        by_name = {(r.variant, r.algorithm): r for r in executed}
        for (variant, name), row in by_name.items():
            if "Thm 1" in name:
                assert row.measured_max <= 2.0 + 1e-9
            if "Thm 3" in name or "Thm 6" in name or "Thm 8" in name:
                assert row.measured_max <= 1.5 + 1e-9

    def test_quoted_rows_present(self):
        rows = run_table1(include_medium=False, include_adversarial=False)
        quoted = [r for r in rows if r.measured_max is None]
        assert len(quoted) == len(QUOTED_ROWS)
        assert all("quoted" in r.note for r in quoted)

    def test_best_reference_is_opt_on_small(self):
        _, inst = small_exact_suite()[0]
        ref, kind = best_reference(inst, Variant.NONPREEMPTIVE)
        assert kind == "opt" and ref > 0


class TestRatioStudy:
    def test_two_approx_rows_stay_within_the_guarantee(self):
        """R1 measures against Table 1's references: 3 suites × 3 variants,
        each ratio in [1, 2] against exact OPT or the dual lower bound."""
        rows = run_ratio_study(("two",))
        assert len(rows) == 9
        assert {(r.suite, r.variant) for r in rows} == {
            (suite, str(variant))
            for suite in ("small-exact", "medium", "adversarial")
            for variant in Variant
        }
        for row in rows:
            assert row.algorithm == "two"
            assert 1 <= row.mean <= row.worst <= 2
            assert set(row.reference.split("/")) <= {"opt", "dual-LB"}


class TestScaling:
    def test_tiny_scaling_run(self):
        rows = run_scaling(sizes=[40, 80], repeats=1)
        assert len(rows) == 9  # 3 variants x 3 algorithms
        out = render_scaling(rows)
        assert "fit exp" in out

    def test_construction_scaling_run(self):
        from repro.experiments import render_construction_scaling, run_construction_scaling

        timings = run_construction_scaling(sizes=[40, 80], repeats=1)
        assert len(timings) == 2
        # both tiers produced times; the ItemStore tier must not lose
        assert all(t.fast_seconds > 0 and t.speedup >= 1.0 for t in timings)
        out = render_construction_scaling(timings)
        assert "Experiment S4" in out and "ItemStore" in out


class TestGridCrossover:
    """Experiment S3: the splittable flip-search grid against scalar probes."""

    @needs_numpy
    def test_small_run(self):
        timings = run_grid_crossover(cs=(12, 100), repeats=1)
        assert [t.c for t in timings] == [12, 100]
        for t in timings:
            assert t.scalar_seconds > 0 and t.grid_seconds > 0
            assert t.block == min(t.c + 2, GRID_BLOCK)

    def test_without_numpy_raises(self, monkeypatch):
        monkeypatch.setattr(xbatch, "HAVE_NUMPY", False)
        with pytest.raises(RuntimeError, match="numpy"):
            run_grid_crossover(cs=(12,), repeats=1)


class TestCLI:
    def test_figures_command(self, capsys):
        assert cli_main(["figures", "--fig", "6"]) == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_scaling_command(self, capsys):
        assert cli_main(["scaling", "--sizes", "30", "60"]) == 0
        assert "Experiment S1" in capsys.readouterr().out

    def test_construct_command(self, capsys):
        assert cli_main(["construct", "--sizes", "30", "60"]) == 0
        assert "Experiment S4" in capsys.readouterr().out

    @needs_numpy
    def test_gridcross_command(self, capsys):
        assert cli_main(["gridcross"]) == 0
        out = capsys.readouterr().out
        assert "Experiment S3" in out and "grid speedup" in out
