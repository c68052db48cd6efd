"""Benchmarks F1-F13 — regenerate every figure of the paper.

Timing figure generation keeps the whole pipeline (algorithm + rendering)
under benchmark control; the SHA-256 of ``render_all()`` pins the text of
every figure, whose rows are built through rational ``add_setup``/
``add_job`` starts and through ``rows()``/``add_scaled``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.figures import FIGURES, render_all, render_figure

FIGURES_DIGEST = "efaf2b71b7b497a7b57173b68e727dc11ada5b766ab7ea5561ad2a898b2692a8"


@pytest.mark.parametrize("fig_id", sorted(FIGURES, key=lambda s: (len(s), s)))
def test_figure(benchmark, fig_id):
    art = benchmark(lambda: render_figure(fig_id))
    assert "Figure" in art
    benchmark.extra_info["figure"] = fig_id
    benchmark.extra_info["lines"] = len(art.splitlines())


def test_figures_digest():
    assert hashlib.sha256(render_all().encode()).hexdigest() == FIGURES_DIGEST
