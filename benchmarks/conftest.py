"""Shared fixtures for the benchmark harness (pytest-benchmark).

Benchmarks regenerate the paper's artifacts:

* ``test_table1_algorithms.py``  — T1: every implementable Table-1 cell
* ``test_figures.py``            — F1-F13: figure regeneration
* ``test_scaling.py``            — S1: near-linear runtime series
* ``test_ablation_jumping.py``   — A1: Class Jumping vs alternatives
* ``test_ablation_dual.py``      — A2: α vs γ dual counting
* ``test_substrates.py``         — wrap engine / knapsack / validators
* ``test_ratio_suites.py``       — R1: measured-ratio sweeps
"""

from __future__ import annotations

import pytest

from repro.core import Instance
from repro.generators import uniform_instance, zipf_instance


@pytest.fixture(scope="session")
def medium_instance() -> Instance:
    """The standard medium workload: m=8, c=12, n=72."""
    return uniform_instance(m=8, c=12, n_per_class=6, seed=101)


@pytest.fixture(scope="session")
def large_instance() -> Instance:
    """n≈800 for the heavier benches."""
    return uniform_instance(m=16, c=40, n_per_class=20, seed=202)


@pytest.fixture(scope="session")
def heavy_tailed_instance() -> Instance:
    return zipf_instance(m=8, c=16, seed=303)
