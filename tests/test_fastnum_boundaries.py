"""Seeded boundary sweep: the scalar dual tests where their class tables cut.

``fast_nonp_test`` and ``fast_pmtn_test`` count whole groups of classes
by bisecting two per-instance class tables (``fastnum.spt_table``,
``fastnum.setup_table``) at ``T/2`` and ``T/4``.  Several of those cuts
change a preemptive verdict only off the nice case (the ``I⁺chp`` base
and the ``C*_i`` classes feed cases 3a/3b alone), which the suite
instances of ``test_fastnum_differential.py`` rarely reach.  Small tight
random instances reach them often, so this sweep draws those and probes
every class's group boundaries exactly and ``±1/(2m)`` against the
Fraction references.  Pure Python: no numpy, no hypothesis.
"""

from __future__ import annotations

import random
from fractions import Fraction

from repro.algos.nonpreemptive import nonp_dual_test
from repro.algos.pmtn_general import pmtn_dual_test
from repro.core.fastnum import fast_nonp_test, fast_pmtn_test
from repro.core.instance import Instance

SEEDS = range(150)


def tight_instance(seed: int) -> Instance:
    """One to three large-setup classes over a few small ones on at most
    four machines: expensive classes with ``3T/4 < s_i + P_i < T`` leave
    the nice case, so cases 3a and 3b are common."""
    rng = random.Random(seed)
    classes = [
        (rng.randint(10, 40), [rng.randint(1, 12) for _ in range(rng.randint(1, 3))])
        for _ in range(rng.randint(1, 3))
    ] + [
        (rng.randint(0, 8), [rng.randint(1, 20) for _ in range(rng.randint(1, 5))])
        for _ in range(rng.randint(2, 6))
    ]
    rng.shuffle(classes)
    return Instance.build(rng.randint(1, 4), classes)


def boundary_points(inst: Instance) -> list[Fraction]:
    """``2s_i``, ``4s_i``, ``s_i + P_i``, ``4(s_i + P_i)/3``, ``s_i + t_max^i``
    and ``2(s_i + t_max^i)`` of every class, each exact and ``±1/(2m)``."""
    nudge = Fraction(1, 2 * inst.m)
    edges = set()
    for s, P, tm in zip(inst.setups, inst.class_processing, inst.class_tmax):
        edges.update((2 * s, 4 * s, s + P, Fraction(4 * (s + P), 3), s + tm, 2 * (s + tm)))
    return sorted(T + d for T in edges for d in (0, nudge, -nudge) if T + d > 0)


def test_table_cuts_match_the_references():
    cases = {"3a": 0, "3b": 0}
    for seed in SEEDS:
        inst = tight_instance(seed)
        for T in boundary_points(inst):
            tn, td = T.numerator, T.denominator
            ref = nonp_dual_test(inst, T)
            fast = fast_nonp_test(inst, tn, td)
            assert (fast.accepted, Fraction(fast.load), fast.machines_needed) == (
                ref.accepted, ref.load, ref.machines_needed,
            ), f"nonp seed {seed} T={T}"
            for mode in ("alpha", "gamma"):
                ref = pmtn_dual_test(inst, T, mode)
                fast = fast_pmtn_test(inst, tn, td, mode)
                assert (
                    fast.accepted, Fraction(fast.load), fast.machines_needed,
                    fast.case, fast.y_negative,
                ) == (
                    ref.accepted, ref.load, ref.machines_needed, ref.case,
                    any("F < L*" in r for r in ref.reject_reasons),
                ), f"pmtn seed {seed} T={T} mode={mode}"
                if fast.case in cases:
                    cases[fast.case] += 1
    # the sweep must actually have left the nice case
    assert cases["3a"] > 0 and cases["3b"] > 0, cases
