"""Lower bounds and the search window ``[T_min, 2·T_min]``.

The paper's dual approximations are turned into approximation algorithms by
searching a window that provably contains ``OPT``:

* every variant:  ``OPT ≥ N/m``  (total load over machines) and
  ``OPT > s_max`` (a setup is never preempted), page 2;
* preemptive (Note 1) and non-preemptive (Note 2):
  ``OPT ≥ max_i (s_i + t^(i)_max)``;
* the O(n) 2-approximations (Appendix A.2) give ``OPT ≤ 2·T_min``.

``T_min`` is variant-specific: ``max{N/m, s_max}`` for splittable and
``max{N/m, max_i(s_i + t^(i)_max)}`` for the job-constrained variants.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .instance import Instance
from .numeric import Time


class Variant(str, Enum):
    """The three problem flavours of the paper."""

    NONPREEMPTIVE = "nonpreemptive"  # P|setup=s_i|Cmax
    PREEMPTIVE = "preemptive"        # P|pmtn,setup=s_i|Cmax
    SPLITTABLE = "splittable"        # P|split,setup=s_i|Cmax

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def average_load(instance: Instance) -> Time:
    """``N/m`` where ``N = Σ s_i + Σ t_j``."""
    return Fraction(instance.total_load, instance.m)


def setup_plus_tmax(instance: Instance) -> int:
    """``max_i (s_i + t^(i)_max)`` — Notes 1 and 2 (instance-cached).

    Machine-count independent, so the cache is shared across a whole
    ``sweep_machines`` run (``with_machines(..., share_caches=True)``).
    """
    cached = instance._misc_cache.get("spt")
    if cached is None:
        cached = max(s + tm for s, tm in zip(instance.setups, instance.class_tmax))
        instance._misc_cache["spt"] = cached
    return cached


def lower_bound(instance: Instance, variant: Variant) -> Time:
    """The strongest *input-only* lower bound on ``OPT`` used by the paper.

    For ratio experiments this is the denominator on instances too large for
    exact solvers: any measured ``makespan / lower_bound ≤ ρ`` certifies an
    approximation factor ≤ ρ for the true optimum as well.
    """
    lb = max(average_load(instance), Fraction(instance.smax))
    if variant is not Variant.SPLITTABLE:
        lb = max(lb, Fraction(setup_plus_tmax(instance)))
    return lb


def t_min(instance: Instance, variant: Variant) -> Time:
    """``T_min`` with ``OPT ∈ [T_min, 2·T_min]`` (Sections 3, 4, Appendices)."""
    return lower_bound(instance, variant)


def t_max_window(instance: Instance, variant: Variant) -> Time:
    """Upper end of the search window (``2·T_min``, Appendix A.2)."""
    return 2 * t_min(instance, variant)


def trivial_upper_bound(instance: Instance) -> int:
    """``N`` — all jobs with one setup each... i.e. everything on one machine."""
    return instance.total_load

