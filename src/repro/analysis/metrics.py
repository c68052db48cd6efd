"""Schedule quality metrics used by the experiments."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..core.bounds import Variant, lower_bound
from ..core.numeric import Time, TimeLike, as_time
from ..core.schedule import Schedule


@dataclass(frozen=True)
class ScheduleMetrics:
    """Quality summary of one schedule against the best available reference."""

    makespan: Time
    reference: Time            # exact OPT when known, else the dual/input LB
    reference_kind: str        # "opt" | "lower-bound"
    ratio: Fraction            # makespan / reference (≥ true ratio if LB)
    setup_time: Time           # total time spent in setups
    setup_share: Fraction      # setup_time / total busy time
    machines_used: int
    utilization: Fraction      # busy time / (m * makespan)

    def row(self) -> dict:
        return {
            "makespan": float(self.makespan),
            "reference": float(self.reference),
            "ratio": float(self.ratio),
            "setup_share": float(self.setup_share),
            "machines": self.machines_used,
            "utilization": float(self.utilization),
        }


def evaluate_schedule(
    schedule: Schedule,
    variant: Variant,
    opt: Optional[TimeLike] = None,
) -> ScheduleMetrics:
    """Compute :class:`ScheduleMetrics` vs exact OPT (if given) or the LB."""
    inst = schedule.instance
    cmax = schedule.makespan()
    if opt is not None:
        ref = as_time(opt)
        kind = "opt"
    else:
        ref = lower_bound(inst, variant)
        kind = "lower-bound"
    setup_time = sum(
        (p.length for p in schedule.iter_all() if p.is_setup), Fraction(0)
    )
    busy = schedule.total_load()
    used = len(schedule.used_machines())
    return ScheduleMetrics(
        makespan=cmax,
        reference=ref,
        reference_kind=kind,
        ratio=Fraction(cmax) / Fraction(ref) if ref > 0 else Fraction(0),
        setup_time=setup_time,
        setup_share=Fraction(setup_time) / busy if busy > 0 else Fraction(0),
        machines_used=used,
        utilization=Fraction(busy) / (inst.m * cmax) if cmax > 0 else Fraction(0),
    )
