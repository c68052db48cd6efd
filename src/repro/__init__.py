"""repro — reproduction of Deppert & Jansen (SPAA 2019).

Near-linear approximation algorithms for makespan scheduling with batch
setup times on identical machines, in three flavours (non-preemptive,
preemptive, splittable):

* 2-approximation in O(n)                                  (Theorem 1)
* (3/2+ε)-approximation in O(n log 1/ε)                    (Theorem 2)
* 3/2-approximation, near-linear                           (Theorems 3, 6, 8)

Public entry point::

    from repro import Instance, Variant, solve

    inst = Instance.build(m=3, classes=[(4, [3, 5]), (2, [1, 1, 2])])
    result = solve(inst, Variant.PREEMPTIVE)          # 3/2-approx by default
    print(result.schedule.makespan(), result.ratio_bound)

See README.md for the system inventory; ``python -m repro.experiments``
regenerates the paper-vs-measured record.
"""

from .core import (
    ConstructionError,
    InfeasibleScheduleError,
    Instance,
    InvalidInstanceError,
    JobRef,
    Placement,
    Schedule,
    Time,
    Variant,
    is_feasible,
    lower_bound,
    t_min,
    validate_schedule,
)

__version__ = "1.0.0"

__all__ = [
    "ConstructionError",
    "InfeasibleScheduleError",
    "Instance",
    "InvalidInstanceError",
    "JobRef",
    "Placement",
    "Schedule",
    "Time",
    "Variant",
    "is_feasible",
    "lower_bound",
    "t_min",
    "validate_schedule",
    "solve",
    "SolveResult",
    "solve_batch",
    "solve_many",
    "sweep_machines",
    "BatchItem",
    "SweepPoint",
]


def __getattr__(name):
    # Lazy import: repro.algos pulls in every algorithm; keep `import repro`
    # light for users who only need the data model.
    if name in ("solve", "SolveResult"):
        from .algos.api import SolveResult, solve

        return {"solve": solve, "SolveResult": SolveResult}[name]
    if name in ("solve_batch", "solve_many", "sweep_machines", "BatchItem", "SweepPoint"):
        from .algos.batch_api import (
            BatchItem,
            SweepPoint,
            solve_batch,
            solve_many,
            sweep_machines,
        )

        return {
            "solve_batch": solve_batch,
            "solve_many": solve_many,
            "sweep_machines": sweep_machines,
            "BatchItem": BatchItem,
            "SweepPoint": SweepPoint,
        }[name]
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
