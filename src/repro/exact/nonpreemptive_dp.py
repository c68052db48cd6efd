"""Exact non-preemptive OPT via bitmask dynamic programming.

``P|setup=s_i|Cmax`` is strongly NP-hard, but ratio experiments need the
true optimum on small instances.  For ``n ≤ ~14``:

* ``load[mask]`` — the single-machine load of the job set ``mask`` (its
  processing plus one setup per distinct class), computed incrementally;
* feasibility of a makespan ``T``: can ``[n]`` be covered by ≤ m masks
  with ``load ≤ T``?  Subset DP ``bins[mask] = min bins`` over submask
  enumeration (O(3^n));
* ``OPT`` equals some ``load[mask]`` (the bottleneck machine's load), so a
  binary search over the sorted distinct load values finds it exactly.
"""

from __future__ import annotations

from fractions import Fraction

from ..core.instance import Instance
from ..core.schedule import Schedule

#: guard: 3^18 submask enumerations is already ~0.4G — refuse bigger inputs.
MAX_JOBS = 16


def _loads(instance: Instance) -> list[int]:
    """``load[mask]`` for every subset of jobs (one setup per class present)."""
    jobs = [(job, t) for job, t in instance.iter_jobs()]
    n = len(jobs)
    class_mask = [0] * instance.c
    for k, (job, _) in enumerate(jobs):
        class_mask[job.cls] |= 1 << k
    load = [0] * (1 << n)
    for mask in range(1, 1 << n):
        k = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << k)
        job, t = jobs[k]
        extra = t
        if not rest & class_mask[job.cls]:
            extra += instance.setups[job.cls]
        load[mask] = load[rest] + extra
    return load


def _min_bins(n: int, fits: list[bool]) -> list[int]:
    """``bins[mask]`` = minimal number of feasible machines covering mask."""
    INF = 10**9
    bins = [INF] * (1 << n)
    bins[0] = 0
    for mask in range(1, 1 << n):
        low = mask & -mask
        sub = mask
        best = INF
        while sub:
            if sub & low and fits[sub]:
                cand = bins[mask ^ sub]
                if cand + 1 < best:
                    best = cand + 1
            sub = (sub - 1) & mask
        bins[mask] = best
    return bins


def exact_nonpreemptive_opt(instance: Instance) -> int:
    """The exact optimal makespan (an integer, Theorem 8's observation)."""
    n = instance.n
    if n > MAX_JOBS:
        raise ValueError(f"exact DP limited to n <= {MAX_JOBS}, got {n}")
    load = _loads(instance)
    full = (1 << n) - 1
    candidates = sorted(set(load[1:]))

    def feasible(T: int) -> bool:
        fits = [l <= T for l in load]
        return _min_bins(n, fits)[full] <= instance.m

    lo, hi = 0, len(candidates) - 1
    if feasible(candidates[0]):
        return candidates[0]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            hi = mid
        else:
            lo = mid
    return candidates[hi]


def exact_nonpreemptive_schedule(instance: Instance) -> tuple[int, Schedule]:
    """OPT plus one optimal schedule (reconstructed from the DP)."""
    opt = exact_nonpreemptive_opt(instance)
    jobs = [(job, t) for job, t in instance.iter_jobs()]
    n = len(jobs)
    load = _loads(instance)
    fits = [l <= opt for l in load]
    bins = _min_bins(n, fits)
    schedule = Schedule(instance)
    mask = (1 << n) - 1
    machine = 0
    while mask:
        low = mask & -mask
        sub = mask
        chosen = None
        while sub:
            if sub & low and fits[sub] and bins[mask ^ sub] == bins[mask] - 1:
                chosen = sub
                break
            sub = (sub - 1) & mask
        assert chosen is not None
        t = Fraction(0)
        state = None
        members = [jobs[k] for k in range(n) if chosen >> k & 1]
        members.sort(key=lambda jt: jt[0].cls)
        for job, length in members:
            if state != job.cls:
                schedule.add_setup(machine, t, job.cls)
                t += instance.setups[job.cls]
                state = job.cls
            schedule.add_job(machine, t, job)
            t += length
        machine += 1
        mask ^= chosen
    return opt, schedule


def brute_force_opt(instance: Instance) -> int:
    """Independent reference: try every assignment of jobs to machines.

    Exponential (m^n) — only for cross-checking the DP on tiny inputs.
    """
    jobs = [(job, t) for job, t in instance.iter_jobs()]
    n = len(jobs)
    if n > 8 or instance.m ** n > 3_000_000:
        raise ValueError("brute force limited to m^n <= 3e6")
    best = instance.total_load
    assignment = [0] * n

    def machine_load(u: int) -> int:
        total = 0
        classes = set()
        for k in range(n):
            if assignment[k] == u:
                total += jobs[k][1]
                classes.add(jobs[k][0].cls)
        return total + sum(instance.setups[i] for i in classes)

    def rec(k: int) -> None:
        nonlocal best
        if k == n:
            cmax = max(machine_load(u) for u in range(instance.m))
            best = min(best, cmax)
            return
        # symmetry breaking: job k may only open machine max_used+1
        used = max(assignment[:k], default=-1)
        for u in range(min(used + 2, instance.m)):
            assignment[k] = u
            rec(k + 1)
        assignment[k] = 0

    rec(0)
    return best
