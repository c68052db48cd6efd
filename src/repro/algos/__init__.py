"""Approximation algorithms of Deppert & Jansen (SPAA 2019).

Layout mirrors the paper:

* :mod:`repro.algos.twoapprox` — Theorem 1 (O(n) ratio 2, all variants)
* :mod:`repro.algos.splittable` — Theorem 7 (3/2-dual, splittable)
* :mod:`repro.algos.pmtn_nice` — Theorem 4 / Algorithm 2 (nice instances)
* :mod:`repro.algos.pmtn_general` — Theorem 5 / Algorithm 3 (preemptive)
* :mod:`repro.algos.nonpreemptive` — Theorem 9 / Algorithm 6
* :mod:`repro.algos.search` — the probe plans of Theorem 2 ((3/2+ε) binary
  search) and Theorem 8, the plan driver and the per-item evaluator
* :mod:`repro.algos.jumping_split` — Theorem 3 / Algorithm 1 (Class Jumping plan)
* :mod:`repro.algos.jumping_pmtn` — Theorem 6 / Algorithm 4 (Class Jumping plan)
* :mod:`repro.algos.api` — the public :func:`repro.solve` façade: the one
  driver that turns a plan's result into a certified solve
* :mod:`repro.algos.batch_api` — sweeps, streams and service micro-batches
  over the same solve path
"""

from .twoapprox import TwoApproxResult, two_approx, two_approx_grouped, two_approx_splittable

__all__ = [
    "TwoApproxResult",
    "two_approx",
    "two_approx_grouped",
    "two_approx_splittable",
]
