"""Baselines and prior-work comparators (Table 1 reproduction).

Each module's docstring says whether it is a faithful reimplementation or
a reconstruction with the same proven guarantee (Monma–Potts, Jansen–Land
next-fit).
"""

from .lpt import grouped_lpt_schedule, job_lpt_schedule
from .mcnaughton import mcnaughton_bound, mcnaughton_schedule, relaxed_instance
from .monma_potts import monma_potts_bound, monma_potts_schedule
from .naive_split import full_split_schedule, no_split_schedule
from .next_fit import next_fit_schedule, next_fit_threshold

__all__ = [
    "grouped_lpt_schedule",
    "job_lpt_schedule",
    "mcnaughton_bound",
    "mcnaughton_schedule",
    "relaxed_instance",
    "monma_potts_bound",
    "monma_potts_schedule",
    "full_split_schedule",
    "no_split_schedule",
    "next_fit_schedule",
    "next_fit_threshold",
]
