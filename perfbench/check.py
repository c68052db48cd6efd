"""Correctness of every reply, checked after the timed windows.

A reply is correct when it equals the reference line for its position
(compared by ``hash``, which the client keeps instead of the reply):
the same request solved by a direct ``solve_batch`` call on a fresh
instance and encoded with ``response_line``.  Each distinct
reference is also decoded and checked on its own terms once: full
schedules pass ``validate_columns`` for their variant with the reported
makespan, and every makespan (or bounds-only ``makespan_bound``) stays
within ``ratio_bound * opt_lower_bound`` and, for ``three_halves``,
within ``3/2 * T``.
"""

from __future__ import annotations

import json
from fractions import Fraction

from repro.algos.batch_api import solve_batch
from repro.core.bounds import Variant
from repro.core.errors import InfeasibleScheduleError
from repro.core.schedule import ScheduleColumns
from repro.core.validate import validate_columns
from repro.service.protocol import (
    instance_from_obj,
    parse_time,
    request_from_obj,
    response_line,
)


class Checker:
    """References and verdicts for one workload's traffic, built lazily."""

    def __init__(self, traffic) -> None:
        self.traffic = traffic
        self.results: dict[int, object] = {}   # body index -> direct result
        self._lines: dict[int, str] = {}       # timed position -> reference
        self.bad: set[int] = set()             # bodies whose reference fails
        self.problems: list[str] = []

    def result(self, body_idx: int):
        result = self.results.get(body_idx)
        if result is None:
            item = request_from_obj(self.traffic.bodies[body_idx]).to_item()
            result = self.results[body_idx] = solve_batch([item])[0]
            problem = audit(self.traffic.bodies[body_idx],
                            json.loads(response_line(None, result)))
            if problem:
                self.bad.add(body_idx)
                self.problems.append(f"reference for body {body_idx}: {problem}")
        return result

    def reference(self, pos: int) -> str:
        line = self._lines.get(pos)
        if line is None:
            body_idx = self.traffic.timed[pos]
            line = self._lines[pos] = response_line(pos, self.result(body_idx))
        return line

    def check_timed(self, reply_hashes: list[int]) -> list[bool]:
        """Per reply of a hashed timed phase (in send order): is it correct?"""
        verdicts = []
        n = len(self.traffic.timed)
        for k, digest in enumerate(reply_hashes):
            pos = k % n
            ok = (digest == hash(self.reference(pos))
                  and self.traffic.timed[pos] not in self.bad)
            verdicts.append(ok)
            if not ok and len(self.problems) < 5:
                self.problems.append(f"reply {k} differs from its reference")
        return verdicts

    def check_warmup(self, replies: list[str]) -> None:
        """Note set-up replies that are not successful answers."""
        bad = sum(1 for r in replies if json.loads(r).get("ok") is not True)
        if bad:
            self.problems.append(f"{bad} warm-up replies failed")


def audit(body: dict, reply: dict) -> str | None:
    """Why a decoded success reply is wrong for ``body``, or None."""
    if reply.get("ok") is not True:
        return f"not ok: {reply.get('error')}"
    ms = body.get("ms") or [body["instance"]["m"]]
    results = reply["results"]
    if len(results) != len(ms):
        return f"{len(results)} results for {len(ms)} machine counts"
    variant = Variant(body.get("variant", "nonpreemptive"))
    for m, res in zip(ms, results):
        if res["m"] != m:
            return f"result for m={res['m']}, asked m={m}"
        T = parse_time(res["T"])
        bound = parse_time(res["ratio_bound"]) * parse_time(res["opt_lower_bound"])
        if res["kind"] == "solve":
            rows = res["schedule"]
            cols = ScheduleColumns()
            cols.extend_scaled(rows["machine"], rows["start_num"], rows["length_num"],
                               rows["scale"], rows["cls"], rows["job_idx"])
            instance = instance_from_obj(dict(body["instance"], m=m))
            try:
                cmax = validate_columns(instance, cols, variant)
            except InfeasibleScheduleError as exc:
                return f"invalid schedule at m={m}: {exc}"
            if cmax != parse_time(res["makespan"]):
                return f"makespan {res['makespan']} but schedule ends at {cmax}"
        else:
            cmax = parse_time(res["makespan_bound"])
        if cmax > bound:
            return f"makespan {cmax} above ratio_bound * opt_lower_bound = {bound}"
        if res["algorithm"] == "three_halves" and cmax > Fraction(3, 2) * T:
            return f"makespan {cmax} above 3/2 * T = {Fraction(3, 2) * T}"
    return None
