"""Compare two sets of benchmark runs against the benchmark's own bounds.

Usage::

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

Each file holds the records ``run.py --output FILE`` appends, one per
run (several seeds per workload).  For every workload in both files and
every end-to-end metric of ``BENCHMARK.json`` it prints both medians,
both quartile spreads (interquartile range over median) and the change
against the metric's bound:

* ``unresolved`` when either side's spread exceeds the bound,
* ``WORSE`` / ``better`` when the medians differ by more than the bound,
* ``within bound`` otherwise.

Runs whose metadata differ in anything but the git sha and the seed are
refused.  The exit code is 1 when some metric got worse, 2 when the
files cannot be compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FREE_META = ("git_sha", "seed")


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [r for r in map(json.loads, filter(str.strip, fh)) if not r["trace"]]


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    metas = {json.dumps({k: v for k, v in r["meta"].items() if k not in FREE_META},
                        sort_keys=True) for r in old + new}
    if len(metas) > 1:
        print("refusing to compare: run metadata differ beyond git sha and seed:",
              file=sys.stderr)
        for meta in sorted(metas):
            print(f"  {meta}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = False
    print(f"{'workload':<16} {'metric':<16} {'old':>11} {'new':>11} "
          f"{'old iqr':>8} {'new iqr':>8} {'change':>8} {'bound':>6}  verdict")
    for wl in (w["name"] for w in bench["workloads"]):
        a = [r for r in old if r["workload"] == wl]
        b = [r for r in new if r["workload"] == wl]
        if not a or not b:
            continue
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = spread(va), spread(vb)
            change = (mb - ma) / ma
            loss = change if metric["better"] == "lower" else -change
            if max(sa, sb) > bound:
                verdict = "unresolved"
            elif loss > bound:
                verdict, worse = "WORSE", True
            elif -loss > bound:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"{wl:<16} {name:<16} {ma:>11.5g} {mb:>11.5g} {sa:>8.3f} "
                  f"{sb:>8.3f} {change:>+8.3f} {bound:>6.2f}  {verdict}")
        ea = statistics.median(r["error_rate"] for r in a)
        eb = statistics.median(r["error_rate"] for r in b)
        verdict = "WORSE" if eb > ea else "within bound"
        worse |= eb > ea
        print(f"{wl:<16} {'error_rate':<16} {ea:>11.5g} {eb:>11.5g} "
              f"{'':>8} {'':>8} {'':>8} {0:>6.2f}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
