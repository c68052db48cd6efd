"""ASCII Gantt rendering — regenerates the paper's schedule figures.

The paper's Figures 1-13 are machine/time diagrams with setups drawn dark
and guide lines at ``T/4, T/2, 3T/4, T, 5T/4, 3T/2``.  :func:`render_gantt`
draws the same thing in text: one row per machine, setups as ``#``-blocks
labelled ``s<i>``, job pieces as letter-blocks (one letter per class), and
a marker ruler on top.  Exact rational times are mapped to columns by
rounding; adjacent items never visually overlap because column boundaries
are computed from cumulative positions.

Since PR 4 the renderer reads the schedule through the bulk
:meth:`~repro.core.schedule.Schedule.rows` projection — scaled-integer
int lists instead of materialized
:class:`~repro.core.schedule.Placement` objects — and maps times to
columns with exact integer half-even rounding, so the drawing is
bit-identical to the historical Fraction arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence

from ..core.numeric import Time, TimeLike, as_time, time_str
from ..core.schedule import Schedule

_CLASS_GLYPHS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"


def class_glyph(cls: int) -> str:
    return _CLASS_GLYPHS[cls % len(_CLASS_GLYPHS)]


def _round_div(p: int, q: int) -> int:
    """``round(p / q)`` with half-to-even ties, exactly like ``round(Fraction)``."""
    fl, r = divmod(p, q)
    r2 = 2 * r
    if r2 > q or (r2 == q and fl % 2):
        return fl + 1
    return fl


def render_gantt(
    schedule: Schedule,
    width: int = 96,
    markers: Optional[Mapping[str, TimeLike]] = None,
    title: str = "",
    machines: Optional[Sequence[int]] = None,
    horizon: Optional[TimeLike] = None,
) -> str:
    """Render ``schedule`` as ASCII art.

    ``markers`` maps labels (e.g. ``"T"``) to times drawn as a ruler;
    ``machines`` restricts the rows; ``horizon`` fixes the time scale
    (default: max(makespan, markers)).
    """
    marks = {k: as_time(v) for k, v in (markers or {}).items()}
    end = as_time(horizon) if horizon is not None else Fraction(0)
    end = max([end, schedule.makespan(), *marks.values()] or [Fraction(1)])
    if end <= 0:
        end = Fraction(1)
    rows = list(machines) if machines is not None else list(range(schedule.instance.m))

    def col(t: Time) -> int:
        return min(width, round(width * t / end))

    lines: list[str] = []
    if title:
        lines.append(title)
    # marker ruler
    if marks:
        ruler = [" "] * (width + 1)
        labels = [" "] * (width + 1)
        for name, t in sorted(marks.items(), key=lambda kv: kv[1]):
            c = col(t)
            ruler[c] = "|"
            for k, ch in enumerate(name):
                pos = c + k
                if pos <= width:
                    labels[pos] = ch
        lines.append("      " + "".join(labels).rstrip())
        lines.append("      " + "".join(ruler).rstrip())

    # bulk row projection: one integer column set, no Placement/Fraction
    # per item; col(num/scale) = round(width·num·end.den / (scale·end.num))
    sr = schedule.rows()
    kn = width * end.denominator
    kd = sr.scale * end.numerator
    by_machine: dict[int, list[int]] = {}
    for k in range(len(sr)):
        by_machine.setdefault(sr.machine[k], []).append(k)

    for u in rows:
        row = ["."] * (width + 1)
        ks = by_machine.get(u, ())
        for k in sorted(
            ks, key=lambda k: (sr.start_num[k], sr.start_num[k] + sr.length_num[k])
        ):
            sn = sr.start_num[k]
            en = sn + sr.length_num[k]
            a = min(width, _round_div(sn * kn, kd))
            b = min(width, _round_div(en * kn, kd))
            if b <= a:
                b = min(width, a + 1)
            setup = sr.job_idx[k] < 0
            cls = sr.cls[k]
            glyph = "#" if setup else class_glyph(cls)
            for c in range(a, b):
                row[c] = glyph
            # label setups with the class index where room permits
            if setup:
                label = f"s{cls}"
                if b - a >= len(label) + 1:
                    for j, ch in enumerate(label):
                        row[a + 1 + j] = ch
        lines.append(f"M{u:>3}  " + "".join(row).rstrip(".") )
    # legend
    classes = sorted({int(c) for c in sr.cls})
    legend = ", ".join(f"{class_glyph(i)}=class {i}" for i in classes[:12])
    lines.append(f"      [{legend}{', …' if len(classes) > 12 else ''}]  "
                 f"(#=setup, horizon={time_str(end)})")
    return "\n".join(lines)


def render_template(gaps: Sequence[tuple[int, TimeLike, TimeLike]], m: int,
                    width: int = 96, title: str = "wrap template") -> str:
    """Render a wrap template's gaps (Figure 6): ``=`` marks free gap time."""
    gaps = [(u, as_time(a), as_time(b)) for u, a, b in gaps]
    end = max(b for _, _, b in gaps)
    lines = [title]

    def col(t: Time) -> int:
        return min(width, round(width * t / end))

    by_machine = {u: (a, b) for u, a, b in gaps}
    for u in range(m):
        row = ["."] * (width + 1)
        if u in by_machine:
            a, b = by_machine[u]
            for c in range(col(a), max(col(a) + 1, col(b))):
                row[c] = "="
            la, lb = f"a{u}", f"b{u}"
            for k, ch in enumerate(la):
                if col(a) + k <= width:
                    row[col(a) + k] = ch
        lines.append(f"M{u:>3}  " + "".join(row).rstrip("."))
    lines.append(f"      (==free gap, horizon={time_str(end)})")
    return "\n".join(lines)
