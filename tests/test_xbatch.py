"""Cross-instance batched dual tests — differential proof of bit-identity.

The xbatch path (``solve_batch(..., xbatch=True)``) fuses many items'
dual-test probes into one padded :class:`repro.core.xbatch.
BatchDualContext` evaluation per lockstep round.  None of that may change
a single answer, so this suite is the PR's center of gravity:

* **kernel differential** — :meth:`BatchDualContext.evaluate` row-for-row
  against the scalar kernel, on every kind/mode, with ragged class
  counts, mixed safe/overflowing members, and numpy absent;
* **engine differential** — seeded fuzz over heterogeneous micro-batches
  (mixed variants, algorithms, eps, machine counts, schedules/bounds,
  sweeps, duplicate fingerprints): ``xbatch=True`` output equals
  ``xbatch=False`` output field for field, placements included;
* **error parity** — invalid items and expired deadlines raise the same
  error either way (first-error contract, cancellation taxonomy);
* **probe-drift regression** — the probe row stream an item emits under
  lockstep equals its solo stream, pinned both against the sequential
  driver and against batch composition.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.algos.api import solve
from repro.algos.batch_api import BatchItem, SweepPoint, solve_batch
from repro.algos.jumping_pmtn import flip_plan_pmtn
from repro.algos.jumping_split import flip_plan_splittable
from repro.algos.search import probe_evaluator
from repro.core import xbatch
from repro.core.bounds import Variant
from repro.core.cancel import CancelToken, SolveCancelled
from repro.core.fastnum import (
    fast_base_core,
    fast_nonp_test,
    fast_pmtn_test,
    fast_split_test,
)
from repro.core.instance import Instance
from repro.core.validate import validate_schedule
from repro.core.xbatch import BatchDualContext
from repro.obs.trace import TraceScope

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

BIG = 10**16  # scales t_max·den / den·num products past the int64 guard


def rand_instance(rng: random.Random, *, scale: int = 1) -> Instance:
    """A small random instance; ``scale`` pushes values past int64 safety."""
    c = rng.randint(1, 5)
    classes = []
    for _ in range(c):
        setup = rng.randint(0, 8) * scale
        jobs = [rng.randint(1, 12) * scale for _ in range(rng.randint(1, 4))]
        classes.append((setup, jobs))
    return Instance.build(rng.randint(1, 6), classes)


def rand_searchy_instance(rng: random.Random) -> Instance:
    """Setup-heavy, ``m`` ≈ ``c`` — the shape whose flip searches run many
    rounds (``t_min`` rejected, real bracket work) instead of accepting
    immediately."""
    c = rng.randint(4, 12)
    classes = [
        (rng.randint(0, 30),
         [rng.randint(1, 20) for _ in range(rng.randint(1, 5))])
        for _ in range(c)
    ]
    return Instance.build(rng.randint(max(2, c - 2), c), classes)


def probe_times(rng: random.Random, inst: Instance, k: int) -> list[Fraction]:
    """Candidate ``T`` values spanning reject → accept for ``inst``."""
    from repro.core.bounds import t_min

    lo = t_min(inst, Variant.SPLITTABLE)
    times = []
    for _ in range(k):
        num = rng.randint(1, 4)
        den = rng.randint(1, 3)
        times.append(lo + Fraction(num, den) * lo / 2)
    times.append(lo)
    times.append(2 * lo)
    return [t for t in times if t > 0]


def placements_key(schedule):
    return sorted(
        (p.machine, p.start, p.length, p.cls, p.job) for p in schedule.iter_all()
    )


def assert_same_output(got, ref):
    """One solve_batch output entry vs its reference, field for field."""
    if isinstance(got, list):
        assert isinstance(ref, list) and len(got) == len(ref)
        for g, r in zip(got, ref):
            assert_same_output(g, r)
        return
    if isinstance(got, SweepPoint):
        assert isinstance(ref, SweepPoint)
        assert got == ref
        return
    assert got.variant == ref.variant
    assert got.algorithm == ref.algorithm
    assert got.T == ref.T
    assert got.ratio_bound == ref.ratio_bound
    assert got.opt_lower_bound == ref.opt_lower_bound
    assert got.makespan == ref.makespan
    assert placements_key(got.schedule) == placements_key(ref.schedule)


# --------------------------------------------------------------------------- #
# kernel differential: the fused engine vs the scalar kernel
# --------------------------------------------------------------------------- #


KINDS = [("split", ""), ("nonp", ""), ("pmtn", "alpha"), ("pmtn", "gamma"),
         ("pmtn_base", "")]


def member_rows(rng: random.Random, insts, k: int):
    """Shuffled ``(member, tn, td)`` rows spanning every member's bracket."""
    rows = []
    for mi, inst in enumerate(insts):
        for T in probe_times(rng, inst, k):
            rows.append((mi, T.numerator, T.denominator))
    rng.shuffle(rows)
    return rows


def verdict_fields(kind: str, v):
    if kind == "pmtn_base":
        return v  # (load, m_prime) int tuple
    return tuple(v.__dict__.items()) if hasattr(v, "__dict__") else v


class TestXGridKernelDifferential:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("kind,mode", KINDS)
    def test_fused_rows_match_scalar(self, seed, kind, mode):
        rng = random.Random(1000 + seed)
        insts = [rand_instance(rng) for _ in range(4)]
        xctx = BatchDualContext(insts)
        rows = member_rows(rng, insts, 3)
        got = xctx.evaluate(kind, mode, rows)
        want = [xctx.scalar_one(kind, mode, *row) for row in rows]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert verdict_fields(kind, g) == verdict_fields(kind, w)

    @pytest.mark.parametrize("kind,mode", KINDS)
    def test_overflow_members_fall_back_bit_identical(self, kind, mode):
        """Members past the int64 guard drop to scalar, mixed with safe ones."""
        rng = random.Random(7)
        insts = [rand_instance(rng), rand_instance(rng, scale=BIG)]
        xctx = BatchDualContext(insts)
        rows = member_rows(rng, insts, 4)
        got = xctx.evaluate(kind, mode, rows)
        want = [xctx.scalar_one(kind, mode, *row) for row in rows]
        for g, w in zip(got, want):
            assert verdict_fields(kind, g) == verdict_fields(kind, w)

    @pytest.mark.parametrize("kind,mode", KINDS)
    def test_without_numpy_pure_python(self, kind, mode, monkeypatch):
        monkeypatch.setattr(xbatch, "HAVE_NUMPY", False)
        rng = random.Random(11)
        insts = [rand_instance(rng) for _ in range(3)]
        xctx = BatchDualContext(insts)
        rows = member_rows(rng, insts, 3)
        got = xctx.evaluate(kind, mode, rows)
        want = [xctx.scalar_one(kind, mode, *row) for row in rows]
        for g, w in zip(got, want):
            assert verdict_fields(kind, g) == verdict_fields(kind, w)

    def test_rows_match_fastnum_kernels(self):
        """``evaluate`` against the module-level scalar kernels themselves."""
        rng = random.Random(21)
        insts = [rand_instance(rng) for _ in range(3)]
        xctx = BatchDualContext(insts)
        rows = member_rows(rng, insts, 2)
        for kind, mode, kernel in (
            ("split", "", fast_split_test),
            ("nonp", "", fast_nonp_test),
            ("pmtn_base", "", fast_base_core),
            ("pmtn", "gamma", lambda inst, tn, td: fast_pmtn_test(inst, tn, td, "gamma")),
        ):
            got = xctx.evaluate(kind, mode, rows)
            want = [kernel(insts[mi], tn, td) for mi, tn, td in rows]
            for g, w in zip(got, want):
                assert verdict_fields(kind, g) == verdict_fields(kind, w)

    def test_unknown_kind_rejected(self):
        xctx = BatchDualContext([rand_instance(random.Random(3))])
        with pytest.raises(ValueError):
            xctx.evaluate("nope", "", [(0, 1, 1)])
        with pytest.raises(ValueError):  # fusable row counts too
            xctx.evaluate("nope", "", [(0, 1, 1), (0, 2, 1), (0, 3, 1)])

    def test_member_index_appends_and_dedups(self):
        rng = random.Random(5)
        a = rand_instance(rng)
        b = rand_instance(rng)
        xctx = BatchDualContext([a])
        assert xctx.member_index(a) == 0
        assert xctx.member_index(b) == 1
        assert xctx.member_index(b) == 1
        assert xctx.members == [a, b]

    def test_cache_sharing_copies_are_separate_members(self):
        """A representative and its cache-sharing copies at other machine
        counts are distinct members: every fused row answers for its own
        ``m``, while the engine's per-instance scratch is built once."""
        rng = random.Random(31)
        rep = rand_searchy_instance(rng)
        members = [rep] + [
            rep.with_machines(rep.m + d, share_caches=True) for d in (1, 4)
        ]
        xctx = BatchDualContext([])
        assert [xctx.member_index(inst) for inst in members] == [0, 1, 2]
        for kind, mode in KINDS:
            rows = member_rows(rng, members, 4)
            with TraceScope() as scope:
                got = xctx.evaluate(kind, mode, rows)
            if kind in ("nonp", "pmtn"):  # no fused lane: scalar on every tier
                assert scope.counts.get("xbatch.rows_scalar") == len(rows)
            elif xbatch.HAVE_NUMPY:
                assert scope.counts.get("xbatch.rows_fused") == len(rows)
            for (mi, tn, td), g in zip(rows, got):
                fresh = Instance(m=members[mi].m, setups=rep.setups, jobs=rep.jobs)
                want = BatchDualContext([fresh]).scalar_one(kind, mode, 0, tn, td)
                assert verdict_fields(kind, g) == verdict_fields(kind, want)
        if xbatch.HAVE_NUMPY:  # one columns entry, shared by all three
            assert sum("xgrid_cols" in str(k) for k in rep._misc_cache) == 1
            cols = rep._misc_cache["xgrid_cols"]
            assert all(xbatch._member_cols(inst) is cols for inst in members)


# --------------------------------------------------------------------------- #
# engine differential: solve_batch(xbatch=True) vs solve_batch(xbatch=False)
# --------------------------------------------------------------------------- #


VARIANTS = list(Variant)


def rand_batch(rng: random.Random, size: int) -> list[BatchItem]:
    """A heterogeneous micro-batch like a service shard would dispatch."""
    items = []
    pool = [
        rand_searchy_instance(rng) if rng.random() < 0.4 else rand_instance(rng)
        for _ in range(max(2, size // 2))
    ]
    for _ in range(size):
        inst = rng.choice(pool)
        if rng.random() < 0.3:  # same fingerprint, different m
            inst = inst.with_machines(rng.randint(1, 7))
        variant = rng.choice(VARIANTS)
        roll = rng.random()
        schedules = rng.random() < 0.5
        if roll < 0.6:
            algorithm = "three_halves"
        elif roll < 0.85:
            algorithm = "eps"
        else:
            algorithm = "two"
            schedules = True  # "two" is schedule-only
        ms = None
        if rng.random() < 0.15 and algorithm != "two":
            ms = tuple(sorted({rng.randint(1, 6) for _ in range(3)}))
        items.append(BatchItem(
            instance=inst,
            variant=variant,
            algorithm=algorithm,
            eps=Fraction(1, rng.choice([3, 10, 100])),
            schedules=schedules,
            ms=ms,
        ))
    return items


class TestSolveBatchDifferential:
    @pytest.mark.parametrize("seed", range(12))
    def test_fuzz_bit_identical(self, seed):
        rng = random.Random(9000 + seed)
        items = rand_batch(rng, rng.randint(2, 8))
        ref = solve_batch(items, xbatch=False)
        got = solve_batch(items, xbatch=True)
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert_same_output(g, r)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_homogeneous_variant_batches(self, variant):
        rng = random.Random(hash(variant.value) & 0xFFFF)
        items = [
            BatchItem(instance=rand_instance(rng), variant=variant,
                      schedules=bool(i % 2))
            for i in range(6)
        ]
        for g, r in zip(solve_batch(items, xbatch=True),
                        solve_batch(items, xbatch=False)):
            assert_same_output(g, r)

    def test_matches_looped_solve_and_validates(self):
        """xbatch output equals fresh solve() and passes the validator."""
        rng = random.Random(77)
        items = [
            BatchItem(instance=rand_instance(rng), variant=v)
            for v in VARIANTS for _ in range(2)
        ]
        results = solve_batch(items, xbatch=True)
        for item, res in zip(items, results):
            fresh = Instance(m=item.instance.m, setups=item.instance.setups,
                             jobs=item.instance.jobs)
            ref = solve(fresh, item.variant)
            assert_same_output(res, ref)
            cmax = validate_schedule(res.schedule, item.variant)
            assert cmax == ref.makespan

    @pytest.mark.parametrize("seed", range(4))
    def test_without_numpy_lockstep_still_identical(self, seed, monkeypatch):
        monkeypatch.setattr(xbatch, "HAVE_NUMPY", False)
        rng = random.Random(400 + seed)
        items = rand_batch(rng, 5)
        for g, r in zip(solve_batch(items, xbatch=True),
                        solve_batch(items, xbatch=False)):
            assert_same_output(g, r)

    def test_overflow_boundary_items(self):
        """Huge-value instances force the scalar tier mid-lockstep."""
        rng = random.Random(31)
        items = [
            BatchItem(instance=rand_instance(rng, scale=BIG), variant=v,
                      schedules=False)
            for v in VARIANTS
        ] + [BatchItem(instance=rand_instance(rng), variant=v) for v in VARIANTS]
        for g, r in zip(solve_batch(items, xbatch=True),
                        solve_batch(items, xbatch=False)):
            assert_same_output(g, r)

    def test_fraction_kernel_takes_sequential_path(self):
        rng = random.Random(13)
        items = rand_batch(rng, 4)
        for g, r in zip(solve_batch(items, kernel="fraction", xbatch=True),
                        solve_batch(items, kernel="fraction", xbatch=False)):
            assert_same_output(g, r)

    def test_shared_reps_table_stays_warm(self):
        rng = random.Random(53)
        items = rand_batch(rng, 5)
        reps_a: dict = {}
        reps_b: dict = {}
        got = solve_batch(items, reps=reps_a, xbatch=True)
        ref = solve_batch(items, reps=reps_b, xbatch=False)
        for g, r in zip(got, ref):
            assert_same_output(g, r)
        assert set(reps_a) == set(reps_b)
        # second pass over the now-warm table is still identical
        for g, r in zip(solve_batch(items, reps=reps_a, xbatch=True),
                        solve_batch(items, reps=reps_b, xbatch=False)):
            assert_same_output(g, r)


# --------------------------------------------------------------------------- #
# error parity: same taxonomy, same first error, either path
# --------------------------------------------------------------------------- #


class TestErrorParity:
    def test_bad_eps_raises_same_error(self):
        rng = random.Random(3)
        good = BatchItem(instance=rand_instance(rng))
        # non-trivial (1 < m < n) so the eps search actually starts
        nontrivial = Instance.build(3, [(2, [3, 4]), (1, [5, 2]), (4, [1, 6])])
        bad = BatchItem(instance=nontrivial, algorithm="eps", eps=Fraction(0))
        for batch in ([bad], [good, bad], [good, bad, good]):
            with pytest.raises(ValueError, match="eps") as seq_err:
                solve_batch(batch, xbatch=False)
            with pytest.raises(ValueError, match="eps") as lock_err:
                solve_batch(batch, xbatch=True)
            assert str(seq_err.value) == str(lock_err.value)

    def test_first_error_wins(self):
        """Two failing items: both paths surface the smallest index's error."""
        rng = random.Random(19)
        bad_eps = BatchItem(instance=rand_instance(rng), algorithm="eps",
                            eps=Fraction(-1))
        bad_algo = BatchItem(instance=rand_instance(rng), algorithm="two",
                             schedules=False)
        # invalid algorithm/mode combos are rejected at validation, before
        # any solve — identical up-front error on both paths
        with pytest.raises(ValueError) as a:
            solve_batch([bad_algo, bad_eps], xbatch=False)
        with pytest.raises(ValueError) as b:
            solve_batch([bad_algo, bad_eps], xbatch=True)
        assert str(a.value) == str(b.value)

    def test_expired_token_raises_solvecancelled_both_paths(self):
        rng = random.Random(23)
        items = [BatchItem(instance=rand_instance(rng)) for _ in range(3)]
        fired = CancelToken()
        fired.cancel()
        cancels = [None, fired, None]
        with pytest.raises(SolveCancelled):
            solve_batch(items, cancels=cancels, xbatch=False)
        with pytest.raises(SolveCancelled):
            solve_batch(items, cancels=cancels, xbatch=True)

    def test_unfired_tokens_do_not_perturb_results(self):
        rng = random.Random(29)
        items = rand_batch(rng, 4)
        cancels = [CancelToken.after(3600.0) for _ in items]
        got = solve_batch(items, cancels=cancels, xbatch=True)
        ref = solve_batch(items, xbatch=False)
        for g, r in zip(got, ref):
            assert_same_output(g, r)


# --------------------------------------------------------------------------- #
# probe-drift regression: lockstep stream == solo stream
# --------------------------------------------------------------------------- #


def record_solo_stream(plan, evaluate):
    """Drive ``plan`` with the real evaluator, recording each probe row."""
    stream = []
    response = None
    while True:
        try:
            req = plan.send(response) if response is not None else next(plan)
        except StopIteration:
            return stream
        for tn, td in req.times:
            stream.append((req.kind, req.mode, tn, td))
        response = evaluate(req)


def record_lockstep_streams(items, monkeypatch):
    """Per-item probe row streams seen by ``BatchDualContext.evaluate``."""
    streams: dict[int, list] = {}
    orig = BatchDualContext.evaluate

    def spy(self, kind, mode, rows):
        for mi, tn, td in rows:
            streams.setdefault(mi, []).append((kind, mode, tn, td))
        return orig(self, kind, mode, rows)

    monkeypatch.setattr(BatchDualContext, "evaluate", spy)
    solve_batch(items, xbatch=True)
    monkeypatch.setattr(BatchDualContext, "evaluate", orig)
    return streams


class TestProbeDriftRegression:
    def test_lockstep_stream_equals_solo_driver_stream(self, monkeypatch):
        """The literal sequential generators emit the same rows lockstep does.

        Items are distinct fingerprints at distinct machine counts, so
        item i is member i of the round contexts; the solo stream comes
        from driving the same plan functions by hand.
        """
        rng = random.Random(189)
        insts = [rand_searchy_instance(rng) for _ in range(4)]
        items = [
            BatchItem(instance=insts[0], variant=Variant.SPLITTABLE),
            BatchItem(instance=insts[1], variant=Variant.PREEMPTIVE),
            BatchItem(instance=insts[2], variant=Variant.SPLITTABLE,
                      schedules=False),
            BatchItem(instance=insts[3], variant=Variant.PREEMPTIVE,
                      schedules=False),
        ]
        # drop any trivial-closed-form item: it never reaches lockstep
        items = [
            it for it in items
            if it.instance.m > 1
        ]
        from repro.algos.batch_api import _grid_for

        streams = record_lockstep_streams(items, monkeypatch)
        member = 0
        for item in items:
            inst = item.instance
            # the same grid resolution the coordinator's prelude applies
            grid = _grid_for(
                inst, item.variant, item.algorithm, "fast", None, item.schedules
            )
            if item.variant is Variant.SPLITTABLE:
                plan = flip_plan_splittable(inst, grid=grid)
                evaluate = probe_evaluator(inst, fast=True, grid=grid)
            else:
                if inst.m >= inst.n:
                    continue  # trivial: no lockstep member for this item
                plan = flip_plan_pmtn(inst, use_base_jump=True, grid=grid)
                evaluate = probe_evaluator(inst, fast=True, grid=grid)
            solo = record_solo_stream(plan, evaluate)
            assert solo  # every non-trivial flip search probes at least once
            assert streams.get(member, []) == solo
            member += 1
        assert member > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_stream_independent_of_batch_composition(self, seed, monkeypatch):
        """An item's probe stream is the same alone and inside a big batch."""
        rng = random.Random(600 + seed)
        items = [
            BatchItem(instance=rand_searchy_instance(rng),
                      variant=rng.choice(VARIANTS),
                      schedules=rng.random() < 0.5)
            for _ in range(5)
        ]
        batched = record_lockstep_streams(items, monkeypatch)
        # map members by fingerprint/m: rebuild per-item expectation solo
        member = 0
        for item in items:
            inst = item.instance
            if inst.m == 1 or (item.variant is not Variant.SPLITTABLE
                               and inst.m >= inst.n):
                continue  # trivial closed form: not a lockstep member
            solo = record_lockstep_streams([item], monkeypatch)
            assert solo.get(0, []) == batched.get(member, [])
            member += 1

    @pytest.mark.parametrize("seed", range(6))
    def test_accept_calls_identical(self, seed):
        """Probe counts (the paper's complexity measure) never drift."""
        rng = random.Random(800 + seed)
        items = [
            BatchItem(instance=rand_instance(rng), variant=rng.choice(VARIANTS),
                      algorithm=rng.choice(["three_halves", "eps"]),
                      schedules=False)
            for _ in range(6)
        ]
        got = solve_batch(items, xbatch=True)
        ref = solve_batch(items, xbatch=False)
        for g, r in zip(got, ref):
            assert g.accept_calls == r.accept_calls
            assert g == r

    def test_probe_counters_identical(self):
        """An armed trace sees the same ``probe.*`` counts on both paths.

        3 variants x {eps, three_halves}, bounds-only, c = 60: the
        coordinator counts each request it collects, exactly where the
        sequential driver counts it, and every plan files its probes
        under its real kind and mode.
        """
        from repro.generators import uniform_instance
        from repro.obs.trace import TraceScope

        items = [
            BatchItem(
                instance=uniform_instance(
                    m=45, c=60, n_per_class=2, seed=40 + k, tmax=20
                ),
                variant=variant, algorithm=algorithm, eps=Fraction(1, 1000),
                schedules=False,
            )
            for k, (variant, algorithm) in enumerate(
                (v, a) for v in VARIANTS for a in ("eps", "three_halves")
            )
        ]
        counts = {}
        for xb in (False, True):
            with TraceScope() as scope:
                solve_batch(items, xbatch=xb)
            counts[xb] = {
                k: n for k, n in scope.counts.items() if k.startswith("probe.")
            }
        assert counts[True] == counts[False]
        assert sum(counts[True].values()) >= 30
        assert "probe.-.-" not in counts[True]
        assert {"probe.split.-", "probe.nonp.-", "probe.pmtn.alpha",
                "probe.pmtn.gamma"} <= set(counts[True])


# --------------------------------------------------------------------------- #
# scaled-integer plan tier (PR 9): pair plans vs the Fraction kernel
# --------------------------------------------------------------------------- #


def drive_recording(plan, evaluate):
    """Drive ``plan`` to completion, returning ``(probe stream, result)``."""
    from repro.algos.search import drive_plan

    stream = []

    def spy(req):
        for tn, td in req.times:
            stream.append((req.op, req.kind, req.mode, tn, td))
        return evaluate(req)

    return stream, drive_plan(plan, spy)


class TestScaledIntPlanTier:
    """The pair-native probe plans emit bit-identical streams on both kernels.

    The plan generators carry normalized ``(num, den)`` pairs end to end;
    the only Fractions are the ones the fraction-kernel evaluator branch
    rebuilds at its boundary.  Since normalized pairs are canonical per
    rational, the probe values, memo keys (hence hit counts and
    ``accept_calls``) and results must match the Fraction-kernel drive
    exactly — pinned here per variant, with and without numpy.
    """

    def _evaluators(self, inst, variant):
        return (
            probe_evaluator(inst, fast=True, grid=False),
            probe_evaluator(inst, fast=False, grid=False),
        )

    def _plan(self, inst, variant):
        if variant is Variant.SPLITTABLE:
            return flip_plan_splittable(inst, grid=False)
        return flip_plan_pmtn(inst, grid=False)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "variant", [Variant.SPLITTABLE, Variant.PREEMPTIVE]
    )
    def test_flip_plan_stream_identical_across_kernels(self, seed, variant):
        rng = random.Random(2100 + seed)
        inst = rand_searchy_instance(rng)
        fast_eval, frac_eval = self._evaluators(inst, variant)
        fast_stream, fast_res = drive_recording(self._plan(inst, variant), fast_eval)
        frac_stream, frac_res = drive_recording(self._plan(inst, variant), frac_eval)
        assert fast_stream == frac_stream  # probe values, order, memo misses
        assert fast_res == frac_res        # result pairs + accept_calls
        # every emitted probe pair is in lowest terms with a positive den
        from math import gcd

        for _, _, _, tn, td in fast_stream:
            assert td > 0 and gcd(tn, td) == 1

    @pytest.mark.parametrize("variant", [Variant.SPLITTABLE, Variant.PREEMPTIVE])
    def test_flip_plan_streams_without_numpy(self, variant, monkeypatch):
        monkeypatch.setattr(xbatch, "HAVE_NUMPY", False)
        rng = random.Random(2200)
        inst = rand_searchy_instance(rng)
        fast_eval, frac_eval = self._evaluators(inst, variant)
        fast_stream, fast_res = drive_recording(self._plan(inst, variant), fast_eval)
        frac_stream, frac_res = drive_recording(self._plan(inst, variant), frac_eval)
        assert fast_stream == frac_stream
        assert fast_res == frac_res

    @pytest.mark.parametrize("seed", range(4))
    def test_eps_and_integer_plan_streams(self, seed):
        """Theorem-2/Theorem-8 plans: same streams on both kernels."""
        from repro.algos.nonpreemptive import nonp_dual_test
        from repro.algos.search import eps_probe_plan, integer_probe_plan
        from repro.core.bounds import t_min
        from repro.core.fastnum import fast_nonp_test
        from repro.core.numeric import fast_fraction

        rng = random.Random(2300 + seed)
        inst = rand_searchy_instance(rng)

        fast_eval, frac_eval = self._evaluators(inst, Variant.SPLITTABLE)
        tmin = t_min(inst, Variant.SPLITTABLE)
        for eps in (Fraction(1, 3), Fraction(1, 100)):
            fast_stream, fast_res = drive_recording(
                eps_probe_plan(tmin, eps, "split", ""), fast_eval
            )
            frac_stream, frac_res = drive_recording(
                eps_probe_plan(tmin, eps, "split", ""), frac_eval
            )
            assert fast_stream == frac_stream
            assert fast_res == frac_res

        def nonp_eval(fast):
            def evaluate(req):
                if fast:
                    return [
                        fast_nonp_test(inst, tn, td).accepted for tn, td in req.times
                    ]
                return [
                    nonp_dual_test(inst, fast_fraction(tn, td)).accepted
                    for tn, td in req.times
                ]

            return evaluate

        tmin_n = t_min(inst, Variant.NONPREEMPTIVE)
        fast_stream, fast_res = drive_recording(
            integer_probe_plan(tmin_n, "nonp"), nonp_eval(True)
        )
        frac_stream, frac_res = drive_recording(
            integer_probe_plan(tmin_n, "nonp"), nonp_eval(False)
        )
        assert fast_stream == frac_stream
        assert fast_res == frac_res

    @pytest.mark.parametrize("variant", [Variant.SPLITTABLE, Variant.PREEMPTIVE])
    def test_grid_and_scalar_plans_agree_on_results(self, variant):
        """grid=True reorders probes into blocks but never changes the flip."""
        rng = random.Random(2400)
        inst = rand_searchy_instance(rng)
        if variant is Variant.SPLITTABLE:
            scalar = drive_recording(
                flip_plan_splittable(inst, grid=False),
                probe_evaluator(inst, fast=True, grid=False),
            )
            grid = drive_recording(
                flip_plan_splittable(inst, grid=True),
                probe_evaluator(inst, fast=True, grid=True),
            )
        else:
            scalar = drive_recording(
                flip_plan_pmtn(inst, grid=False),
                probe_evaluator(inst, fast=True, grid=False),
            )
            grid = drive_recording(
                flip_plan_pmtn(inst, grid=True),
                probe_evaluator(inst, fast=True, grid=True),
            )
        assert scalar[1][0] == grid[1][0]  # same flip pair


class TestMemoNormalization:
    """Satellite: memo keys are gcd-reduced, so unnormalized inputs share
    cache entries with their canonical representations."""

    def test_plan_accept_normalizes_pairs(self):
        from repro.algos.search import plan_accept

        memo, counted = {}, [0]

        def run(pair):
            gen = plan_accept(memo, counted, "split", "", pair)
            try:
                req = next(gen)
            except StopIteration as stop:
                return stop.value, None
            try:
                gen.send([True])
            except StopIteration as stop:
                return stop.value, req
            pytest.fail("plan_accept yields at most once")

        verdict, req = run((6, 4))
        assert verdict is True and req is not None
        assert req.times == ((3, 2),)  # probe emitted in lowest terms
        # unnormalized and negative-denominator aliases are memo hits
        assert run((3, 2)) == (True, None)
        assert run((-6, -4)) == (True, None)
        assert counted[0] == 1
