"""Unit and property tests for Batch Wrapping (Appendix A.1)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algos.api import solve
from repro.algos.pmtn_nice import full_view, partition_view
from repro.core import (
    Batch,
    ConstructionError,
    Instance,
    JobRef,
    Schedule,
    Variant,
    WrapSequence,
    WrapTemplate,
    template_for_machines,
    validate_schedule,
    wrap,
)
from repro.core.fastnum import fast_pmtn_test
from repro.generators import adversarial_suite, medium_suite, small_exact_suite

from .conftest import mk


class TestTemplates:
    def test_capacity(self):
        w = WrapTemplate.of([(0, 0, 10), (1, 2, 10)])
        assert w.capacity == 18
        assert len(w) == 2

    def test_machines_must_increase(self):
        with pytest.raises(ValueError):
            WrapTemplate.of([(1, 0, 10), (0, 0, 10)])
        with pytest.raises(ValueError):
            WrapTemplate.of([(0, 0, 10), (0, 2, 10)])

    def test_bad_gap(self):
        with pytest.raises(ValueError):
            WrapTemplate.of([(0, 5, 5)])
        with pytest.raises(ValueError):
            WrapTemplate.of([(0, -1, 5)])

    def test_template_for_machines(self):
        w = template_for_machines([3, 5, 7], 2, 10, first=(0, 10))
        assert [g.machine for g in w.gaps] == [3, 5, 7]
        assert (w.gaps[0].a, w.gaps[0].b) == (0, 10)
        assert (w.gaps[1].a, w.gaps[1].b) == (2, 10)


class TestSequences:
    def test_load_and_length(self):
        inst = mk(1, (3, [2, 4]), (1, [5]))
        q = WrapSequence.of(
            [
                Batch.of(0, inst.class_jobs(0)),
                Batch.of(1, inst.class_jobs(1)),
            ]
        )
        assert q.load(inst.setups) == (3 + 6) + (1 + 5)
        assert q.length == 3 + 2
        assert q.max_setup(inst.setups) == 3

    def test_batch_rejects_wrong_class(self):
        with pytest.raises(ValueError):
            Batch.of(0, [(JobRef(1, 0), 5)])

    def test_batch_rejects_negative_job_index(self):
        # job_idx = -1 marks a setup row in the schedule's columns.
        with pytest.raises(ValueError):
            Batch.of(0, [(JobRef(0, -1), 5)])

    def test_batch_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Batch.of(0, [(JobRef(0, 0), 0)])

    def test_empty_batches_dropped(self):
        q = WrapSequence.of([Batch(cls=0, items=())])
        assert q.batches == ()


def _suite_instances() -> list[Instance]:
    return [
        inst
        for suite in (small_exact_suite, medium_suite, adversarial_suite)
        for _, inst in suite()
    ]


def _cold(inst: Instance) -> Instance:
    """An equal instance with empty caches."""
    return Instance(m=inst.m, setups=inst.setups, jobs=inst.jobs)


def _pair_classes(inst: Instance) -> set[int]:
    """The classes whose ``class_jobs`` pairs sit in the misc cache."""
    return {
        key[1] for key in inst._misc_cache
        if isinstance(key, tuple) and key[0] == "jobs"
    }


def _placed(schedule: Schedule) -> list[tuple]:
    """Every placement in storage order (the kernels' bit-identity)."""
    return [(p.machine, p.start, p.length, p.cls, p.job) for p in schedule.iter_all()]


#: Nice for the preemptive 3/2 witness ``T = 173/2``, with one ``I⁺exp``
#: class (1), two ``I⁻exp`` classes (2, 3) and three cheap ones.
NICE_PMTN = Instance.build(4, [
    (20, [18, 6, 15, 22]), (50, [1, 19, 22]), (50, [1, 5]), (50, [4]),
    (3, [17]), (1, [18, 24]),
])


class TestWholeBatch:
    """``Batch.whole`` is the one whole-class view both kernels wrap."""

    @pytest.mark.parametrize("exact_ints", [True, False], ids=["ints", "fractions"])
    def test_wraps_like_checked_batch(self, exact_ints):
        """Lemma 8's template (fractional borders ``s_max + N/m``): the
        whole-class batches place exactly the rows of ``Batch.of`` over
        the same job view, on the scaled-int and the Fraction engine."""
        for inst in _suite_instances():
            template = template_for_machines(
                list(range(inst.m)), inst.smax,
                inst.smax + Fraction(inst.total_load, inst.m),
            )
            rows = []
            for batches in (
                [Batch.whole(inst, i) for i in range(inst.c)],
                [Batch.of(i, inst.class_jobs(i)) for i in range(inst.c)],
            ):
                sched = Schedule(inst)
                wrap(sched, WrapSequence.of(batches), template, exact_ints=exact_ints)
                rows.append(sched.rows())
            assert rows[0] == rows[1]

    def test_processing_is_the_class_total(self):
        for inst in _suite_instances():
            for i in range(inst.c):
                whole = Batch.whole(inst, i)
                assert whole.processing == inst.processing(i)
                assert type(whole.processing) is int
                assert whole.int_lengths == inst.jobs[i]
                assert Batch.of(i, whole.items).processing == inst.processing(i)

    def test_full_view_holds_whole_batches(self):
        for inst in map(_cold, _suite_instances()):
            view = full_view(inst)
            assert sorted(view) == list(range(inst.c))
            for i, batch in view.items():
                assert batch.cls == i
                assert batch.int_lengths == inst.jobs[i]
                assert len(batch) == len(inst.jobs[i])
            assert _pair_classes(inst) == set()  # building it made no pairs
            for i, batch in view.items():
                assert batch.items == inst.class_jobs(i)

    def test_full_splittable_solve_builds_no_job_pairs(self):
        """Both wraps of Theorem 7's construction read whole classes as
        lengths alone, and place what the Fraction reference places."""
        for _, inst in medium_suite():
            inst = _cold(inst)
            got = solve(inst, Variant.SPLITTABLE)
            assert got.algorithm == "three_halves"  # a construction ran
            assert _pair_classes(inst) == set()
            ref = solve(_cold(inst), Variant.SPLITTABLE, kernel="fraction")
            assert _placed(got.schedule) == _placed(ref.schedule)

    def test_nice_preemptive_solve_builds_pairs_for_exp_minus_only(self):
        """On a nice ``T`` only Algorithm 2's step 2 reads job pairs;
        step 1 and the cheap wrap emit whole classes by job index."""
        nice = []
        for inst in [NICE_PMTN] + [inst for _, inst in medium_suite()]:
            inst = _cold(inst)
            got = solve(inst, Variant.PREEMPTIVE)
            T = got.T
            if fast_pmtn_test(inst, T.numerator, T.denominator, "gamma").case != "nice":
                continue
            built = _pair_classes(inst)
            part = partition_view(inst, T, full_view(inst))
            assert built == set(part.exp_minus)
            ref = solve(_cold(inst), Variant.PREEMPTIVE, kernel="fraction")
            assert _placed(got.schedule) == _placed(ref.schedule)
            nice.append((T, part))
        T, part = nice[0]
        assert T == Fraction(173, 2)
        assert (part.exp_plus, part.exp_minus, part.cheap) == ((1,), (2, 3), (0, 4, 5))
        assert len(nice) > 10


class TestWrapBasics:
    def test_single_gap_single_class(self):
        inst = mk(1, (2, [3, 4]))
        sched = Schedule(inst)
        res = wrap(
            sched,
            WrapSequence.single_class(0, inst.class_jobs(0)),
            WrapTemplate.of([(0, 0, 20)]),
        )
        validate_schedule(sched, Variant.NONPREEMPTIVE)
        assert sched.makespan() == 9
        assert res.splits == 0
        assert res.last_gap == 0

    def test_job_split_at_border_adds_setup_below(self):
        inst = mk(2, (2, [6, 6]))
        sched = Schedule(inst)
        # gaps [0,10) and [4,14): job 2 splits at 10, setup placed at [2,4)
        res = wrap(
            sched,
            WrapSequence.single_class(0, inst.class_jobs(0)),
            WrapTemplate.of([(0, 0, 10), (1, 4, 14)]),
        )
        validate_schedule(sched, Variant.SPLITTABLE)
        assert res.splits == 1
        pieces = sched.job_pieces(JobRef(0, 1))
        assert len(pieces) == 2
        assert {p.machine for p in pieces} == {0, 1}
        # the second machine has a setup ending exactly at its gap start
        setups1 = [p for p in sched.items_on(1) if p.is_setup]
        assert setups1[0].start == 2 and setups1[0].end == 4

    def test_preemptive_safety_when_condition_holds(self):
        # Wrap with gaps [s, T): split pieces must not self-overlap because
        # s + t_j <= T (the paper's Note-1 regime).
        T = 10
        inst = mk(3, (6, [4, 4, 4]))
        sched = Schedule(inst)
        wrap(
            sched,
            WrapSequence.single_class(0, inst.class_jobs(0)),
            WrapTemplate.of([(0, 0, T), (1, 6, T), (2, 6, T)]),
        )
        validate_schedule(sched, Variant.PREEMPTIVE)

    def test_setup_moved_below_next_gap_when_crossing(self):
        inst = mk(2, (4, [2]), (4, [5]))
        sched = Schedule(inst)
        # gap 1 [0,7): setup0 (4) + job 2 = 6; setup1 would end at 10 > 7 →
        # moved below gap 2 [4, 12) at [0,4).
        wrap(
            sched,
            WrapSequence.of([Batch.of(0, inst.class_jobs(0)), Batch.of(1, inst.class_jobs(1))]),
            WrapTemplate.of([(0, 0, 7), (1, 4, 12)]),
        )
        validate_schedule(sched, Variant.NONPREEMPTIVE)
        m1 = sched.items_on(1)
        assert m1[0].is_setup and m1[0].cls == 1 and (m1[0].start, m1[0].end) == (0, 4)
        assert m1[1].job == JobRef(1, 0) and m1[1].start == 4

    def test_long_job_spans_multiple_gaps(self):
        inst = mk(3, (1, [25]))
        sched = Schedule(inst)
        res = wrap(
            sched,
            WrapSequence.single_class(0, inst.class_jobs(0)),
            WrapTemplate.of([(0, 0, 10), (1, 1, 10), (2, 1, 10)]),
        )
        # splittable: parallel self-execution is fine
        validate_schedule(sched, Variant.SPLITTABLE)
        assert res.splits == 2
        assert len(sched.job_pieces(JobRef(0, 0))) == 3

    def test_exact_fit_no_zero_pieces(self):
        inst = mk(2, (2, [8, 10]))
        sched = Schedule(inst)
        # gap 1 exactly holds setup + job 1: [0,10); job 2 must start in gap 2
        wrap(
            sched,
            WrapSequence.single_class(0, inst.class_jobs(0)),
            WrapTemplate.of([(0, 0, 10), (1, 2, 12)]),
        )
        validate_schedule(sched, Variant.PREEMPTIVE)
        for p in sched.iter_all():
            assert p.is_setup or p.length > 0
        assert len(sched.job_pieces(JobRef(0, 1))) == 1

    def test_overflow_raises(self):
        inst = mk(1, (2, [20]))
        sched = Schedule(inst)
        with pytest.raises(ConstructionError):
            wrap(
                sched,
                WrapSequence.single_class(0, inst.class_jobs(0)),
                WrapTemplate.of([(0, 0, 10)]),
            )

    def test_empty_sequence(self):
        inst = mk(1, (2, [1]))
        sched = Schedule(inst)
        res = wrap(sched, WrapSequence.of([]), WrapTemplate.of([(0, 0, 5)]))
        assert res.placements == [] and res.last_gap == -1


class TestWrapProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 6),
        classes=st.lists(
            st.tuples(st.integers(1, 9), st.lists(st.integers(1, 30), min_size=1, max_size=6)),
            min_size=1,
            max_size=6,
        ),
    )
    def test_lemma8_style_wrap_always_feasible(self, m, classes):
        """Lemma 6 instantiated: gaps [smax, smax + ceil(N/m)] on every machine."""
        inst = Instance.build(m, classes)
        height = -(-inst.total_load // m)  # ceil(N/m)
        template = template_for_machines(
            list(range(m)), inst.smax, inst.smax + height
        )
        sched = Schedule(inst)
        seq = WrapSequence.of([Batch.of(i, inst.class_jobs(i)) for i in range(inst.c)])
        res = wrap(sched, seq, template)
        cmax = validate_schedule(sched, Variant.SPLITTABLE)
        assert cmax <= inst.smax + height
        # load conservation: everything placed is setups + all processing
        placed = sum((p.length for p in sched.iter_all()), Fraction(0))
        n_setups = sum(1 for p in sched.iter_all() if p.is_setup)
        assert placed == inst.total_processing + sum(
            Fraction(inst.setups[p.cls]) for p in sched.iter_all() if p.is_setup
        )
        # work bound from Lemma 7: O(|Q| + |ω|) items placed
        assert len(res.placements) <= seq.length + 2 * m + inst.c

    @settings(max_examples=40, deadline=None)
    @given(
        jobs=st.lists(st.integers(1, 12), min_size=1, max_size=8),
        setup=st.integers(1, 5),
        gap_height=st.integers(6, 20),
    )
    def test_single_class_split_chain_consistency(self, jobs, setup, gap_height):
        """All pieces of a job carry the JobRef; totals are conserved."""
        inst = Instance.build(8, [(setup, jobs)])
        need = setup + sum(jobs)
        k = -(-need // (gap_height - setup)) + 1
        if k > 8:
            return
        template = template_for_machines(
            list(range(k)), setup, gap_height, first=(0, gap_height)
        )
        if template.capacity < need:
            return
        sched = Schedule(inst)
        wrap(sched, WrapSequence.single_class(0, inst.class_jobs(0)), template)
        validate_schedule(sched, Variant.SPLITTABLE)


class TestFastPlacementAllocator:
    def test_new_placement_matches_dataclass_constructor(self):
        """Pin the __dict__-bypass allocator to the Placement dataclass.

        _new_placement writes instance __dict__ directly; that is only
        equivalent to Placement(...) while Placement stays a slot-less
        frozen dataclass without __post_init__.  If this test fails after
        changing Placement, update _new_placement to match.
        """
        from repro.core.schedule import Placement, _new_placement
        from repro.core.instance import JobRef

        job = JobRef(2, 1)
        fast = _new_placement(3, Fraction(5, 2), Fraction(7, 4), 2, job)
        slow = Placement(machine=3, start=Fraction(5, 2), length=Fraction(7, 4), cls=2, job=job)
        assert fast == slow
        assert hash(fast) == hash(slow) if slow.__hash__ else True
        assert fast.__dict__ == slow.__dict__
        assert not hasattr(Placement, "__slots__")
        assert not hasattr(Placement, "__post_init__")
        setup_fast = _new_placement(0, Fraction(0), Fraction(3), 1)
        setup_slow = Placement(machine=0, start=Fraction(0), length=Fraction(3), cls=1)
        assert setup_fast == setup_slow and setup_fast.job is None
