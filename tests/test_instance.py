"""Unit tests for repro.core.instance."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Instance, InvalidInstanceError, JobRef, concat_instances

from .conftest import AGGREGATES
from .test_schedule_columns import SUITE_INSTANCES


def eager_aggregates(inst: Instance) -> dict:
    """Each aggregate by its defining formula over ``setups`` and ``jobs``."""
    return {
        "class_processing": tuple(sum(ts) for ts in inst.jobs),
        "class_tmax": tuple(max(ts) for ts in inst.jobs),
        "class_sizes": tuple(len(ts) for ts in inst.jobs),
        "n": sum(len(ts) for ts in inst.jobs),
        "total_processing": sum(t for ts in inst.jobs for t in ts),
        "total_load": sum(inst.setups) + sum(t for ts in inst.jobs for t in ts),
        "smax": max(inst.setups),
        "tmax": max(t for ts in inst.jobs for t in ts),
    }


def read_aggregates(inst: Instance) -> dict:
    return {name: getattr(inst, name) for name in AGGREGATES}


def computed_aggregates(inst: Instance) -> set:
    """The aggregates this instance has already computed."""
    return set(AGGREGATES) & set(vars(inst))


class TestConstruction:
    def test_build(self):
        inst = Instance.build(2, [(2, [3, 4]), (1, [2, 2, 2])])
        assert inst.m == 2
        assert inst.c == 2
        assert inst.n == 5
        assert inst.setups == (2, 1)
        assert inst.jobs == ((3, 4), (2, 2, 2))

    def test_from_flat(self):
        inst = Instance.from_flat(3, [5, 7], job_classes=[0, 1, 0, 1], job_times=[1, 2, 3, 4])
        assert inst.jobs == ((1, 3), (2, 4))

    def test_from_flat_bad_class(self):
        with pytest.raises(InvalidInstanceError):
            Instance.from_flat(1, [5], job_classes=[1], job_times=[1])

    def test_from_flat_length_mismatch(self):
        with pytest.raises(InvalidInstanceError):
            Instance.from_flat(1, [5], job_classes=[0, 0], job_times=[1])

    def test_zero_machines_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance.build(0, [(1, [1])])

    def test_no_classes_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance(m=1, setups=(), jobs=())

    def test_empty_class_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance(m=1, setups=(1,), jobs=((),))

    def test_zero_processing_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance.build(1, [(1, [0])])

    def test_negative_setup_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance.build(1, [(-1, [1])])

    def test_zero_setup_allowed(self):
        inst = Instance.build(1, [(0, [1])])
        assert inst.smax == 0

    def test_setup_job_count_mismatch(self):
        with pytest.raises(InvalidInstanceError):
            Instance(m=1, setups=(1, 2), jobs=((1,),))

    @pytest.mark.parametrize(
        "m, setups, jobs, field",
        [
            (2, (-(10**5000),), ((1,),), "setup s_0"),
            (-(10**5000), (1,), ((1,),), "m must"),
            (2, (1,), ((-(10**5000),),), "processing times"),
        ],
        ids=["setup", "m", "job"],
    )
    def test_ints_past_the_digit_limit_are_refused_by_field(self, m, setups, jobs, field):
        """An int longer than Python's int-to-text limit (4300 digits) is
        an :class:`InvalidInstanceError` naming its field, quoted by size."""
        with pytest.raises(InvalidInstanceError, match=f"^{field}.* bits>$"):
            Instance(m=m, setups=setups, jobs=jobs)

    def test_non_int_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance.build(1, [(1, [1.5])])


class TestAggregates:
    def test_totals(self, tiny):
        # tiny: m=2, classes (2,[3,4]) and (1,[2,2,2])
        assert tiny.total_processing == 13
        assert tiny.total_load == 13 + 3  # N = P(J) + sum setups
        assert tiny.class_processing == (7, 6)
        assert tiny.class_tmax == (4, 2)
        assert tiny.class_sizes == (2, 3)
        assert tiny.smax == 2
        assert tiny.tmax == 4
        assert tiny.delta == 4

    def test_processing(self, tiny):
        assert tiny.processing(0) == 7
        assert tiny.processing(1) == 6

    def test_job_time(self, tiny):
        assert tiny.job_time(JobRef(0, 1)) == 4
        assert tiny.job_time(JobRef(1, 0)) == 2

    def test_iter_jobs(self, tiny):
        jobs = list(tiny.iter_jobs())
        assert len(jobs) == 5
        assert jobs[0] == (JobRef(0, 0), 3)
        assert jobs[-1] == (JobRef(1, 2), 2)

    def test_class_jobs(self, tiny):
        assert tiny.class_jobs(1) == (
            (JobRef(1, 0), 2),
            (JobRef(1, 1), 2),
            (JobRef(1, 2), 2),
        )
        assert tiny.class_jobs(1) is tiny.class_jobs(1)  # cached, shared

    def test_describe(self, tiny):
        text = tiny.describe()
        assert "m=2" in text and "n=5" in text and "c=2" in text

    def test_with_machines(self, tiny):
        bigger = tiny.with_machines(7)
        assert bigger.m == 7
        assert bigger.jobs == tiny.jobs
        assert tiny.m == 2  # original untouched

    @pytest.mark.parametrize("inst", SUITE_INSTANCES)
    def test_lazy_aggregates_match_eager_formulas(self, inst):
        want = eager_aggregates(inst)

        def new():
            return Instance(m=inst.m, setups=inst.setups, jobs=inst.jobs)

        read, unread = new(), new()
        assert computed_aggregates(read) == set()  # construction only validates
        assert read_aggregates(read) == want
        assert computed_aggregates(read) == set(AGGREGATES)

        assert read_aggregates(pickle.loads(pickle.dumps(read))) == want
        assert read_aggregates(pickle.loads(pickle.dumps(unread))) == want

        rep = new()
        copy = rep.with_machines(inst.m + 3, share_caches=True)
        assert computed_aggregates(rep) == set(AGGREGATES)  # computed on the rep
        assert computed_aggregates(copy) == set(AGGREGATES)
        assert read_aggregates(copy) == want

    @pytest.mark.parametrize("inst", SUITE_INSTANCES)
    def test_equality_and_hash_ignore_what_was_read(self, inst):
        a = Instance(m=inst.m, setups=inst.setups, jobs=inst.jobs)
        b = Instance(m=inst.m, setups=inst.setups, jobs=inst.jobs)
        assert a == b and hash(a) == hash(b)  # neither read
        read_aggregates(a)
        assert a == b and hash(a) == hash(b)  # one read
        read_aggregates(b)
        assert a == b and hash(a) == hash(b)  # both read
        assert a != a.with_machines(inst.m + 1)


class TestConcat:
    def test_concat(self):
        a = Instance.build(1, [(1, [1])])
        b = Instance.build(1, [(2, [2, 3])])
        merged = concat_instances(4, [a, b])
        assert merged.m == 4
        assert merged.setups == (1, 2)
        assert merged.jobs == ((1,), (2, 3))


@given(
    m=st.integers(1, 8),
    classes=st.lists(
        st.tuples(st.integers(0, 20), st.lists(st.integers(1, 30), min_size=1, max_size=6)),
        min_size=1,
        max_size=5,
    ),
)
def test_aggregate_consistency(m, classes):
    inst = Instance.build(m, classes)
    assert inst.n == sum(len(ts) for _, ts in classes)
    assert inst.total_load == sum(s for s, _ in classes) + sum(sum(ts) for _, ts in classes)
    assert inst.smax == max(s for s, _ in classes)
    assert inst.tmax == max(max(ts) for _, ts in classes)
    # every JobRef resolves and matches the literal
    for (job, t) in inst.iter_jobs():
        assert classes[job.cls][1][job.idx] == t
