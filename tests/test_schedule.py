"""Unit tests for repro.core.schedule."""

from fractions import Fraction

import pytest

from repro.core import Instance, JobRef, Placement, Schedule


@pytest.fixture
def inst():
    return Instance.build(2, [(2, [3, 4]), (1, [2, 2, 2])])


class TestPlacement:
    def test_end(self):
        p = Placement(machine=0, start=Fraction(1), length=Fraction(3), cls=0)
        assert p.end == 4
        assert p.is_setup

    def test_job_piece(self):
        p = Placement(0, Fraction(0), Fraction(2), cls=1, job=JobRef(1, 0))
        assert not p.is_setup

    def test_shifted(self):
        p = Placement(0, Fraction(1), Fraction(3), cls=0)
        q = p.shifted(Fraction(1, 2))
        assert q.start == Fraction(3, 2) and q.length == 3 and q.machine == 0

    def test_on_machine(self):
        p = Placement(0, Fraction(1), Fraction(3), cls=0)
        assert p.on_machine(1).machine == 1


class TestScheduleBasics:
    def test_add_setup_uses_instance_length(self, inst):
        sched = Schedule(inst)
        p = sched.add_setup(0, 0, cls=0)
        assert p.length == 2
        p = sched.add_setup(1, 5, cls=1)
        assert p.length == 1

    def test_add_job(self, inst):
        sched = Schedule(inst)
        p = sched.add_job(0, 3, JobRef(0, 1))
        assert p.length == 4 and p.cls == 0

    def test_add_piece(self, inst):
        sched = Schedule(inst)
        p = sched.add_piece(0, 0, JobRef(0, 1), Fraction(3, 2))
        assert p.length == Fraction(3, 2)

    def test_machine_out_of_range(self, inst):
        sched = Schedule(inst)
        with pytest.raises(ValueError):
            sched.add_setup(2, 0, cls=0)

    def test_negative_start_rejected(self, inst):
        sched = Schedule(inst)
        with pytest.raises(ValueError):
            sched.add(Placement(0, Fraction(-1), Fraction(1), cls=0))

    def test_negative_length_rejected(self, inst):
        sched = Schedule(inst)
        with pytest.raises(ValueError):
            sched.add(Placement(0, Fraction(0), Fraction(-1), cls=0))

    @pytest.mark.parametrize("method,job", [
        ("add", JobRef(1, 0)),          # piece of class 0, job of class 1
        ("add", JobRef(0, -1)),         # negative job index (-1 marks setups)
        ("add_scaled", JobRef(1, 0)),
        ("add_scaled", JobRef(0, -1)),
        ("add_piece", JobRef(0, -1)),   # add_piece tags the job's own class
    ])
    def test_unencodable_piece_refused(self, inst, method, job):
        """The columns cannot hold a class-mismatched or negative-index
        piece, so every add path refuses it and leaves the schedule as
        it was."""
        sched = Schedule(inst)
        sched.add_setup(0, 0, cls=0)
        sched.add_job(0, 2, JobRef(0, 0))
        before = (sched.rows(), sched.count_placements(), sched.makespan())
        with pytest.raises(ValueError, match="no columnar encoding"):
            if method == "add":
                sched.add(Placement(0, Fraction(5), Fraction(2), cls=0, job=job))
            elif method == "add_scaled":
                sched.add_scaled(0, 10, 4, 2, 0, job)
            else:
                sched.add_piece(0, 5, job, 2)
        assert (sched.rows(), sched.count_placements(), sched.makespan()) == before

    @pytest.mark.parametrize("job", [JobRef(1, 0), JobRef(0, -1)],
                             ids=["class-mismatch", "negative-idx"])
    def test_constructor_refuses_unencodable_piece(self, inst, job):
        """``Schedule(instance, placements)`` appends through ``add``, so
        a bulk-built schedule refuses the same pieces."""
        setup = Placement(0, Fraction(0), Fraction(2), cls=0)
        bad = Placement(0, Fraction(2), Fraction(2), cls=0, job=job)
        assert Schedule(inst, [setup]).count_placements() == 1
        with pytest.raises(ValueError, match="no columnar encoding"):
            Schedule(inst, [setup, bad])


class TestScheduleQueries:
    def _demo(self, inst) -> Schedule:
        sched = Schedule(inst)
        sched.add_setup(0, 0, cls=0)          # [0,2)
        sched.add_job(0, 2, JobRef(0, 0))     # [2,5)
        sched.add_job(0, 5, JobRef(0, 1))     # [5,9)
        sched.add_setup(1, 0, cls=1)          # [0,1)
        sched.add_job(1, 1, JobRef(1, 0))     # [1,3)
        sched.add_job(1, 3, JobRef(1, 1))     # [3,5)
        sched.add_job(1, 5, JobRef(1, 2))     # [5,7)
        return sched

    def test_loads(self, inst):
        sched = self._demo(inst)
        assert sched.machine_load(0) == 9
        assert sched.machine_load(1) == 7
        assert sched.total_load() == 16

    def test_ends_and_makespan(self, inst):
        sched = self._demo(inst)
        assert sched.machine_end(0) == 9
        assert sched.machine_end(1) == 7
        assert sched.makespan() == 9

    def test_items_sorted(self, inst):
        sched = Schedule(inst)
        sched.add_job(0, 5, JobRef(0, 0))
        sched.add_setup(0, 0, cls=0)
        items = sched.items_on(0)
        assert items[0].is_setup and items[1].job == JobRef(0, 0)

    def test_used_machines(self, inst):
        sched = Schedule(inst)
        assert sched.used_machines() == []
        sched.add_setup(1, 0, cls=0)
        assert sched.used_machines() == [1]

    def test_job_pieces_and_total(self, inst):
        sched = Schedule(inst)
        sched.add_piece(0, 0, JobRef(0, 1), Fraction(1))
        sched.add_piece(1, 4, JobRef(0, 1), Fraction(3))
        assert len(sched.job_pieces(JobRef(0, 1))) == 2
        assert sched.job_total(JobRef(0, 1)) == 4
        assert sched.job_total(JobRef(1, 0)) == 0

    def test_setup_count(self, inst):
        sched = self._demo(inst)
        assert sched.setup_count(0) == 1
        assert sched.setup_count(1) == 1
        sched.add_setup(0, 20, cls=1)
        assert sched.setup_count(1) == 2

    def test_copy_independent(self, inst):
        sched = self._demo(inst)
        cop = sched.copy()
        cop.add_setup(0, 50, cls=0)
        assert cop.count_placements() == sched.count_placements() + 1

    def test_empty_makespan_zero(self, inst):
        assert Schedule(inst).makespan() == 0

    def test_describe(self, inst):
        assert "makespan" in self._demo(inst).describe()
