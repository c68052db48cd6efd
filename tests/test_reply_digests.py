"""Golden SHA-256 digests of fast-kernel reply bytes.

Both kernels read one job view per class (``Instance.class_jobs``,
carried to the engines as ``Batch.whole``), so the kernel-vs-kernel
equivalence suites cannot see a defect in that shared view.  These
digests pin the bytes themselves, for fixed requests:

* ``response_line`` of ``three_halves`` and ``two`` for every variant on
  one warm-schedules-shaped instance (c = 40, 20 jobs per class) at
  m ∈ {8, 16, 20};
* ``response_line`` of the trivial closed forms on that instance: the
  serial optimum at m = 1 on every variant, and the one-job-per-machine
  optimum at m = n = 800 on the two job-constrained variants;
* the wire encoding of the rows ``pmtn_dual_schedule`` builds for the
  case-3a and case-3b fixtures of ``conftest`` at ``T = 20``, in both
  count modes (Algorithm 3's piece views);
* ``response_line`` of ``three_halves`` and ``two`` for every variant on
  one instance whose numbers exceed 62 bits;
* ``response_line`` of three ``eps`` solves of the generator suites
  whose rows are appended at several denominators (the fast kernel's
  preemptive construction at 1, 2560 and 5120; the Fraction reference
  tier at five and seven), and the wire encoding of a hand-built
  schedule with rows at denominators 1, 2 and 3.

A digest may change only with a deliberate change of the reply bytes.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from repro import Instance, Variant, solve
from repro.algos.pmtn_general import pmtn_dual_schedule
from repro.generators import SUITES, uniform_instance
from repro.service.protocol import _schedule_obj, response_line

from .conftest import (
    accepted_3a_instance,
    general_case_instance,
    mixed_denominator_schedule,
    mk,
)

WARM_MS = (8, 16, 20)
#: ``(m, variants)`` of the warm instance's trivial closed forms.
TRIVIAL = (
    (1, tuple(Variant)),
    (800, (Variant.NONPREEMPTIVE, Variant.PREEMPTIVE)),
)
HUGE = 1 << 63
#: ``suite/<suite>/<label>/<variant>/<algorithm>/<kernel>`` solves whose
#: rows are appended at several denominators.
MULTI_DEN = (
    "suite/adversarial/knapsack-critical/preemptive/eps/fast",
    "suite/medium/bimodal-4/preemptive/eps/fraction",
    "suite/medium/bimodal-0/splittable/eps/fraction",
)


def _warm(m: int) -> Instance:
    return uniform_instance(m, 40, 20, seed=7101, tmax=50)


def _huge() -> Instance:
    return mk(
        3,
        (HUGE // 3, [HUGE + 5, HUGE // 7 + 1]),
        (HUGE // 5, [HUGE // 2 + 3, 11]),
        (7, [HUGE // 11 + 13]),
    )


def _reply(key: str) -> str:
    """The reply bytes a digest key names."""
    kind, *rest = key.split("/")
    if kind == "warm":
        m, variant, algorithm = rest
        result = solve(_warm(int(m)), Variant(variant), algorithm, kernel="fast")
        return response_line(1, [result])
    if kind == "huge":
        variant, *algorithm = rest
        result = solve(_huge(), Variant(variant), *algorithm, kernel="fast")
        return response_line(1, [result])
    if kind == "suite":
        suite, label, variant, algorithm, kernel = rest
        inst = dict(SUITES[suite]())[label]
        result = solve(inst, Variant(variant), algorithm, kernel=kernel)
        return response_line(1, [result])
    if kind == "mixed":
        schedule = mixed_denominator_schedule()
    else:
        fixture, mode = rest
        inst = {"3a": accepted_3a_instance, "3b": general_case_instance}[fixture]()
        schedule = pmtn_dual_schedule(inst, Fraction(20), mode, kernel="fast")
    return json.dumps(_schedule_obj(schedule), separators=(",", ":"))


DIGESTS = {
    "warm/8/nonpreemptive/three_halves":
        "a30eec7d4f6782ddebedb0eb917ce52b9a6464db6c7032b8adb60087f74b6b7e",
    "warm/8/nonpreemptive/two":
        "da6f3f5e0c2424d5bcb3fac6736b315ec13b1c8c27accc8a87878a3e776d79ad",
    "warm/8/preemptive/three_halves":
        "1e0a01f412e00ed37d6ac57f7d25539bc03aec46b5acf02a62482ad9fcb54843",
    "warm/8/preemptive/two":
        "bf98ce7f7156bcfe4e337e30d547d644bc374235247f47dab35657751d82e209",
    "warm/8/splittable/three_halves":
        "8ed7a6eeddfccf03d95601344f509d27922054da81ec05928e9a15b0233eeb3c",
    "warm/8/splittable/two":
        "8e52990153bfeab0b3a41a1a11090a0605a9e37982218de02514f8c24893ea06",
    "warm/16/nonpreemptive/three_halves":
        "8633d87ae23b250ee5afbed701d686bf82a1751be7d6f0b48ca8944e87aa1461",
    "warm/16/nonpreemptive/two":
        "ca33678881638afb7e6a2f17ae4d1bf14943d985a9caf89fbe7f4ff63944c546",
    "warm/16/preemptive/three_halves":
        "23d4d2b1d93544f92e92cf5e90e9f536e5f4ba026cd9927cc69d5b6a77c7d79a",
    "warm/16/preemptive/two":
        "07585ca5d9687ec8f0fb4e62a135dc7dbd567dbdba30d9148e259300225506fd",
    "warm/16/splittable/three_halves":
        "370e9bd98cb538f76cbbe0f7011f94a04d3f7e9175fd6a689188dc3f91fd7aa3",
    "warm/16/splittable/two":
        "15a5ae2147b51639250d046767846301cd7320602dbbaae504ac81dd1c4a8284",
    "warm/20/nonpreemptive/three_halves":
        "3e7fa7fb46e9582746b471c24ba13170ff8b90980c464f46f85b1f616dafe138",
    "warm/20/nonpreemptive/two":
        "159daa3af6c31a6970811ac4ba73faf32784cb7db50cc998eea5ec6090571208",
    "warm/20/preemptive/three_halves":
        "fed76b7027e87f1258f2162dadb460053dc6d15ebef31f0dc91d017624402dfd",
    "warm/20/preemptive/two":
        "0b46c21280ae995340776b0a7c4370887609129e4e642ff916611f4e0aec6465",
    "warm/20/splittable/three_halves":
        "a4ab8418c926b952e76ddd7dbebe9f2e60a36257d9ebc1c626bfdd5b72f35a13",
    "warm/20/splittable/two":
        "506c1fdf461e333771f07bd1f4990d743a9223b95524310389331cdedb30ac66",
    "warm/1/nonpreemptive/three_halves":
        "98912dd01504a41fecfb7ad766f810db583d927a549ae5f0c1df2f03aa57589c",
    "warm/1/preemptive/three_halves":
        "a5201eff71b12bf03a4a713d75d8c0c4553ff794fa809ea1393a365deb3591be",
    "warm/1/splittable/three_halves":
        "3d57835d3743a0dbe0998695ba202ce8a3e2bd21fa05f6101bdf46b1ab742518",
    "warm/800/nonpreemptive/three_halves":
        "023086b1b4cd877ba79cff24895409079d8817993607f99fddafd23608291c41",
    "warm/800/preemptive/three_halves":
        "87d1e3023bacf67a73836c412ef64ef8099dd117cff2f4418167b3bc7a604346",
    "pmtn/3a/alpha":
        "7d3e42d791ddf0e2fe0a847e5ceb9e84e1be60143879a786a583d71c9795baec",
    "pmtn/3a/gamma":
        "7d3e42d791ddf0e2fe0a847e5ceb9e84e1be60143879a786a583d71c9795baec",
    "pmtn/3b/alpha":
        "f0d84b460b1eba1f3206cff449dd8ec250281a98b3477b54d7c886907998b950",
    "pmtn/3b/gamma":
        "4e30b0dc8123e0497ea45fe4d3dd444664caa4a0baa0f64e35cdd7dd7432468f",
    "huge/nonpreemptive":
        "a4361ab31626748a281dfa7b7a44a83bb155c284804123c557e211dd1155dab8",
    "huge/preemptive":
        "373c53f208d56b7f1bd47376a134996ee8287dda6b6ff55406e8141ef209ce3e",
    "huge/splittable":
        "ae4312b90e71bc764253b179072f9d1c0183881e02d02e5a930810974e1456da",
    "huge/nonpreemptive/two":
        "7befd250ae9fe03e953bf88469d5f24a1f58789ca69b9f6a9dede8fc2b6ace43",
    "huge/preemptive/two":
        "9f5bd12e5e3e27f5ab8a556003ec7ad8ad1abaffe607a52899fe7ce79b48d1ff",
    "huge/splittable/two":
        "861e95b4d4eabd65f66c092c07e7d5e750d4234e1da1ccd85f9093585da8f45e",
    "suite/adversarial/knapsack-critical/preemptive/eps/fast":
        "6d56c9e34a2b4eb2633da97da37217d873a3ade06ecaf27e6f3d87df6feb23c2",
    "suite/medium/bimodal-4/preemptive/eps/fraction":
        "85d10b48aec5309232f4d29c34c2f7828d9e475f1c171a524fa20e79a9e31f75",
    "suite/medium/bimodal-0/splittable/eps/fraction":
        "2c615701330c58c833a468e69b2ae22bac5c366681701a11a4ab30cfd8bb1bc7",
    "mixed/1-2-3":
        "be73695247190a77d266defd2fd7ab42a8f7c4504b2069dd66298137817f87dc",
}


def test_digest_table_covers_every_request():
    keys = [
        f"warm/{m}/{v.value}/{a}"
        for m in WARM_MS for v in Variant for a in ("three_halves", "two")
    ]
    keys += [f"pmtn/{f}/{mode}" for f in ("3a", "3b") for mode in ("alpha", "gamma")]
    keys += [f"huge/{v.value}" for v in Variant]
    keys += [f"huge/{v.value}/two" for v in Variant]
    keys += [f"warm/{m}/{v.value}/three_halves" for m, vs in TRIVIAL for v in vs]
    keys += [*MULTI_DEN, "mixed/1-2-3"]
    assert sorted(DIGESTS) == sorted(keys)


def test_huge_instance_exceeds_62_bits():
    assert _huge().delta.bit_length() > 62


def test_mixed_denominator_aggregates():
    sched = mixed_denominator_schedule()
    assert sched.machine_load(0) == Fraction(29, 6)
    assert sched.machine_load(1) == Fraction(3, 2)
    assert sched.machine_end(0) == Fraction(19, 3)
    assert sched.machine_end(1) == Fraction(5)
    assert sched.total_load() == Fraction(19, 3)
    assert sched.makespan() == Fraction(19, 3)


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_reply_digest(key):
    assert hashlib.sha256(_reply(key).encode()).hexdigest() == DIGESTS[key]
