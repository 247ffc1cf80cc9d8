import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import additive_instance, matroid_instance, rand_explicit_matroid
from egalloc.errors import ValidationError
from egalloc.harness import (
    AllDemandSubsets,
    ExplicitDeviations,
    FIXTURES,
    RestrictedMrfLibrary,
    fuzz_truthfulness,
    run_fixture,
)
from egalloc.matroid import Uniform
from egalloc.model import Instance
from egalloc.valuation import AdditiveDichotomous, EpsLeveled, MatroidValuation

F = frozenset


def two_item_leveled_instance(eps=Fraction(1, 20)) -> Instance:
    # items L, H; the lower-priority agent strictly prefers H
    return Instance(
        item_names=("L", "H"),
        agent_names=("p1", "p2"),
        valuations=(
            EpsLeveled({0: 1, 1: 1}),
            EpsLeveled({0: 1, 1: 1 + eps}),
        ),
        epsilon=eps,
    )


def test_pe_truthful_on_contested_pair_instance():
    inst = additive_instance([F({0, 1})] * 3)
    res = fuzz_truthfulness("pe", inst, 2, AllDemandSubsets())
    assert res.truthful
    assert res.truthful_utility == 0  # lowest priority loses either way


def test_floor_pe_manipulable_on_leveled_instance():
    inst = two_item_leveled_instance()
    res = fuzz_truthfulness("pe", inst, 1, AllDemandSubsets())
    assert not res.truthful
    assert res.best_report == AdditiveDichotomous(F({1}))  # report H only
    assert res.gain == Fraction(1, 20)


def test_meps_truthful_in_expectation_on_leveled_instance():
    inst = two_item_leveled_instance()  # eps = 1/20 < 1/(2*8)
    for deviator in range(2):
        res = fuzz_truthfulness("meps", inst, deviator, AllDemandSubsets())
        assert res.truthful


def test_rpe_expectation_truthful_smoke():
    inst = additive_instance([F({0, 1}), F({0})])
    res = fuzz_truthfulness("rpe", inst, 0, AllDemandSubsets())
    assert res.truthful


def test_mrf_library_deviations_unprofitable():
    rng = random.Random(2718)
    for _ in range(6):
        m = rng.randint(2, 4)
        n = rng.randint(2, 3)
        mats = [rand_explicit_matroid(rng, m) for _ in range(n)]
        inst = matroid_instance(mats, m)
        for deviator in range(n):
            res = fuzz_truthfulness("pe", inst, deviator, RestrictedMrfLibrary())
            assert res.truthful, (mats, deviator, res)


def test_explicit_deviation_space():
    inst = additive_instance([F({0, 1})] * 2)
    space = ExplicitDeviations(
        (AdditiveDichotomous(F({0, 1})), AdditiveDichotomous(F({0})))
    )
    res = fuzz_truthfulness("pe", inst, 1, space)
    assert res.truthful


@pytest.mark.parametrize("mechanism, mode", [("pe", "expost"), ("rpe", "expectation")])
def test_fuzz_validates_each_report_once(mechanism, mode, monkeypatch):
    import egalloc.mechanisms as mechanisms
    from egalloc.harness import _deviation_reports
    from egalloc.matroid import Partition, Uniform
    from egalloc.mechanisms import expected_utilities, run_pe, run_rpe
    from egalloc.valuation import evaluate

    inst = matroid_instance(
        [
            Uniform(F({0, 1, 2}), 1),
            Partition(((F({0, 1}), 1), (F({2, 3}), 1))),
            Uniform(F({1, 2, 3}), 2),
        ],
        4,
    )
    space = RestrictedMrfLibrary()
    assert len(_deviation_reports(space, inst, 0)) == 11
    calls = []
    original = mechanisms.validate_matroid

    def counting(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(mechanisms, "validate_matroid", counting)
    res = fuzz_truthfulness(mechanism, inst, 0, space)
    assert res.mode == mode
    # the two other agents once, the truthful report and 11 deviations once each
    assert len(calls) == 2 + 1 + 11
    assert res.truthful
    if mechanism == "pe":
        want = evaluate(inst.valuations[0], run_pe(inst.valuations, 4).bundles[0], 4)
    else:
        want = expected_utilities(run_rpe(inst.valuations, 4), inst.valuations)[0]
    assert res.truthful_utility == want


def test_library_fuzz_scans_an_explicit_truth_once(monkeypatch):
    import egalloc.matroid as matroid
    from egalloc.harness import _deviation_reports
    from egalloc.matroid import Explicit

    # U(2,6) listed explicitly; every library candidate wraps this one object
    truth = Explicit(F(F(t) for t in combinations(range(6), 2)))
    inst = matroid_instance([truth, Uniform(F({0, 1, 2}), 2)], 6)
    assert len(_deviation_reports(RestrictedMrfLibrary(), inst, 0)) == 68
    scanned = []
    original = matroid._validate_explicit

    def counting(spec):
        scanned.append(spec)
        return original(spec)

    monkeypatch.setattr(matroid, "_validate_explicit", counting)
    res = fuzz_truthfulness("pe", inst, 0, RestrictedMrfLibrary())
    assert res.truthful
    assert scanned == [truth]


def test_fuzz_mode_validation():
    inst = additive_instance([F({0})])
    with pytest.raises(ValidationError):
        fuzz_truthfulness("nope", inst, 0, AllDemandSubsets())
    with pytest.raises(ValidationError):
        fuzz_truthfulness("pe", inst, 5, AllDemandSubsets())


def test_library_requires_matroid_truth():
    inst = additive_instance([F({0})])
    with pytest.raises(ValidationError):
        fuzz_truthfulness("pe", inst, 0, RestrictedMrfLibrary())


def test_library_contains_truth():
    from egalloc.harness import _deviation_reports
    from egalloc.matroid import FreeOver
    from egalloc.valuation import evaluate

    inst = matroid_instance([FreeOver(F({0, 1}))], 2)
    reports = _deviation_reports(RestrictedMrfLibrary(), inst, 0)
    truth = inst.valuations[0]
    masks = [F(), F({0}), F({1}), F({0, 1})]
    assert any(
        all(evaluate(r, s, 2) == evaluate(truth, s, 2) for s in masks) for r in reports
    )


@pytest.mark.parametrize("fid", sorted(FIXTURES))
def test_fixture_gallery(fid):
    result = run_fixture(fid)
    mismatches = {
        k: (v, result.computed.get(k))
        for k, v in result.claimed.items()
        if result.computed.get(k) != v
    }
    assert result.passed, mismatches


def test_unknown_fixture():
    with pytest.raises(ValidationError):
        run_fixture("F99")


def test_meps_fuzzing_rejects_an_agent_without_a_demand_set():
    # the deviator has a demand set; the other agent's uniform matroid has none
    inst = Instance(
        item_names=("a", "b", "c"),
        agent_names=("x", "y"),
        valuations=(AdditiveDichotomous(F({0, 1})), MatroidValuation(Uniform(F({1, 2}), 1))),
    )
    with pytest.raises(ValidationError, match="demand-set"):
        fuzz_truthfulness("meps", inst, 0, AllDemandSubsets())


def test_meps_fuzzing_checks_epsilon_before_the_size_cap():
    # 4 agents over 12 items is past the fuzz cap, but a bad ε is a usage
    # error (ValidationError), as it is for run_meps
    inst = additive_instance([F(range(12))] * 4, epsilon=Fraction(1, 10))
    with pytest.raises(ValidationError, match="eps must be below"):
        fuzz_truthfulness("meps", inst, 0, AllDemandSubsets())
