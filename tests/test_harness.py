import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from conftest import (
    MATROID_TAGS,
    VALUATION_KINDS,
    additive_instance,
    count_free_supports,
    matroid_instance,
    rand_explicit_matroid,
    rand_matroid_of_tag,
    rand_valuation,
)
from egalloc.errors import ValidationError
from egalloc.harness import (
    FIXTURES,
    all_demand_subsets,
    fuzz_truthfulness,
    restricted_mrf_library,
    run_fixture,
)
from egalloc.lorenz import prepare_supports, solve_prepared
from egalloc.matroid import FreeOver, Partition, Uniform
from egalloc.mechanisms import (
    _allocation,
    _granted,
    _outcomes,
    expected_utilities,
    floor_reports,
    held_out_lists,
    run_meps,
    run_rpe,
    sample_meps,
    sanitize_reports,
)
from egalloc.model import Allocation, Instance, check_bundles
from egalloc.valuation import AdditiveDichotomous, EpsLeveled, MatroidValuation, value_functions
from fuzz_reference import reference_fuzz_truthfulness

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
    res = fuzz_truthfulness("pe", inst, 2, all_demand_subsets)
    assert res.truthful
    assert res.truthful_utility == 0  # lowest priority loses either way


def test_floor_pe_manipulable_on_leveled_instance():
    inst = two_item_leveled_instance()
    res = fuzz_truthfulness("pe", inst, 1, all_demand_subsets)
    assert not res.truthful
    assert res.best_report == AdditiveDichotomous(F({1}))  # report H only
    assert res.gain == Fraction(1, 20)


def test_meps_truthful_in_expectation_on_leveled_instance():
    inst = two_item_leveled_instance()  # eps = 1/20 < 1/(2*8)
    for deviator in range(2):
        res = fuzz_truthfulness("meps", inst, deviator, all_demand_subsets)
        assert res.truthful


def test_rpe_expectation_truthful_smoke():
    inst = additive_instance([F({0, 1}), F({0})])
    res = fuzz_truthfulness("rpe", inst, 0, all_demand_subsets)
    assert res.truthful


def test_mrf_library_deviations_unprofitable():
    rng = random.Random(2718)
    for _ in range(6):
        m = rng.randint(2, 4)
        n = rng.randint(2, 3)
        mats = [rand_explicit_matroid(rng, m) for _ in range(n)]
        inst = matroid_instance(mats, m)
        for deviator in range(n):
            res = fuzz_truthfulness("pe", inst, deviator, restricted_mrf_library)
            assert res.truthful, (mats, deviator, res)


def test_explicit_deviation_space():
    inst = additive_instance([F({0, 1})] * 2)
    reports = [AdditiveDichotomous(F({0, 1})), AdditiveDichotomous(F({0}))]
    res = fuzz_truthfulness("pe", inst, 1, lambda instance, deviator: reports)
    assert res.truthful


@pytest.mark.parametrize("mechanism, mode", [("pe", "expost"), ("rpe", "expectation")])
def test_fuzz_validates_each_report_once(mechanism, mode, monkeypatch):
    import egalloc.mechanisms as mechanisms
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
    assert len(restricted_mrf_library(inst, 0)) == 11
    calls = []
    original = mechanisms.validate_matroid

    def counting(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(mechanisms, "validate_matroid", counting)
    res = fuzz_truthfulness(mechanism, inst, 0, restricted_mrf_library)
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
    from egalloc.matroid import Explicit

    # U(2,6) listed explicitly; every library candidate wraps this one object
    truth = Explicit(F(F(t) for t in combinations(range(6), 2)))
    inst = matroid_instance([truth, Uniform(F({0, 1, 2}), 2)], 6)
    assert len(restricted_mrf_library(inst, 0)) == 68
    scanned = []
    original = matroid._validate_explicit

    def counting(spec):
        scanned.append(spec)
        return original(spec)

    monkeypatch.setattr(matroid, "_validate_explicit", counting)
    res = fuzz_truthfulness("pe", inst, 0, restricted_mrf_library)
    assert res.truthful
    assert scanned == [truth]


def test_fuzz_mode_validation():
    inst = additive_instance([F({0})])
    with pytest.raises(ValidationError):
        fuzz_truthfulness("nope", inst, 0, all_demand_subsets)
    with pytest.raises(ValidationError):
        fuzz_truthfulness("pe", inst, 5, all_demand_subsets)


def test_library_requires_matroid_truth():
    inst = additive_instance([F({0})])
    with pytest.raises(ValidationError):
        fuzz_truthfulness("pe", inst, 0, restricted_mrf_library)


def test_library_contains_truth():
    from egalloc.matroid import FreeOver
    from egalloc.valuation import evaluate

    inst = matroid_instance([FreeOver(F({0, 1}))], 2)
    reports = restricted_mrf_library(inst, 0)
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
        fuzz_truthfulness("meps", inst, 0, all_demand_subsets)


def test_meps_fuzzing_checks_epsilon_before_the_size_cap():
    # 4 agents over 12 items is past the fuzz cap, but a bad ε is a usage
    # error (ValidationError), as it is for run_meps
    inst = additive_instance([F(range(12))] * 4, epsilon=Fraction(1, 10))
    with pytest.raises(ValidationError, match="eps must be below"):
        fuzz_truthfulness("meps", inst, 0, all_demand_subsets)


def test_meps_fuzzing_checks_each_candidate_demand():
    inst = additive_instance([F({0, 1}), F({1})], epsilon=Fraction(1, 100))
    with pytest.raises(ValidationError, match=r"outside the item universe: \[2\]"):
        fuzz_truthfulness("meps", inst, 0, lambda i, d: [AdditiveDichotomous(F({0, 2}))])
    with pytest.raises(ValidationError, match="takes demand-set reports"):
        fuzz_truthfulness("meps", inst, 0, lambda i, d: [MatroidValuation(Uniform(F({0}), 1))])


def _tally_instances(rng, mechanism):
    """Seeded (instance, deviator, spaces) cases for the tally tests.

    rpe: additive, ε-leveled and matroid truths of every tag, twice each,
    n <= 4 and m <= 4, plus 5/3 and 6/2; meps: additive and ε-leveled
    truths, n <= 3 and m <= 4, plus 4/3 and 2/5.  The other agents'
    valuations are drawn from every kind the mechanism takes.
    """
    if mechanism == "rpe":
        truths = (["additive", "leveled"] + [("matroid", tag) for tag in MATROID_TAGS]) * 2
        sizes = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in truths] + [(5, 3), (6, 2)]
        kinds = VALUATION_KINDS
    else:
        truths = ["additive", "leveled"] * 4
        sizes = [(rng.randint(1, 3), rng.randint(1, 4)) for _ in truths] + [(4, 3), (2, 5)]
        kinds = ("additive", "leveled")
    for k, (n, m) in enumerate(sizes):
        eps = Fraction(1, n * m**3 + 1)
        truth = truths[k % len(truths)]

        def draw(kind):
            if kind == "leveled":  # every value 0 or inside [1, 1 + eps]
                levels = [Fraction(0), Fraction(1), 1 + eps / 2, 1 + eps]
                return EpsLeveled({a: rng.choice(levels) for a in range(m) if rng.random() < 0.8})
            if isinstance(kind, tuple):
                return MatroidValuation(rand_matroid_of_tag(rng, kind[1], m))
            return rand_valuation(rng, kind, m)

        deviator = rng.randrange(n)
        valuations = [draw(rng.choice(kinds)) for _ in range(n)]
        valuations[deviator] = draw(truth)
        inst = Instance(
            item_names=tuple(f"i{j}" for j in range(m)),
            agent_names=tuple(f"a{j}" for j in range(n)),
            valuations=tuple(valuations),
            epsilon=eps,
        )
        spaces = [all_demand_subsets]
        if isinstance(truth, tuple):
            spaces.append(restricted_mrf_library)
        yield inst, deviator, spaces


def _walk_value(bundles, value, realizations: int) -> Fraction:
    """Σ count·value(B) over the distinct bundles of a walk, divided once."""
    return Fraction(sum(c * value(b) for b, c in Counter(bundles).items()), realizations)


def _items_of(holders, agent):
    """`agent`'s bundle in a holders tuple of the walk."""
    return F(a for a, v in enumerate(holders) if v == agent)


def test_pe_tally_matches_the_reference():
    # pe is the one-order case of the rpe tally; compared against run_pe and
    # evaluate on every seeded case of both mechanisms
    rng = random.Random(1313)
    cases = manipulable = 0
    for inst, deviator, spaces in [*_tally_instances(rng, "rpe"), *_tally_instances(rng, "meps")]:
        for space in spaces:
            got = fuzz_truthfulness("pe", inst, deviator, space)
            assert got == reference_fuzz_truthfulness("pe", inst, deviator, space)
            cases += 1
            leveled = isinstance(inst.valuations[deviator], EpsLeveled)
            manipulable += leveled and not got.truthful
    assert cases >= 40
    assert manipulable >= 1  # floor-then-PE on an ε-leveled truth: a witness is compared


def test_rpe_tally_matches_the_full_distribution():
    rng = random.Random(1313)
    cases = manipulable = 0
    for inst, deviator, spaces in _tally_instances(rng, "rpe"):
        value = value_functions(inst.valuations[deviator])[0]
        orders = list(permutations(range(inst.n)))
        for space in spaces:
            candidates = [floor_reports([inst.valuations[deviator]])[0]]
            candidates += space(inst, deviator)
            for report in candidates:
                reports = floor_reports(inst.valuations)
                reports[deviator] = report
                matroids = sanitize_reports(reports, inst.m)
                supports = prepare_supports(matroids, inst.m)
                walk = (solve_prepared(matroids, supports, sigma) for sigma in orders)
                got = _walk_value((F(b[deviator]) for b in walk), value, len(orders))
                want = expected_utilities(run_rpe(reports, inst.m), inst.valuations)[deviator]
                assert type(got) is Fraction and got == want, (inst, deviator, report)
                cases += 1
            got = fuzz_truthfulness("rpe", inst, deviator, space)
            assert got == reference_fuzz_truthfulness("rpe", inst, deviator, space)
            manipulable += not got.truthful
    assert cases >= 200
    assert manipulable >= 1  # floor-then-RPE on an ε-leveled truth: a witness is compared


def test_meps_tally_matches_the_full_distribution(monkeypatch):
    import egalloc.mechanisms as mechanisms

    solves = []
    original = mechanisms.solve_prepared

    def counting(reports, supports, sigma):
        solves.append(sigma)
        return original(reports, supports, sigma)

    rng = random.Random(1414)
    cases = 0
    for inst, deviator, spaces in _tally_instances(rng, "meps"):
        n, m = inst.n, inst.m
        value = value_functions(inst.valuations[deviator])[0]
        held_outs = held_out_lists(m)
        (space,) = spaces
        for report in space(inst, deviator):
            reports = floor_reports(inst.valuations)
            reports[deviator] = report
            demands = [r.demand for r in reports]
            solves.clear()
            specs = [FreeOver(d) for d in demands]
            supports = prepare_supports(specs, m)
            monkeypatch.setattr(mechanisms, "solve_prepared", counting)
            walk = _outcomes(specs, supports, m, held_outs, permutations(range(n)))
            got = _walk_value(
                (_items_of(holders, deviator) for _, _, holders in walk),
                value,
                m * m * math.factorial(n),
            )
            monkeypatch.setattr(mechanisms, "solve_prepared", original)
            want = expected_utilities(run_meps(reports, m, inst.epsilon), inst.valuations)
            assert type(got) is Fraction and got == want[deviator], (inst, deviator, report)
            # one PE solve per (sigma, X ∩ ∪demands), as in run_meps
            demanded = F().union(*demands)
            parts = {F(x) & demanded for x in held_outs}
            assert len(solves) == math.factorial(n) * len(parts)
            cases += 1
        got = fuzz_truthfulness("meps", inst, deviator, space)
        assert got == reference_fuzz_truthfulness("meps", inst, deviator, space)
    assert cases >= 100


def test_merged_bundle_refuses_an_item_in_both_halves():
    pe = (0, 1, -1, -1)  # a PE half, {0} and {1} over 4 items, as `check_bundles` returns it
    assert _granted(pe, ((0, 3), (1, 2))) == (0, 1, 1, 0)
    assert _granted(pe, ((1, 3), (1, 2))) == (0, 1, 1, 1)  # a sole demander wins both
    assert _granted(pe, ()) is pe
    assert _allocation(_granted(pe, ((0, 3), (1, 2))), 3).bundles == (F({0, 3}), F({1, 2}), F())
    # the agent's own PE bundle holds the item
    for grants in [((1, 1),), ((1, 2), (1, 1)), ((0, 2), (1, 1))]:
        with pytest.raises(ValidationError, match="^item 1 allocated twice$"):
            _granted(pe, grants)
    with pytest.raises(ValidationError, match="^item 0 allocated twice$"):
        _granted(pe, ((1, 0),))  # an item in another agent's PE bundle


def test_check_bundles_runs_once_per_engine_solve(monkeypatch):
    # exact walks share equal outcomes, yet every bundle list the engine
    # returns still passes the partition check itself, exactly once; the
    # fuzzer solves through `mechanisms`, so patching it covers every route
    import egalloc.mechanisms as mechanisms

    solved, checked = [], Counter()
    original_solve, original_check = mechanisms.solve_prepared, mechanisms.check_bundles

    def solving(reports, supports, sigma):
        bundles = original_solve(reports, supports, sigma)
        solved.append(bundles)  # kept alive, so that no id is reused
        return bundles

    def checking(bundles, m):
        checked[id(bundles)] += 1
        return original_check(bundles, m)

    monkeypatch.setattr(mechanisms, "solve_prepared", solving)
    monkeypatch.setattr(mechanisms, "check_bundles", checking)
    demands = [F({0, 1, 2}), F({1, 2}), F(), F({0, 3})]
    inst = additive_instance(demands)
    m = inst.m
    routes = {
        "run_rpe": lambda: run_rpe(inst.valuations, m),
        "run_meps": lambda: run_meps(inst.valuations, m, 0),
        "sample_meps": lambda: sample_meps(inst.valuations, m, 0, seed=3),
        **{
            f"fuzz {mech}": lambda mech=mech: fuzz_truthfulness(mech, inst, 1, all_demand_subsets)
            for mech in ("pe", "rpe", "meps")
        },
    }
    for name, route in routes.items():
        solved.clear()
        checked.clear()
        route()
        assert solved, name
        assert [checked[id(b)] for b in solved] == [1] * len(solved), name
        assert len(checked) == len(solved), name


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda bundles, m: [{0} for _ in bundles], "item 0 allocated twice"),
        (lambda bundles, m: [{m}] + bundles[1:], "item 3 outside universe 0..2"),
    ],
    ids=["twice", "outside"],
)
def test_every_route_checks_the_engines_bundles(monkeypatch, corrupt, message):
    # the engine's bundles are checked once per solve, by `check_bundles` or
    # by the `Allocation` that wraps them: a broken engine cannot go unseen
    import egalloc.lorenz as lorenz
    import egalloc.mechanisms as mechanisms

    demands = [F({0, 1}), F({1, 2})]
    inst = additive_instance(demands)
    m = inst.m
    original = lorenz.solve_prepared

    def broken(reports, supports, sigma):
        return corrupt(original(reports, supports, sigma), m)

    for module in (lorenz, mechanisms):
        monkeypatch.setattr(module, "solve_prepared", broken)
    routes = {
        "compute_lorenz_dominating": lambda: lorenz.compute_lorenz_dominating(
            [FreeOver(d) for d in demands], m
        ),
        "run_rpe": lambda: run_rpe(inst.valuations, m),
        "run_meps": lambda: run_meps(inst.valuations, m, 0),
        "sample_meps": lambda: sample_meps(inst.valuations, m, 0, seed=1),
        **{
            f"fuzz {mech}": lambda mech=mech: fuzz_truthfulness(mech, inst, 0, all_demand_subsets)
            for mech in ("pe", "rpe", "meps")
        },
    }
    for name, route in routes.items():
        with pytest.raises(ValidationError, match=f"^{message}$"):
            route()
            pytest.fail(name)


def test_check_bundles_names_the_item_allocation_names():
    for bundles, m in [
        ((F({0, 1}), F({1, 5})), 3),  # twice before outside
        ((F({0, 5}), F({0})), 3),  # outside before twice
        ((F({2}), F(), F({2, 4, 9})), 4),
        ((F({1, 2}), F({3}), F({1, 3})), 4),
    ]:
        with pytest.raises(ValidationError) as direct:
            check_bundles(bundles, m)
        with pytest.raises(ValidationError) as wrapped:
            Allocation(bundles, m)
        assert str(direct.value) == str(wrapped.value), bundles
    check_bundles([{0}, set(), {1, 2}], 3)  # a partition of part of 0..2 passes
    # a negative id: the engine's check names it outside the universe, and
    # `Allocation` refuses it first by the one id rule
    with pytest.raises(ValidationError, match=r"^item -1 outside universe 0\.\.1$"):
        check_bundles((F({-1}), F({-1})), 2)
    with pytest.raises(ValidationError, match="^item ids must be non-negative integers, got -1$"):
        Allocation((F({-1}), F({-1})), 2)


def refuse_refreezing(monkeypatch, cls=FreeOver):
    """Make building a `cls` (`FreeOver` or `AdditiveDichotomous`) by its
    constructor, which runs `_freeze` on the demand's ids, fail: a set-up
    whose demands were frozen when their `AdditiveDichotomous` was built
    must not check them again."""

    def refreeze(self):
        raise AssertionError(f"the ids of {set(self.demand)} were frozen again")

    monkeypatch.setattr(cls, "__post_init__", refreeze)


def test_subset_space_freezes_no_id_again(monkeypatch):
    # the 2^m candidates' ids come from range(m): each report is built
    # without running the id rule again, and equals the checked one
    inst = additive_instance([F({0, 1}), F({1, 2, 3})])
    refuse_refreezing(monkeypatch, AdditiveDichotomous)
    got = all_demand_subsets(inst, 0)
    monkeypatch.undo()
    want = [AdditiveDichotomous(F(s)) for k in range(5) for s in combinations(range(4), k)]
    assert got == want and [hash(r) for r in got] == [hash(r) for r in want]


@pytest.mark.parametrize("mechanism", ["pe", "rpe", "meps"])
def test_fuzz_sets_up_each_report_once(mechanism, monkeypatch):
    # every mechanism sets each report up once per call, by its own
    # per-report function: the other agents' reports are not set up again
    # per candidate, and no demand's ids are frozen again
    inst = additive_instance([F({0, 1}), F({1, 2, 3}), F({0, 3}), F({2})])
    truth = F({1, 2, 3})
    candidates = [c.demand for c in all_demand_subsets(inst, 1)]
    specs = []
    calls = count_free_supports(monkeypatch, specs)
    refuse_refreezing(monkeypatch)
    result = fuzz_truthfulness(mechanism, inst, 1, all_demand_subsets)
    assert result.truthful
    # one spec per report, in the order prepare_supports first asks them:
    # the other agents' reports, the truth, then each of the 2^m candidates
    assert [spec.demand for spec in specs] == [F({0, 1}), F({0, 3}), F({2}), truth, *candidates]
    # every report is a demand set, whose universe check reads the demand,
    # so prepare_supports asks the others and the truth once; a candidate
    # is asked once for its bound, and once more when walked (|R ∩ T| >= 2,
    # see the work-count test below), so 2 times, else 1
    asked = [1 + (len(c & truth) >= 2) for c in candidates]
    assert list(calls.values()) == [1] * 4 + asked


def test_fuzz_walks_only_the_candidates_whose_bound_beats_the_best(monkeypatch):
    # the instance of the set-up test above; the truth is T = {1, 2, 3}
    import egalloc.harness as harness
    import egalloc.mechanisms as mechanisms

    inst = additive_instance([F({0, 1}), F({1, 2, 3}), F({0, 3}), F({2})])
    solves, walks = [], []
    original_solve, original_walk = mechanisms.solve_prepared, harness._outcomes

    def solving(reports, supports, sigma):
        solves.append(sigma)
        return original_solve(reports, supports, sigma)

    def walking(*args):
        walks.append(args)
        return original_walk(*args)

    monkeypatch.setattr(mechanisms, "solve_prepared", solving)
    monkeypatch.setattr(harness, "_outcomes", walking)
    # A candidate R has cap c = |R ∩ T| and is bounded by N·c over the N
    # realizations, and the truth scores best = N times 1 (pe), 1 (rpe) and
    # 241/192 (meps); the score is never raised, as no candidate beats it.
    # So each call walks the truth and the 8 candidates with c >= 2 (the 4
    # subsets of T of two or three items, each with or without item 0) of
    # the 2^4: 9 of the 17 reports.  A walk stops after the first order at
    # which its shortfall, Σ (c − f(B)) over the realizations walked,
    # reaches its slack N·c − best; the truth is walked in full.
    # pe: N = 1, 9 walks of the one order, 9 solves.
    # rpe: N = 24, one solve per order.  {1, 2}, {1, 3}, {2, 3} (slack 24)
    # and T (slack 48) get one item of T in each order, so they reach the
    # slack only at the last: 24 each.  With item 0 they stop early, in
    # orders worth (0, 1) items of T: {0, 1, 2} after 14 (11, 3; shortfall
    # 11·2 + 3 = 25), {0, 1, 3} after 18 (6, 12; 24), {0, 2, 3} after 17
    # (8, 9; 25) and {0, 1, 2, 3} after 20 (8, 12; 8·3 + 12·2 = 48 of 48).
    # 24 + 4·24 + 14 + 18 + 17 + 20 = 189 solves (216 walked in full).
    # meps: N = 16·24 = 384, best 482, so the slack is 286 for c = 2 and 670
    # for c = 3.  The others demand every item, so X ∩ ∪demands is X and
    # each order solves once per distinct held-out set, 4 singletons and 6
    # pairs: 10 solves per order.  Its 16 realizations worth (0, 1, 2) items
    # of T: {1, 2} stops after 17 orders (47, 193, 32; 2·47 + 193 = 287),
    # {1, 3} after 18 (36, 216, 36; 288), {2, 3} after 17 (48, 190, 34; 286),
    # {0, 1, 2} after 16 (68, 165, 23; 301), {0, 1, 3} after 16 (62, 163,
    # 31; 287), {0, 2, 3} after 16 (67, 161, 28; 295), {0, 1, 2, 3} after 23
    # (55, 223, 90; 3·55 + 2·223 + 90 = 701 of 670), and T, which scores
    # exactly best, only at the last (18, 250, 116; 670).  With the truth:
    # 10 · (24 + 17 + 18 + 17 + 16 + 16 + 16 + 23 + 24) = 1,710 solves in 9
    # walks (2,160 walked in full).
    for mechanism, utility, want_solves, want_walks in [
        ("pe", 1, 9, 9),
        ("rpe", 1, 189, 9),
        ("meps", Fraction(241, 192), 1710, 9),
    ]:
        solves.clear()
        walks.clear()
        result = fuzz_truthfulness(mechanism, inst, 1, all_demand_subsets)
        assert result.truthful and result.truthful_utility == utility, mechanism
        assert (len(solves), len(walks)) == (want_solves, want_walks), mechanism


def test_fuzz_cuts_a_walk_that_cannot_win_and_a_later_candidate_wins(monkeypatch):
    import egalloc.mechanisms as mechanisms

    # ε-leveled, ε = 1/4: x values a 1, b 19/16, c 5/4; y values a 5/4, b 19/16
    inst = Instance(
        item_names=("a", "b", "c"),
        agent_names=("x", "y"),
        valuations=(
            EpsLeveled({0: 1, 1: Fraction(19, 16), 2: Fraction(5, 4)}),
            EpsLeveled({0: Fraction(5, 4), 1: Fraction(19, 16)}),
        ),
        epsilon=Fraction(1, 4),
    )
    # Under rpe, x's truth gets {a, c} (9/4) under (x, y) and {c} (5/4) under
    # (y, x): score 7/2 over the 2 orders.  {a, b} has cap 35/16, so its bound
    # 35/8 beats 7/2 and it is walked; under (x, y) it gets {b}, and
    # 19/16 + 35/16 = 27/8 <= 7/2, so the walk stops before (y, x).  {b, c}
    # then scores 39/16 + 5/4 = 59/16 and wins: 7/4 -> 59/32.
    candidates = [AdditiveDichotomous(F({0, 1})), AdditiveDichotomous(F({1, 2}))]

    def space(instance, deviator):
        return candidates

    solves = []
    original = mechanisms.solve_prepared

    def solving(reports, supports, sigma):
        solves.append((reports[0].support(), sigma))
        return original(reports, supports, sigma)

    monkeypatch.setattr(mechanisms, "solve_prepared", solving)
    got = fuzz_truthfulness("rpe", inst, 0, space)
    monkeypatch.setattr(mechanisms, "solve_prepared", original)
    assert got == reference_fuzz_truthfulness("rpe", inst, 0, space)
    assert (got.truthful_utility, got.best_utility) == (Fraction(7, 4), Fraction(59, 32))
    assert got.best_report is candidates[1]
    assert solves == [
        (F({0, 1, 2}), (0, 1)),
        (F({0, 1, 2}), (1, 0)),
        (F({0, 1}), (0, 1)),  # cut here
        (F({1, 2}), (0, 1)),
        (F({1, 2}), (1, 0)),
    ]
    # the whole subset space agrees with the reference as well
    assert fuzz_truthfulness("rpe", inst, 0, all_demand_subsets) == (
        reference_fuzz_truthfulness("rpe", inst, 0, all_demand_subsets)
    )


def test_the_deviators_bundles_stay_inside_its_support_list():
    # the premise of the fuzzer's bound: each report's bundle, along every
    # route the fuzzer walks, is a subset of the support list it was given
    rng = random.Random(4242)
    for k in range(36):
        n, m = rng.randint(1, 4), rng.randint(1, 6)
        # pe and rpe: every tag, on the full lists and on lists clipped by a
        # random item set, as the held-out PE halves clip them
        reports = [rand_matroid_of_tag(rng, MATROID_TAGS[(k + v) % 6], m) for v in range(n)]
        full = prepare_supports(reports, m)
        cut = {a for a in range(m) if rng.random() < 0.4}
        for lists in (full, [[a for a in s if a not in cut] for s in full]):
            sigmas = rng.sample(list(permutations(range(n))), min(4, math.factorial(n)))
            for sigma, _, holders in _outcomes(reports, lists, m, None, sigmas):
                for v in range(n):
                    assert _items_of(holders, v) <= set(lists[v]), (reports, lists, sigma, v)
        # meps: the PE half merged with the M^X grants, for every agent
        demands = [F(a for a in range(m) if rng.random() < 0.5) for _ in range(n)]
        reports = [FreeOver(d) for d in demands]
        supports = prepare_supports(reports, m)
        walk = _outcomes(reports, supports, m, held_out_lists(m), permutations(range(n)))
        for sigma, held_out, holders in walk:
            for v in range(n):
                assert _items_of(holders, v) <= set(supports[v]), (demands, held_out)


def leveled_four_item_instance() -> Instance:
    # ε-leveled, ε = 1/4: agent x values a 1, b 9/8, c 1, d 5/4; agent y
    # values b 9/8, c 1, d 5/4 and not a
    return Instance(
        item_names=("a", "b", "c", "d"),
        agent_names=("x", "y"),
        valuations=(
            EpsLeveled({0: 1, 1: Fraction(9, 8), 2: 1, 3: Fraction(5, 4)}),
            EpsLeveled({1: Fraction(9, 8), 2: 1, 3: Fraction(5, 4)}),
        ),
        epsilon=Fraction(1, 4),
    )


def _pair(first, second):
    return MatroidValuation(Partition(((F(first), 1), (F(second), 1))))


@pytest.mark.parametrize(
    "mechanism, candidates, truthful, best",
    [
        # truth 17/8; {a, d} scores 9/4 and {b, d} 19/8, both at their bound;
        # {b, c, d} ties 19/8 below its bound 27/8; the partition over {b, d}
        # is bounded by 19/8, above the truth but not above the raised best
        (
            "pe",
            [
                AdditiveDichotomous(F({0, 3})),
                AdditiveDichotomous(F({1, 3})),
                AdditiveDichotomous(F({1, 2, 3})),
                _pair({1}, {3}),
            ],
            Fraction(17, 8),
            Fraction(19, 8),
        ),
        # truth 33/16; {a, b} scores 17/8 and {a, d} 9/4, both at their
        # bound; the partition ({a, b}, {d}) ties 9/4 below its bound 27/8;
        # the partition ({a}, {d}) is bounded by 9/4
        (
            "rpe",
            [
                AdditiveDichotomous(F({0, 1})),
                AdditiveDichotomous(F({0, 3})),
                _pair({0, 1}, {3}),
                _pair({0}, {3}),
            ],
            Fraction(33, 16),
            Fraction(9, 4),
        ),
    ],
)
def test_fuzz_prunes_against_the_raised_best(mechanism, candidates, truthful, best, monkeypatch):
    import egalloc.mechanisms as mechanisms

    inst = leveled_four_item_instance()
    value = value_functions(inst.valuations[0])[0]

    def alone(report):  # (score, bound) of one candidate against the truth
        result = reference_fuzz_truthfulness(mechanism, inst, 0, lambda i, d: [report])
        return result.best_utility, value(sanitize_reports([report], inst.m)[0].support())

    weaker, stronger, tie, bounded = map(alone, candidates)
    assert truthful < weaker[0] == weaker[1] < best == stronger[0] == stronger[1]
    assert tie[0] == best < tie[1]
    assert truthful < bounded[1] == best

    def space(instance, deviator):
        return candidates

    solves = []
    original = mechanisms.solve_prepared

    def solving(reports, supports, sigma):
        solves.append(sigma)
        return original(reports, supports, sigma)

    monkeypatch.setattr(mechanisms, "solve_prepared", solving)
    got = fuzz_truthfulness(mechanism, inst, 0, space)
    monkeypatch.setattr(mechanisms, "solve_prepared", original)
    assert got == reference_fuzz_truthfulness(mechanism, inst, 0, space)
    assert (got.truthful_utility, got.best_utility) == (truthful, best)
    assert got.best_report is candidates[1]  # the stronger witness, not the tie after it
    # the truth, the two witnesses and the tie are walked, over pe's one
    # order or rpe's two, and the last candidate is not: its bound would
    # beat the truth, but not the raised best
    assert len(solves) == {"pe": 4, "rpe": 8}[mechanism]
