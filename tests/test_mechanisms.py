import math
import random
from operator import mul
from fractions import Fraction
from itertools import combinations, permutations, product
from types import SimpleNamespace

import pytest

from conftest import (
    MATROID_TAGS,
    VALUATION_KINDS,
    count_free_supports,
    demand_reports,
    rand_matroid_of_tag,
    rand_subset,
    rand_valuation,
)
from egalloc.errors import CapabilityError, ValidationError
from egalloc.matroid import ZERO_MATROID, Explicit, FreeOver, Partition, Truncated, Uniform
from egalloc.mechanisms import (
    MEPS_EXACT_MAX_ATOMS,
    _mx_grants,
    _top_two,
    expected_utilities,
    held_out_lists,
    run_meps,
    run_mx,
    run_pe,
    run_rpe,
    sample_meps,
    sample_rpe,
    sanitize_reports,
)
from egalloc.lorenz import prepare_supports, solve_prepared
from egalloc.model import Allocation, Atom, OutcomeDistribution
from egalloc.valuation import AdditiveDichotomous, MatroidValuation, XosFamily
from meps_reference import _mx_grants as reference_mx_grants
from meps_reference import (
    held_out_outcomes,
    reference_expected_utilities,
    reference_run_meps,
    truthfulness_threshold,
)

F = frozenset


def test_pe_examples():
    both = F({0, 1})
    alloc = run_pe([AdditiveDichotomous(both)] * 3, 2)
    assert alloc.profile() == (1, 1, 0)

    disjoint = [AdditiveDichotomous(F({0})), AdditiveDichotomous(F({1, 2}))]
    alloc = run_pe(disjoint, 3)
    assert alloc.bundles == (F({0}), F({1, 2}))


def test_pe_bundles_do_not_depend_on_report_representation():
    # Uniform({0,1}, 2) is the same rank function as demand {0,1}; PE must
    # give the same items however the report is written.
    demand = AdditiveDichotomous(F({0, 1}))
    as_matroid = MatroidValuation(Uniform(F({0, 1}), 2))
    additive = run_pe([demand, demand], 2)
    mixed = run_pe([demand, as_matroid], 2)
    assert additive.profile() == (1, 1)
    assert mixed.bundles == additive.bundles


def test_pe_replaces_illegal_reports():
    bad = MatroidValuation(Explicit(F({F({0}), F({1, 2})})))
    reports = [bad, AdditiveDichotomous(F({0, 1, 2}))]
    matroids = sanitize_reports(reports, 3)
    assert matroids[0] is ZERO_MATROID
    assert matroids[1] is not ZERO_MATROID
    alloc = run_pe(reports, 3)
    assert alloc.bundles[0] == F()
    assert alloc.bundles[1] == F({0, 1, 2})


def test_pe_replaces_non_mrf_valuation_classes():
    reports = [XosFamily((F({0}), F({1}))), AdditiveDichotomous(F({0, 1}))]
    matroids = sanitize_reports(reports, 2)
    assert matroids[0] is ZERO_MATROID
    assert matroids[1] is not ZERO_MATROID
    alloc = run_pe(reports, 2)
    assert alloc.bundles[0] == F()


def test_report_outside_universe_rejected():
    with pytest.raises(ValidationError):
        run_pe([AdditiveDichotomous(F({5}))], 2)


def test_rpe_exact_two_agents_one_item():
    dist = run_rpe([AdditiveDichotomous(F({0}))] * 2, 1)
    assert len(dist.atoms) == 2
    assert all(a.weight == Fraction(1, 2) for a in dist.atoms)
    winners = {next(iter(a.allocation.bundles[0] | a.allocation.bundles[1])) for a in dist.atoms}
    assert winners == {0}
    got = {tuple(len(b) for b in a.allocation.bundles) for a in dist.atoms}
    assert got == {(1, 0), (0, 1)}


def test_rpe_exact_validates_each_report_once(monkeypatch):
    import egalloc.mechanisms as mechanisms

    reports = [
        MatroidValuation(Uniform(F({0, 1, 2}), 2)),
        MatroidValuation(Explicit(F({F({0, 3}), F({1, 3}), F({2, 3})}))),
        MatroidValuation(Partition(((F({0, 1}), 1), (F({2, 3}), 1)))),
        MatroidValuation(Truncated(Uniform(F({1, 2, 3}), 3), 2)),
    ]
    calls = []
    original = mechanisms.validate_matroid

    def counting(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(mechanisms, "validate_matroid", counting)
    dist = run_rpe(reports, 4)
    assert len(calls) == len(reports)
    assert len(dist.atoms) == 24
    for atom in dist.atoms:
        assert atom.allocation == run_pe(reports, 4, atom.priority)
    monkeypatch.setattr(mechanisms, "validate_matroid", original)
    # atom k is the k-th order of `permutations`, with no held-out list and
    # weight 1/n!, and holds PE under it: seeded reports of every matroid
    # tag and additive demand sets
    rng = random.Random(2718)
    kinds = (*MATROID_TAGS, "additive")
    for k in range(28):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        reports = [
            AdditiveDichotomous(rand_subset(rng, m)) if kind == "additive"
            else MatroidValuation(rand_matroid_of_tag(rng, kind, m))
            for kind in (kinds[(k + v) % len(kinds)] for v in range(n))
        ]
        orders = list(permutations(range(n)))
        dist = run_rpe(reports, m)
        assert len(dist.atoms) == len(orders)
        for atom, sigma in zip(dist.atoms, orders):
            assert (atom.priority, atom.held_out) == (sigma, None)
            assert atom.weight == Fraction(1, len(orders))
            assert atom.allocation == run_pe(reports, m, sigma), (reports, sigma)


def test_rpe_exact_cap():
    reports = [AdditiveDichotomous(F({0}))] * 7
    with pytest.raises(CapabilityError):
        run_rpe(reports, 1)


def test_rpe_sampled_reproducible():
    reports = [AdditiveDichotomous(F({0, 1, 2}))] * 3
    a = sample_rpe(reports, 3, seed=7)
    b = sample_rpe(reports, 3, seed=7)
    assert a == b
    seen = {sample_rpe(reports, 3, seed=s)[0].bundles for s in range(20)}
    assert len(seen) > 1  # different seeds explore different priorities


def test_mx_examples():
    # X=(a,b), priority (3,2,1) one-indexed -> (2,1,0); 3 wants a, 2 wants both, 1 wants b
    alloc = run_mx((0, 1), (2, 1, 0), [F({1}), F({0, 1}), F({0})], 2)
    assert alloc.bundles == (F(), F({1}), F({0}))

    nobody = run_mx((0,), (0, 1), [F(), F()], 2)
    assert nobody.total_items() == 0
    assert 0 in nobody.unallocated

    sole = run_mx((0, 1), (0, 1, 2), [F({0, 1}), F(), F()], 2)
    assert sole.bundles[0] == F({0, 1})


def test_mx_top_two_grants_match_the_reference():
    # the grant rule of `run_mx` and of the exact walks, M^X from each
    # item's top two demanders, against the sequential reference with its
    # demotion: every order for n <= 4 and every held-out list for m <= 5
    rng = random.Random(2424)
    sole_wins_both = undemanded = cases = 0
    for n in range(1, 5):
        for m in range(1, 6):
            for _ in range(3):
                demands = [rand_subset(rng, m, rng.choice([0.3, 0.6])) for _ in range(n)]
                if m > 1 and rng.random() < 0.3:  # agent 0 alone demands items 0 and 1
                    demands = [F({0, 1})] + [d - F({0, 1}) for d in demands[1:]]
                undemanded += len(F().union(*demands)) < m
                for sigma in permutations(range(n)):
                    tops = _top_two(range(m), sigma, demands)  # as the walk: all items at once
                    for held_out in held_out_lists(m):
                        on_x = [d & F(held_out) for d in demands]
                        want = reference_mx_grants(held_out, sigma, on_x)
                        granted = [set() for _ in demands]
                        for agent, item in _mx_grants(held_out, tops):
                            granted[agent].add(item)
                        assert granted == want, (demands, sigma, held_out)
                        assert run_mx(held_out, sigma, on_x, m).bundles == tuple(map(F, want))
                        sole_wins_both += len(held_out) == 2 and F(held_out) in want
                        cases += 1
    assert cases == 3 * (1 + 2 + 6 + 24) * (1 + 4 + 9 + 16 + 25)
    assert undemanded >= 20 and sole_wins_both >= 200


def test_mx_validation():
    with pytest.raises(ValidationError):
        run_mx((0, 0), (0, 1), [F(), F()], 2)
    with pytest.raises(ValidationError):
        run_mx((0,), (0, 1), [F({1}), F()], 2)  # report outside X


def test_held_out_outcomes_uniform():
    for m in (1, 2, 3, 5):
        outs = held_out_outcomes(m)
        assert len(outs) == m * m
        assert all(w == Fraction(1, m * m) for _, w in outs)
    assert held_out_outcomes(1) == [((0,), Fraction(1))]


class ScriptedRandom:
    """A stand-in for `random.Random` that follows one branch of the draw:
    `randrange(k)` answers from `script`, then 0, and records each
    (answer, k); `shuffle` leaves the order as it is."""

    def __init__(self, script):
        self.script, self.draws = script, []

    def randrange(self, k):
        i = len(self.draws)
        self.draws.append((self.script[i] if i < len(self.script) else 0, k))
        return self.draws[-1][0]

    def shuffle(self, seq):
        pass


def test_sample_meps_draws_each_held_out_list_with_probability_one_over_m_squared(monkeypatch):
    # every branch of sample_meps's draws, each randrange(k) answer weighing
    # 1/k, sums to the reference derivation's 1/m^2 on every held-out list
    import egalloc.mechanisms as mechanisms

    for m in range(1, 6):
        outcomes = held_out_outcomes(m)
        assert held_out_lists(m) == [x for x, _ in outcomes]
        drawn: dict[tuple, Fraction] = {}
        scripts = [[]]
        while scripts:
            script = scripts.pop()
            rng = ScriptedRandom(script)
            monkeypatch.setattr(mechanisms, "random", SimpleNamespace(Random=lambda seed: rng))
            _, held_out, sigma = sample_meps(demand_reports([F(range(m))] * 2), m, 0, seed=0)
            assert sigma == (0, 1)
            answers = [answer for answer, _ in rng.draws]
            weight = Fraction(1, math.prod(k for _, k in rng.draws))
            drawn[held_out] = drawn.get(held_out, 0) + weight
            # each other answer to a draw past the script starts a branch of its own
            for i in range(len(script), len(answers)):
                scripts.extend(answers[:i] + [c] for c in range(1, rng.draws[i][1]))
        assert drawn == dict(outcomes), m


def test_meps_eps_validation():
    with pytest.raises(ValidationError):
        run_meps(demand_reports([F({0, 1, 2})] * 2), 3, Fraction(1, 54))  # needs < 1/54
    run_meps(demand_reports([F({0, 1, 2})] * 2), 3, Fraction(1, 60))  # fine


def test_meps_report_outside_universe():
    with pytest.raises(ValidationError):
        run_meps(demand_reports([F({7})]), 3, 0)
    with pytest.raises(ValidationError):  # no agents: the eps bound 1/(n*m^3) is undefined
        run_meps([], 3, 0)


def test_meps_exact_atom_structure():
    dist = run_meps(demand_reports([F({0, 1, 2})] * 2), 3, Fraction(1, 60))
    assert len(dist.atoms) == 18
    assert all(a.weight == Fraction(1, 18) for a in dist.atoms)
    singles = sum((a.weight for a in dist.atoms if len(a.held_out) == 1), Fraction(0))
    assert singles == Fraction(1, 3)  # Pr[|X| = 1] = 1/m
    # Pr[X=(l) and v has top held-out priority] = 1/(n m^2)
    for item in range(3):
        for v in range(2):
            p = sum(
                (
                    a.weight
                    for a in dist.atoms
                    if a.held_out == (item,) and a.priority[-1] == v
                ),
                Fraction(0),
            )
            assert p == Fraction(1, 18)


def test_meps_single_item_universe():
    dist = run_meps(demand_reports([F({0}), F({0})]), 1, 0)
    assert len(dist.atoms) == 2
    assert all(a.held_out == (0,) for a in dist.atoms)


def test_meps_reasonable_on_every_atom():
    demands = [F({0, 1}), F({1, 2})]
    dist = run_meps(demand_reports(demands), 3, Fraction(1, 100))
    reported = demands[0] | demands[1]
    for atom in dist.atoms:
        allocated = F().union(*atom.allocation.bundles)
        assert allocated == reported  # maximal size
        for v in range(2):
            assert atom.allocation.bundles[v] <= demands[v]  # non-redundant


def test_meps_sampled_reproducible():
    demands = [F({0, 1, 2}), F({0, 2})]
    a = sample_meps(demand_reports(demands), 3, Fraction(1, 60), seed=11)
    b = sample_meps(demand_reports(demands), 3, Fraction(1, 60), seed=11)
    assert a == b


def test_expected_utilities():
    vals = [AdditiveDichotomous(F({0}))] * 2
    dist = run_rpe(vals, 1)
    assert expected_utilities(dist, vals) == (Fraction(1, 2), Fraction(1, 2))

    pe = run_pe(vals, 1)
    single = OutcomeDistribution(
        (type(dist.atoms[0])(weight=Fraction(1), allocation=pe, priority=(0, 1)),)
    )
    assert expected_utilities(single, vals) == tuple(pe.utilities(vals))


def test_meps_proportional_in_expectation_smoke():
    demands = [F({0, 1, 2}), F({0, 1})]
    vals = [AdditiveDichotomous(d) for d in demands]
    dist = run_meps(vals, 3, Fraction(1, 60))
    for v, exp in enumerate(expected_utilities(dist, vals)):
        assert exp >= Fraction(len(demands[v]), 2)


def test_distribution_weights_must_sum_to_one():
    vals = [AdditiveDichotomous(F({0}))] * 2
    dist = run_rpe(vals, 1)
    atom = dist.atoms[0]
    with pytest.raises(ValidationError, match="must sum to 1 exactly, got 1/2"):
        OutcomeDistribution((atom,))
    with pytest.raises(ValidationError, match="must sum to 1 exactly, got 1/2"):
        OutcomeDistribution._of_columns(*(column[:1] for column in _columns(dist)))
    with pytest.raises(ValidationError, match="positive"):
        OutcomeDistribution._of_columns((Fraction(2), Fraction(-1)), *_columns(dist)[1:])


def _columns(dist):
    return dist.weights, dist.allocations, dist.priorities, dist.held_outs


def test_distribution_columns_round_trip_through_atoms():
    # the walks fill columns and build no Atom; the atoms read off them are
    # the per-realization reference's, in order, and rebuilding the
    # distribution from them gives an equal one with an equal hash
    rng = random.Random(3535)
    for _ in range(16):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        demands = [rand_subset(rng, m, rng.choice([0.3, 0.6])) for _ in range(n)]
        orders = list(permutations(range(n)))
        weight = Fraction(1, len(orders))
        rpe = [Atom(weight, run_pe(demand_reports(demands), m, s), s) for s in orders]
        for dist, want in (
            (run_rpe(demand_reports(demands), m), rpe),
            (run_meps(demand_reports(demands), m, 0), reference_run_meps(demands, m).atoms),
        ):
            assert dist.atoms == tuple(want), (demands, m)
            assert dist.atoms is dist.atoms
            again = OutcomeDistribution(dist.atoms)
            assert again == dist and hash(again) == hash(dist)
            assert _columns(again) == _columns(dist)
            # every column counts: one rotated held-out column differs
            turned = dist.held_outs[1:] + dist.held_outs[:1]
            other = OutcomeDistribution._of_columns(*_columns(dist)[:3], turned)
            assert (other == dist) == (turned == dist.held_outs)
            for name in ("weights", "allocations", "priorities", "held_outs", "atoms"):
                with pytest.raises(AttributeError):
                    setattr(dist, name, ())


def test_distribution_weights_must_be_exact():
    # two float halves sum to 1.0; a float weight is refused all the same
    pe = run_pe([AdditiveDichotomous(F({0}))], 1)
    with pytest.raises(ValidationError, match="floats are rejected"):
        OutcomeDistribution((Atom(0.5, pe, (0,)), Atom(0.5, pe, (0,))))
    # a weight of another exact type is stored as its Fraction
    assert type(Atom(1, pe, (0,)).weight) is Fraction
    halves = (Atom("1/2", pe, (0,)), Atom(Fraction(2, 4), pe, (0,)))
    assert expected_utilities(OutcomeDistribution(halves), [AdditiveDichotomous(F({0}))]) == (1,)
    with pytest.raises(ValidationError, match="positive"):
        OutcomeDistribution((Atom(2, pe, (0,)), Atom(-1, pe, (0,))))


def _mx_cases():
    """All held-out lists of size 1-2, demand profiles, and priorities."""
    import itertools

    for x in ((0,), (0, 1)):
        space = [F(s) for k in range(len(x) + 1) for s in itertools.combinations(x, k)]
        for n in (2, 3):
            for reports in itertools.product(space, repeat=n):
                for sigma in itertools.permutations(range(n)):
                    yield x, reports, sigma, space


def test_mx_reasonable_truthful_ef1_no_downward_envy():
    from egalloc.audit import check_envy

    for x, reports, sigma, space in _mx_cases():
        alloc = run_mx(x, sigma, list(reports), len(x))
        # reasonable: bundles inside reports, every demanded item placed
        assert all(b <= reports[v] for v, b in enumerate(alloc.bundles))
        for item in x:
            if any(item in r for r in reports):
                assert any(item in b for b in alloc.bundles), (x, reports, sigma)
        # truthful: no report beats the truth (true demand = reported set)
        for v, truth in enumerate(reports):
            truth_utility = len(alloc.bundles[v] & truth)
            for lie in space:
                if lie == truth:
                    continue
                surgery = list(reports)
                surgery[v] = lie
                dev = run_mx(x, sigma, surgery, len(x))
                assert len(dev.bundles[v] & truth) <= truth_utility, (x, reports, v, lie)
        # EF1, and no envy toward lower-priority agents at all
        vals = [AdditiveDichotomous(r) for r in reports]
        assert check_envy(alloc, vals, "EF1").all_hold, (x, reports, sigma)
        for pos, u in enumerate(sigma):
            for v in sigma[pos + 1 :]:
                assert len(alloc.bundles[u] & reports[u]) >= len(
                    alloc.bundles[v] & reports[u]
                ), (x, reports, sigma, u, v)


def test_samplers_match_sampled_modes_and_expose_traces():
    reports = [AdditiveDichotomous(F({0, 1, 2}))] * 3
    for seed in range(8):
        alloc, sigma = sample_rpe(reports, 3, seed=seed)
        assert sorted(sigma) == [0, 1, 2]

    demands = [F({0, 1, 2}), F({0, 2})]
    for seed in range(8):
        alloc, held_out, sigma = sample_meps(demand_reports(demands), 3, Fraction(1, 60), seed=seed)
        assert len(held_out) in (1, 2)
        assert sorted(sigma) == [0, 1]


def _meps_cases(rng):
    """Seeded demand profiles with n <= 4, m <= 6, edge cases first."""
    yield [F({0})], 1
    yield [F({0}), F({0}), F()], 1
    yield [F({0, 1})], 2
    yield [F({1}), F({1})], 2  # item 0 undemanded
    yield [F({0, 2, 3})], 4  # n = 1
    yield [F(), F()], 3  # nothing demanded
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        # keep the top item undemanded half the time
        top = m - 1 if m > 1 and rng.random() < 0.5 else m
        yield [rand_subset(rng, top, rng.choice([0.3, 0.6])) for _ in range(n)], m


def test_meps_exact_matches_per_atom_reference(monkeypatch):
    import egalloc.mechanisms as mechanisms

    solves = []
    original = mechanisms.solve_prepared

    def counting(reports, supports, sigma):
        solves.append(sigma)
        return original(reports, supports, sigma)

    rng = random.Random(5150)
    undemanded = 0
    for demands, m in _meps_cases(rng):
        n = len(demands)
        demanded = F().union(*demands)
        undemanded += len(demanded) < m
        solves.clear()
        monkeypatch.setattr(mechanisms, "solve_prepared", counting)
        dist = run_meps(demand_reports(demands), m, 0)
        monkeypatch.setattr(mechanisms, "solve_prepared", original)
        want = reference_run_meps(demands, m)
        assert dist.atoms == want.atoms, (demands, m)
        # one PE solve per (sigma, X ∩ ∪demands)
        parts = {F(x) & demanded for x in held_out_lists(m)}
        assert len(solves) == math.factorial(n) * len(parts), (demands, m)
        # a sampled realization is the exact atom with the same (X, sigma)
        by_trace = {(a.held_out, a.priority): a.allocation for a in want.atoms}
        for seed in range(3):
            alloc, held_out, sigma = sample_meps(demand_reports(demands), m, 0, seed=seed)
            assert alloc == by_trace[(held_out, sigma)]
    assert undemanded >= 10


def test_held_out_truthfulness_threshold_is_exact():
    # ε* = min A/S over every case (see `truthfulness_threshold`), pinned
    # where it takes under a second; the paper's 1/(n·m³) is sufficient
    pinned = {(2, 2): Fraction(3), (2, 3): Fraction(5, 4), (3, 3): Fraction(5, 4),
              (2, 4): Fraction(1, 3)}
    got = {(n, m): (truthfulness_threshold(n, m) or [None])[0] for n, m in pinned}
    assert got == pinned
    assert all(eps_star > Fraction(1, n * m**3) for (n, m), eps_star in pinned.items())
    # independent route at n=2, m=3: agent 0's chance of each item from
    # `reference_run_meps`, and the worst truthful margin over contested
    # profiles with values in {0, 1, 1+ε}, which holds t_a = 0 and 1; it
    # crosses zero at ε* = 5/4
    m = 3
    subsets = [F(c) for k in range(m + 1) for c in combinations(range(m), k)]
    chance = {}
    for report, other in product(subsets, repeat=2):
        atoms = reference_run_meps([report, other], m).atoms
        chance[report, other] = [
            sum(atom.weight for atom in atoms if a in atom.allocation.bundles[0])
            for a in range(m)
        ]

    def worst_margin(eps):
        margins = []
        for values in product((0, 1, 1 + eps), repeat=m):
            truth = F(a for a in range(m) if values[a])
            for other in subsets:
                if truth & other:
                    utility = {r: sum(map(mul, values, chance[r, other])) for r in subsets}
                    margins.append(utility[truth] - max(u for r, u in utility.items() if r != truth))
        return min(margins)

    grid = {Fraction(1, 60): Fraction(1, 9), Fraction(6, 5): Fraction(1, 90),
            Fraction(5, 4): 0, Fraction(13, 10): Fraction(-1, 90)}
    assert {eps: worst_margin(eps) for eps in grid} == grid


def test_held_out_witness_family_at_two_agents():
    """The other agent demands all m items, the deviator's truth is m − 1
    of them and its lie drops one more: the least A/S over those choices
    (as in `truthfulness_threshold`, from `run_meps` chances) is an upper
    bound on ε*(2, m).  It is (m+2)/((m−1)(2m−3)) from m = 6, where it
    equals ε* (8/45), as at m = 7 (3/22); at m = 3, 4 and 5 another case
    is worse (ε* is 5/4, 1/3 and 1/4 there)."""

    def least_ratio(m):
        everything = F(range(m))
        chances = {}

        def chance(report):
            if report not in chances:
                atoms = run_meps(demand_reports([report, everything]), m, 0).atoms
                chances[report] = [
                    sum(atom.weight for atom in atoms if a in atom.allocation.bundles[0])
                    for a in range(m)
                ]
            return chances[report]

        ratios = []
        for truth in map(F, combinations(range(m), m - 1)):
            for lie in map(F, combinations(sorted(truth), m - 2)):
                diffs = [chance(truth)[a] - chance(lie)[a] for a in truth]
                gain, exposure = sum(diffs), -sum(d for d in diffs if d < 0)
                if exposure:
                    ratios.append(gain / exposure)
        return min(ratios)

    closed_form = {m: Fraction(m + 2, (m - 1) * (2 * m - 3)) for m in (6, 7, 8, 10)}
    assert (closed_form[6], closed_form[7]) == (Fraction(8, 45), Fraction(3, 22))
    pinned = {3: Fraction(9, 2), 4: Fraction(4, 3), 5: Fraction(13, 22), **closed_form}
    assert {m: least_ratio(m) for m in pinned} == pinned


def test_exact_meps_cap_counts_atoms(monkeypatch):
    import egalloc.mechanisms as mechanisms

    def refuse(*args):
        raise AssertionError("enumerated past the cap")

    monkeypatch.setattr(mechanisms, "held_out_lists", refuse)
    # 5 agents: 9 items make 9,720 atoms, 10 items 12,000
    assert 9 * 9 * 120 <= MEPS_EXACT_MAX_ATOMS < 10 * 10 * 120
    with pytest.raises(CapabilityError):
        run_meps(demand_reports([F(range(10))] * 5), 10, 0)
    with pytest.raises(CapabilityError):
        run_meps(demand_reports([F({0})] * 7), 2, 0)
    monkeypatch.undo()
    dist = run_meps(demand_reports([F({0})] * 7), 1, 0)  # 5,040 atoms
    assert len(dist.atoms) == 5040
    assert {type(a.weight) for a in dist.atoms} == {Fraction}
    assert {a.weight for a in dist.atoms} == {Fraction(1, 5040)}


def test_expected_utilities_match_per_atom_reference():
    rng = random.Random(6160)
    kinds_seen, tags_seen = set(), set()
    unequal = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        kinds = [rng.choice(VALUATION_KINDS) for _ in range(n)]
        vals = [rand_valuation(rng, kind, m) for kind in kinds]
        kinds_seen.update(kinds)
        tags_seen.update(
            type(v.matroid).__name__ for v in vals if isinstance(v, MatroidValuation)
        )
        # small integer weights repeat, so atoms share weights unevenly
        raw = [rng.randint(1, 4) for _ in range(rng.randint(1, 8))]
        atoms = []
        for r in raw:
            owner = [rng.randrange(n + 1) for _ in range(m)]
            bundles = tuple(F(a for a, o in enumerate(owner) if o == v) for v in range(n))
            atoms.append(
                Atom(weight=Fraction(r, sum(raw)), allocation=Allocation(bundles, m), priority=())
            )
        unequal += len(set(raw)) > 1
        dist = OutcomeDistribution(tuple(atoms))
        got = expected_utilities(dist, vals)
        assert got == reference_expected_utilities(dist, vals), (vals, dist)
        assert all(type(x) is Fraction for x in got)
    assert kinds_seen == set(VALUATION_KINDS)
    assert len(tags_seen) == len(MATROID_TAGS)
    assert unequal >= 150


def test_each_report_is_set_up_once_per_exact_distribution(monkeypatch):
    # the supports are set up once for all n! orders (and, under meps, for
    # all held-out lists), not once per solve
    demands = [F({0, 1, 2}), F({1, 2}), F(), F({0, 3, 4})]
    n, m = len(demands), 5
    calls = count_free_supports(monkeypatch)
    run_meps(demand_reports(demands), m, 0)
    assert sorted(calls.values()) == [1] * n  # the reports' own FreeOver(d), once each
    calls.clear()
    reports = [FreeOver(d) for d in demands]
    supports = prepare_supports(reports, m)
    for sigma in permutations(range(n)):
        solve_prepared(reports, supports, sigma)
    assert [calls[id(r)] for r in reports] == [1] * n and len(calls) == n
    calls.clear()
    run_rpe(demand_reports(demands), m)
    # as under meps: sanitize_reports' universe check reads the demand, not the spec
    assert sorted(calls.values()) == [1] * n


def test_equal_allocations_of_one_distribution_are_one_object():
    # an exact walk builds each distinct allocation once and shares it
    rng = random.Random(2525)
    shared = 0
    for demands, m in _meps_cases(rng):
        reports = demand_reports(demands)
        for dist in (run_rpe(reports, m), run_meps(reports, m, 0)):
            objects: dict[Allocation, set[int]] = {}
            for atom in dist.atoms:
                objects.setdefault(atom.allocation, set()).add(id(atom.allocation))
            assert all(len(ids) == 1 for ids in objects.values()), (demands, m)
            shared += len(objects) < len(dist.atoms)
    assert shared >= 20
