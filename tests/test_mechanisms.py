import math
import random
from fractions import Fraction

import pytest

from conftest import MATROID_TAGS, VALUATION_KINDS, rand_subset, rand_valuation
from egalloc.errors import CapabilityError, ValidationError
from egalloc.matroid import ZERO_MATROID, Explicit, Partition, Truncated, Uniform
from egalloc.mechanisms import (
    MEPS_EXACT_MAX_ATOMS,
    expected_utilities,
    held_out_outcomes,
    run_meps,
    run_mx,
    run_pe,
    run_rpe,
    sample_meps,
    sample_rpe,
    sanitize_reports,
)
from egalloc.model import Allocation, Atom, OutcomeDistribution
from egalloc.valuation import AdditiveDichotomous, MatroidValuation, XosFamily
from meps_reference import reference_expected_utilities, reference_run_meps

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


def test_meps_eps_validation():
    with pytest.raises(ValidationError):
        run_meps([F({0, 1, 2})] * 2, 3, Fraction(1, 54))  # needs < 1/54
    run_meps([F({0, 1, 2})] * 2, 3, Fraction(1, 60))  # fine


def test_meps_report_outside_universe():
    with pytest.raises(ValidationError):
        run_meps([F({7})], 3, 0)
    with pytest.raises(ValidationError):  # no agents: the eps bound 1/(n*m^3) is undefined
        run_meps([], 3, 0)


def test_meps_exact_atom_structure():
    dist = run_meps([F({0, 1, 2})] * 2, 3, Fraction(1, 60))
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
    dist = run_meps([F({0}), F({0})], 1, 0)
    assert len(dist.atoms) == 2
    assert all(a.held_out == (0,) for a in dist.atoms)


def test_meps_reasonable_on_every_atom():
    demands = [F({0, 1}), F({1, 2})]
    dist = run_meps(demands, 3, Fraction(1, 100))
    reported = demands[0] | demands[1]
    for atom in dist.atoms:
        allocated = F().union(*atom.allocation.bundles)
        assert allocated == reported  # maximal size
        for v in range(2):
            assert atom.allocation.bundles[v] <= demands[v]  # non-redundant


def test_meps_sampled_reproducible():
    demands = [F({0, 1, 2}), F({0, 2})]
    a = sample_meps(demands, 3, Fraction(1, 60), seed=11)
    b = sample_meps(demands, 3, Fraction(1, 60), seed=11)
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
    dist = run_meps(demands, 3, Fraction(1, 60))
    for v, exp in enumerate(expected_utilities(dist, vals)):
        assert exp >= Fraction(len(demands[v]), 2)


def test_distribution_weights_must_sum_to_one():
    vals = [AdditiveDichotomous(F({0}))] * 2
    dist = run_rpe(vals, 1)
    atom = dist.atoms[0]
    with pytest.raises(ValidationError):
        OutcomeDistribution((atom,))


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
        alloc, held_out, sigma = sample_meps(demands, 3, Fraction(1, 60), seed=seed)
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
    original = mechanisms.compute_lorenz_dominating

    def counting(reports, m, sigma=None):
        solves.append(sigma)
        return original(reports, m, sigma)

    rng = random.Random(5150)
    undemanded = 0
    for demands, m in _meps_cases(rng):
        n = len(demands)
        demanded = F().union(*demands)
        undemanded += len(demanded) < m
        solves.clear()
        monkeypatch.setattr(mechanisms, "compute_lorenz_dominating", counting)
        dist = run_meps(demands, m, 0)
        monkeypatch.setattr(mechanisms, "compute_lorenz_dominating", original)
        want = reference_run_meps(demands, m)
        assert dist.atoms == want.atoms, (demands, m)
        # one PE solve per (sigma, X ∩ ∪demands)
        parts = {F(x) & demanded for x, _ in held_out_outcomes(m)}
        assert len(solves) == math.factorial(n) * len(parts), (demands, m)
        # a sampled realization is the exact atom with the same (X, sigma)
        by_trace = {(a.held_out, a.priority): a.allocation for a in want.atoms}
        for seed in range(3):
            alloc, held_out, sigma = sample_meps(demands, m, 0, seed=seed)
            assert alloc == by_trace[(held_out, sigma)]
    assert undemanded >= 10


def test_exact_meps_cap_counts_atoms(monkeypatch):
    import egalloc.mechanisms as mechanisms

    def refuse(*args):
        raise AssertionError("enumerated past the cap")

    monkeypatch.setattr(mechanisms, "held_out_outcomes", refuse)
    # 5 agents: 9 items make 9,720 atoms, 10 items 12,000
    assert 9 * 9 * 120 <= MEPS_EXACT_MAX_ATOMS < 10 * 10 * 120
    with pytest.raises(CapabilityError):
        run_meps([F(range(10))] * 5, 10, 0)
    with pytest.raises(CapabilityError):
        run_meps([F({0})] * 7, 2, 0)
    monkeypatch.undo()
    dist = run_meps([F({0})] * 7, 1, 0)  # 5,040 atoms
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
