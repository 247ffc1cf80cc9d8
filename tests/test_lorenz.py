import random
from fractions import Fraction

import pytest

from conftest import (
    MATROID_TAGS,
    additive_instance,
    matroid_instance,
    rand_explicit_matroid,
    rand_matroid,
    rand_matroid_of_tag,
    rand_subset,
)
from egalloc.audit import check_envy, maximin_share, nsw_key
from egalloc.errors import CapabilityError, ValidationError
from egalloc.lorenz import (
    LorenzRelation,
    additive_balanced,
    compute_lorenz_dominating,
    enumerate_optimal,
    greedy_welfare,
    lorenz_compare,
    potential,
)
from egalloc.matroid import FreeOver, Partition, Restricted, Truncated, Uniform
from egalloc.mechanisms import run_pe
from egalloc.valuation import AdditiveDichotomous, MatroidValuation
from lorenz_reference import descent_lorenz, yankee_swap_reference

F = frozenset


def test_potential_examples():
    assert potential((1, 0), (0, 1)) == 13
    assert potential((0, 1), (0, 1)) == 17
    assert potential((1, 1, 0), (0, 1, 2)) == 50
    with pytest.raises(ValidationError):
        potential((1, -1), (0, 1))


def test_lorenz_compare_examples():
    two = [Fraction(2), Fraction(2)]
    onethree = [Fraction(1), Fraction(3)]
    assert lorenz_compare(two, onethree) is LorenzRelation.DOMINATES
    assert lorenz_compare(onethree, two) is LorenzRelation.DOMINATED
    assert lorenz_compare([Fraction(0), Fraction(3)], [Fraction(1), Fraction(1)]) is (
        LorenzRelation.INCOMPARABLE
    )
    assert lorenz_compare(two, two) is LorenzRelation.EQUAL
    with pytest.raises(ValidationError):
        lorenz_compare([Fraction(1)], two)


def test_compute_lorenz_examples():
    both = F({0, 1})
    alloc = compute_lorenz_dominating([FreeOver(both)] * 3, 2)
    assert alloc.profile() == (1, 1, 0)

    gap1 = Partition(((F({0, 1}), 2), (F({2, 3, 4, 5}), 2)))
    gap2 = FreeOver(F({0, 1}))
    alloc = compute_lorenz_dominating([gap1, gap2], 6)
    assert alloc.profile() == (2, 2)

    solo = compute_lorenz_dominating([FreeOver(F(range(5)))], 5)
    assert solo.profile() == (5,)


def test_greedy_welfare_examples():
    mats = [Uniform(F({0, 1}), 1), FreeOver(F({0, 1}))]
    assert greedy_welfare(mats, 2).profile() == (1, 1)
    assert greedy_welfare(mats, 2, sigma=(1, 0)).profile() == (0, 2)
    assert greedy_welfare([FreeOver(F())] * 3, 2).profile() == (0, 0, 0)


def test_greedy_prefix_welfare_is_maximal():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 3)
        m = rng.randint(1, 5)
        mats = [rand_matroid(rng, m) for _ in range(n)]
        alloc = greedy_welfare(mats, m)
        prefix = 0
        for i in range(n):
            prefix += len(alloc.bundles[i])
            sub = matroid_instance(mats[: i + 1], m)
            best = enumerate_optimal(sub).max_welfare
            assert prefix == best


def test_additive_balanced_examples():
    abc = F({0, 1, 2})
    assert additive_balanced([abc, abc], 3).profile() == (2, 1)
    assert additive_balanced([F({0, 1})] * 3, 2).profile() == (1, 1, 0)
    disjoint = [F({0}), F({1, 2})]
    alloc = additive_balanced(disjoint, 3)
    assert alloc.bundles == (F({0}), F({1, 2}))


def test_engine_matches_descent_beyond_enumeration_caps():
    # Differential check past the enumeration caps (n <= 4, m <= 6): the
    # Yankee Swap engine against the potential descent kept in
    # lorenz_reference, on seeded instances with every matroid tag and
    # random priorities.  Additive demand sets are one more input, through
    # the additive_balanced adapter.
    rng = random.Random(4242)
    tags_seen = set()
    for trial in range(48):
        n = rng.randint(1, 8)
        m = rng.randint(1, 24)
        if trial % 8 == 0:
            n, m = 8, 24
        sigma = tuple(rng.sample(range(n), n))
        tags = [rng.choice(MATROID_TAGS) for _ in range(n)]
        tags_seen.update(tags)
        mats = [rand_matroid_of_tag(rng, tag, m) for tag in tags]
        alloc = compute_lorenz_dominating(mats, m, sigma)
        assert all(spec.is_independent(b) for spec, b in zip(mats, alloc.bundles))
        assert alloc.profile() == descent_lorenz(mats, m, sigma).profile()

        density = rng.choice((0.3, 0.6))
        demands = [rand_subset(rng, m, density) for _ in range(n)]
        fast = additive_balanced(demands, m, sigma)
        assert all(b <= d for b, d in zip(fast.bundles, demands))
        reference = descent_lorenz([FreeOver(d) for d in demands], m, sigma)
        assert fast.profile() == reference.profile()
    assert tags_seen == set(MATROID_TAGS)


def test_engine_bundles_match_per_item_search():
    # The exchange-predicate search against the per-item search kept in
    # lorenz_reference: same bundles, not just the same profile.  Instances
    # with one tag throughout make holders share swap keys often; mixed
    # ones, additive demand sets and truncated or restricted explicit
    # families cover the rest.
    rng = random.Random(8080)
    tags_seen = set()
    for trial in range(160):
        n = rng.randint(1, 10)
        m = rng.randint(1, 30)
        if trial % 10 == 0:
            n, m = 10, 30
        sigma = tuple(rng.sample(range(n), n))
        if trial % 4 == 0:
            tags = [rng.choice(MATROID_TAGS)] * n
        else:
            tags = [rng.choice(MATROID_TAGS) for _ in range(n)]
        tags_seen.update(tags)
        mats = [rand_matroid_of_tag(rng, tag, m) for tag in tags]
        if trial % 8 == 3:
            inner = rand_explicit_matroid(rng, min(m, 6))
            mats[0] = Truncated(inner, rng.randint(1, 4))
            mats[-1] = Restricted(inner, rand_subset(rng, m))
        got = compute_lorenz_dominating(mats, m, sigma)
        assert got.bundles == yankee_swap_reference(mats, m, sigma).bundles, trial

        demands = [rand_subset(rng, m, rng.choice((0.15, 0.3, 0.6))) for _ in range(n)]
        got = additive_balanced(demands, m, sigma)
        want = yankee_swap_reference([FreeOver(d) for d in demands], m, sigma)
        assert got.bundles == want.bundles, trial
    assert tags_seen == set(MATROID_TAGS)


def test_engine_asks_free_and_uniform_specs_no_independence_oracle(monkeypatch):
    rng = random.Random(77)
    cases = []
    for _ in range(6):
        n, m = rng.randint(2, 8), rng.randint(4, 24)
        sigma = tuple(rng.sample(range(n), n))
        demands = [rand_subset(rng, m, 0.4) for _ in range(n)]
        additive = [AdditiveDichotomous(d) for d in demands]
        uniform = [MatroidValuation(Uniform(d, rng.randint(0, 4))) for d in demands]
        for reports in (additive, uniform):
            cases.append((reports, m, sigma, run_pe(reports, m, sigma)))

    def refuse(self, s):
        raise AssertionError("the engine asked is_independent")

    monkeypatch.setattr(FreeOver, "is_independent", refuse)
    monkeypatch.setattr(Uniform, "is_independent", refuse)
    for reports, m, sigma, before in cases:
        assert run_pe(reports, m, sigma) == before


def test_enumerate_examples():
    inst = additive_instance([F({0}), F({0})])
    res = enumerate_optimal(inst)
    assert len(res.lorenz_dominating) == 2
    assert {tuple(sorted(res.vectors[i])) for i in res.lorenz_dominating} == {
        (Fraction(0), Fraction(1))
    }

    ex = additive_instance([F({0, 1})] * 3, priority=None)
    res = enumerate_optimal(ex)
    assert res.min_potential_vectors() == {(Fraction(1), Fraction(1), Fraction(0))}

    with pytest.raises(CapabilityError):
        enumerate_optimal(additive_instance([F(range(7))]))


def test_enumerate_counts_nonredundant_only():
    inst = additive_instance([F({0})], priority=None)
    res = enumerate_optimal(inst)
    # item 0 to the agent or unallocated; a redundant extra item never appears
    assert len(res.allocations) == 2


def test_matroid_path_matches_enumeration():
    rng = random.Random(2025)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 5)
        mats = [rand_matroid(rng, m) for _ in range(n)]
        inst = matroid_instance(mats, m)
        res = enumerate_optimal(inst)
        vecs = res.min_potential_vectors()
        assert len(vecs) == 1, "minimum-potential utility vector must be unique"
        alloc = compute_lorenz_dominating(mats, m)
        assert alloc.utilities(inst.valuations) == next(iter(vecs))
        own = tuple(sorted(alloc.utilities(inst.valuations)))
        for vec in res.vectors:
            assert lorenz_compare(own, tuple(sorted(vec))) in (
                LorenzRelation.DOMINATES,
                LorenzRelation.EQUAL,
            )


def test_fairness_bundle_against_enumeration():
    rng = random.Random(321)
    for _ in range(40):
        n = rng.randint(1, 3)
        m = rng.randint(1, 5)
        mats = [rand_matroid(rng, m) for _ in range(n)]
        inst = matroid_instance(mats, m)
        alloc = compute_lorenz_dominating(mats, m)
        vec = alloc.utilities(inst.valuations)
        res = enumerate_optimal(inst)
        assert sum(vec) == res.max_welfare
        best_sorted = max(tuple(sorted(v)) for v in res.vectors)
        assert tuple(sorted(vec)) == best_sorted  # lex-min maximal
        welfare_max = [v for v in res.vectors if sum(v) == res.max_welfare]
        assert sum(x * x for x in vec) == min(
            sum(x * x for x in v) for v in welfare_max
        )  # min-square
        assert nsw_key(vec) == max(nsw_key(v) for v in res.vectors)
        assert check_envy(alloc, inst.valuations, "EFX").all_hold


def test_additive_maximin_floor():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 6)
        demands = [F(a for a in range(m) if rng.random() < 0.7) for _ in range(n)]
        alloc = additive_balanced(demands, m)
        for v in range(n):
            assert len(alloc.bundles[v]) >= len(demands[v]) // n


def test_mrf_half_maximin():
    rng = random.Random(10)
    for _ in range(25):
        n = rng.randint(1, 3)
        m = rng.randint(1, 5)
        mats = [rand_matroid(rng, m) for _ in range(n)]
        alloc = compute_lorenz_dominating(mats, m)
        for v in range(n):
            share = maximin_share(MatroidValuation(mats[v]), n, m)
            assert Fraction(len(alloc.bundles[v])) >= share / 2


def test_non_additive_report_error():
    with pytest.raises(ValidationError):
        additive_balanced([F({9})], 2)


def test_enumerate_xos_instance():
    from egalloc.valuation import XosFamily
    from egalloc.model import Instance

    t = F({1, 2, 3})
    inst = Instance(
        item_names=("i0", "i1", "i2", "i3"),
        agent_names=("a0", "a1"),
        valuations=(XosFamily((t, F({0}))), XosFamily((t,))),
    )
    res = enumerate_optimal(inst)
    assert res.max_welfare == 4
    # welfare maximization forces the 1 / 3 utility split
    assert {tuple(res.vectors[i]) for i in res.min_potential} == {
        (Fraction(1), Fraction(3))
    }
    assert {tuple(res.vectors[i]) for i in res.lorenz_dominating} == {
        (Fraction(1), Fraction(3))
    }


def test_enumerate_leveled_instance_without_lorenz_dominating_allocation():
    # one agent values both items slightly above the other: welfare
    # maximization and equalization pull apart, so no allocation
    # Lorenz-dominates every other one
    from egalloc.valuation import EpsLeveled
    from egalloc.model import Instance

    eps = Fraction(1, 100)
    inst = Instance(
        item_names=("i0", "i1"),
        agent_names=("a0", "a1"),
        valuations=(
            EpsLeveled({0: 1 + eps, 1: 1 + eps}),
            EpsLeveled({0: 1, 1: 1}),
        ),
        epsilon=eps,
    )
    res = enumerate_optimal(inst)
    assert res.max_welfare == 2 + 2 * eps
    assert res.lorenz_dominating == ()
