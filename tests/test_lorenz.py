import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from audit_reference import nsw_key, reference_check_lorenz_dominating
from conftest import (
    MATROID_TAGS,
    VALUATION_KINDS,
    additive_instance,
    matroid_instance,
    rand_explicit_matroid,
    rand_matroid,
    rand_matroid_of_tag,
    rand_subset,
    rand_valuation,
)
from egalloc import lorenz
from egalloc.audit import check_envy, maximin_share
from egalloc.errors import CapabilityError, ValidationError
from egalloc.io import instance_document
from egalloc.lorenz import (
    additive_balanced,
    compute_lorenz_dominating,
    enumerate_optimal,
    potential,
    prepare_supports,
)
from egalloc.matroid import FreeOver, Partition, Restricted, Truncated, Uniform
from egalloc.mechanisms import run_pe
from egalloc.model import Instance
from egalloc.valuation import AdditiveDichotomous, MatroidValuation, XosFamily
from enumeration_reference import reference_enumerate_optimal
from lorenz_reference import descent_lorenz, yankee_swap_reference

F = frozenset


def test_potential_examples():
    assert potential((1, 0), (0, 1)) == 13
    assert potential((0, 1), (0, 1)) == 17
    assert potential((1, 1, 0), (0, 1, 2)) == 50
    with pytest.raises(ValidationError):
        potential((1, -1), (0, 1))


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


def _bench_checker():
    """`bench/check.py`, imported from its file (it is not a package)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "check.py"
    spec = importlib.util.spec_from_file_location("bench_check", path)
    module = sys.modules["bench_check"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_engine_welfare_matches_the_bench_checker_past_the_enumeration_caps():
    # PE's allocation has maximum welfare.  bench/check.py computes that
    # maximum on its own (matroid partitioning over its own independence
    # tests, read from the instance document), so the two agree at sizes
    # no enumeration reaches, over every matroid tag.
    check = _bench_checker()
    rng = random.Random(2727)
    sizes = [(rng.randint(1, 12), rng.randint(1, 36)) for _ in range(200)] + [(50, 300)] * 10
    tags_seen = set()
    for n, m in sizes:
        tags = [rng.choice(MATROID_TAGS) for _ in range(n)]
        tags_seen.update(tags)
        inst = matroid_instance([rand_matroid_of_tag(rng, tag, m) for tag in tags], m)
        welfare = check.max_welfare(check.Reports.read(instance_document(inst)))
        assert run_pe(inst.valuations, m).total_items() == welfare, (n, m, tags)
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


def test_supports_are_clipped_to_the_universe_in_descending_id():
    # specs built in code may name items past m; the set-up drops them and
    # lists the rest in descending id, the path search's scan order
    assert prepare_supports([FreeOver(F({7, 0, 3, 12})), FreeOver(F({8}))], 8) == [[7, 3, 0], []]
    rng = random.Random(2323)
    for _ in range(60):
        m = rng.randint(1, 16)
        specs = [rand_matroid_of_tag(rng, tag, 2 * m + 3) for tag in MATROID_TAGS]
        for spec, support in zip(specs, prepare_supports(specs, m)):
            assert set(support) == spec.support() & F(range(m))
            assert support == sorted(set(support), reverse=True)


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


def test_engine_stops_searching_once_no_unowned_item_is_wanted(monkeypatch):
    # Every path ends at an unowned item of some agent's support, so once
    # all such items are owned no search can succeed and none may start.
    # Every search is counted, and so is every reference path: a turn
    # takes one item, so the items allocated minus the successful searches
    # are the direct takes, which must be the reference's one-item paths,
    # while the successful searches must be its longer ones.  Shapes of the
    # benchmark (additive 24x120 at density 0.15, mixed matroids 8x24) plus
    # agents capped by a uniform cap or full partition blocks, who leave
    # while wanted items remain: their failed searches still run, and
    # bundles equal the per-item search, which has no stop rule.
    import lorenz_reference

    searches = []  # (unowned support items left, item taken) per search
    paths = []  # the length of each path the reference applies
    search, transfer_path = lorenz._search, lorenz_reference._transfer_path

    def counting(i, reports, supports, bundles, owner, *rest):
        left = len(set().union(*supports) - owner.keys())
        taken = search(i, reports, supports, bundles, owner, *rest)
        searches.append((left, taken is not None))
        return taken

    def counting_reference(*args):
        path = transfer_path(*args)
        if path is not None:
            paths.append(len(path))
        return path

    monkeypatch.setattr(lorenz, "_search", counting)
    monkeypatch.setattr(lorenz_reference, "_transfer_path", counting_reference)
    rng = random.Random(1515)
    cases = []
    for _ in range(12):
        cases.append(([FreeOver(rand_subset(rng, 120, 0.15)) for _ in range(24)], 120))
    for trial in range(60):
        tags = [MATROID_TAGS[(trial + v) % len(MATROID_TAGS)] for v in range(8)]
        cases.append(([rand_matroid_of_tag(rng, tag, 24) for tag in tags], 24))
    for _ in range(20):
        pool = rand_subset(rng, 24, 0.5)
        capped = [Uniform(rand_subset(rng, 24, 0.5), rng.randint(1, 3)) for _ in range(4)]
        blocks = [Partition(((pool, rng.randint(1, 2)), (F(range(24)) - pool, 1)))] * 4
        cases.append((capped + blocks, 24))
    allocated = 0
    for mats, m in cases:
        n = len(mats)
        sigma = tuple(rng.sample(range(n), n))
        got = compute_lorenz_dominating(mats, m, sigma)
        assert got.bundles == yankee_swap_reference(mats, m, sigma).bundles
        allocated += got.total_items()
    found = sum(1 for _, found in searches if found)
    assert searches and all(left for left, _ in searches)
    assert found == sum(1 for length in paths if length >= 2)
    assert allocated - found == paths.count(1)
    assert sum(1 for left, found in searches if left and not found) >= 50


def test_enumerate_examples():
    inst = additive_instance([F({0}), F({0})])
    res = enumerate_optimal(inst)
    assert len(res.lorenz_dominating) == 2
    assert {tuple(sorted(res.vectors[i])) for i in res.lorenz_dominating} == {
        (Fraction(0), Fraction(1))
    }

    ex = additive_instance([F({0, 1})] * 3, priority=None)
    res = enumerate_optimal(ex)
    assert {res.vectors[i] for i in res.min_potential} == {(Fraction(1), Fraction(1), Fraction(0))}

    # an empty demand: only the all-unallocated assignment is non-redundant
    res = enumerate_optimal(additive_instance([F()]))
    assert len(res.allocations) == 1
    assert res.min_potential == (0,)
    assert type(res.min_potential_value) is int

    with pytest.raises(CapabilityError):
        enumerate_optimal(additive_instance([F(range(7))]))


def test_enumerate_counts_nonredundant_only():
    inst = additive_instance([F({0})], priority=None)
    res = enumerate_optimal(inst)
    # item 0 to the agent or unallocated; a redundant extra item never appears
    assert len(res.allocations) == 2


def _enumeration_instance(rng, k):
    """Instance k of the differential grid: every hundredth at both caps,
    every tenth with one item and every tenth with one agent; the rest keep
    (n + 1)^m, the assignments scanned, within 1,024."""
    if k % 100 == 0:
        n, m = 4, 6
    elif k % 10 == 1:
        n, m = rng.randint(1, 4), 1
    elif k % 10 == 2:
        n, m = 1, rng.randint(1, 6)
    else:
        n, m = 4, 6
        while (n + 1) ** m > 1024:
            n, m = rng.randint(1, 4), rng.randint(1, 6)
    valuations = []
    for v in range(n):
        kind = VALUATION_KINDS[(k + v) % len(VALUATION_KINDS)]
        if kind == "matroid":
            tag = MATROID_TAGS[(k + v) % len(MATROID_TAGS)]
            valuations.append(MatroidValuation(rand_matroid_of_tag(rng, tag, m)))
        else:
            valuations.append(rand_valuation(rng, kind, m))
    priority = rng.sample(range(n), n)
    names = (tuple(f"i{j}" for j in range(m)), tuple(f"a{j}" for j in range(n)))
    return Instance(*names, tuple(valuations), priority=priority)


def test_enumerate_matches_reference():
    rng = random.Random(14)
    proper_pareto = no_lorenz = 0
    for k in range(600):
        inst = _enumeration_instance(rng, k)
        res = enumerate_optimal(inst)
        assert res == reference_enumerate_optimal(inst), k
        assert type(res.max_welfare) is Fraction
        assert all(type(u) is Fraction for vec in res.vectors for u in vec)
        proper_pareto += len(res.pareto) < len(res.vectors)
        no_lorenz += not res.lorenz_dominating
    assert proper_pareto >= 50 and no_lorenz >= 20


def test_pruned_walk_matches_reference_at_the_caps():
    # At both caps (4 agents, 6 items): dense cases, where the walk cuts few
    # or no branches, list as many allocations as the reference's scan of
    # all 5^6 assignments keeps; disjoint singletons, where it cuts almost
    # every branch, leave only the 2^4 choices of who takes their own item.
    whole = F(range(6))
    names = (tuple(f"i{j}" for j in range(6)), ("a0", "a1", "a2", "a3"))
    dense = [
        (AdditiveDichotomous(whole),) * 4,
        (MatroidValuation(Uniform(whole, 2)),) * 4,
        (XosFamily((F({0, 1, 2}), F({3, 4, 5}))),) * 4,
    ]
    sizes = []
    for valuations in dense + [tuple(AdditiveDichotomous(F({v})) for v in range(4))]:
        inst = Instance(*names, valuations, priority=(2, 0, 3, 1))
        res = enumerate_optimal(inst)
        assert res == reference_enumerate_optimal(inst)
        sizes.append(len(res.allocations))
    assert sizes[0] == 5**6 and sizes[-1] == 2**4


def test_matroid_path_matches_enumeration():
    rng = random.Random(2025)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 5)
        mats = [rand_matroid(rng, m) for _ in range(n)]
        inst = matroid_instance(mats, m)
        res = enumerate_optimal(inst)
        vecs = {res.vectors[i] for i in res.min_potential}
        assert len(vecs) == 1, "minimum-potential utility vector must be unique"
        alloc = compute_lorenz_dominating(mats, m)
        assert alloc.utilities(inst.valuations) == next(iter(vecs))
        assert reference_check_lorenz_dominating(alloc, inst).all_hold


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


def test_failed_searches_are_not_repeated(monkeypatch):
    # k agents share k items and an outsider demands k private items: after
    # round one every group agent's search fails, while the outsider keeps
    # unowned items wanted.  Repeating that failed search for each group
    # agent expands every group holder each time, k^2 expansions of k-item
    # supports; skipping dead items expands each holder about once
    expansions = []
    original = FreeOver.swap_filter

    def counting(self, own, g):
        expansions.append(g)
        return original(self, own, g)

    monkeypatch.setattr(FreeOver, "swap_filter", counting)
    counts = {}
    for k in (40, 80):
        mats = [FreeOver(F(range(k)))] * k + [FreeOver(F(range(k, 2 * k)))]
        for outsider_first in (False, True):
            sigma = tuple(range(k + 1))[::-1] if outsider_first else None
            expansions.clear()
            got = compute_lorenz_dominating(mats, 2 * k, sigma)
            counts[k, outsider_first] = len(expansions)
            assert got.bundles == yankee_swap_reference(mats, 2 * k, sigma).bundles
            assert got.profile() == (1,) * k + (k,)
            # linear in the agents and items, k + 1 and 2k; the first failed
            # search of a group agent expands each other group holder
            assert k - 1 <= counts[k, outsider_first] <= 3 * k + 1, (k, outsider_first, counts)
    for outsider_first in (False, True):
        assert counts[80, outsider_first] <= 2.2 * counts[40, outsider_first], counts


def test_a_direct_take_keeps_failed_searches_dead(monkeypatch):
    # a: {0,1}, b: {2..7}, c and d: {0,1}.  Round one: a takes 1, b takes 7,
    # c takes 0, and d's search fails, discovering 0 and 1.  Round two: a
    # searches, b takes 6 directly, c searches.  No dead item led to 6 and
    # b's larger bundle gains no exchange, so 0 and 1 stay dead: a's and
    # c's searches skip them and expand nothing, where c's search would
    # expand both holders again had b's take cleared them
    expansions = []
    original = FreeOver.swap_filter

    def counting(self, own, g):
        expansions.append(g)
        return original(self, own, g)

    monkeypatch.setattr(FreeOver, "swap_filter", counting)
    pair = FreeOver(F({0, 1}))
    mats = [pair, FreeOver(F(range(2, 8))), pair, pair]
    got = compute_lorenz_dominating(mats, 8)
    assert got.bundles == yankee_swap_reference(mats, 8).bundles
    assert got.bundles == (F({1}), F(range(2, 8)), F({0}), F())
    assert len(expansions) == 2
