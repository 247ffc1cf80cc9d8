import dataclasses
import random
from fractions import Fraction

import pytest

from audit_reference import (
    TailWitness,
    nsw_key,
    reference_check_envy,
    reference_check_lorenz_dominating,
    reference_check_stochastic_ef,
    reference_efficiency_metrics,
)
from conftest import (
    VALUATION_KINDS,
    additive_instance,
    matroid_instance,
    rand_matroid,
    rand_subset,
    rand_valuation,
)
from egalloc.audit import (
    BoundWitness,
    EnvyWitness,
    FairnessReport,
    check_envy,
    check_maximin_fair,
    efficiency_metrics,
    maximin_share,
)
from egalloc.errors import CapabilityError, PreconditionError, ValidationError
from egalloc.matroid import FreeOver, Partition, Uniform
from egalloc.lorenz import enumerate_optimal
from egalloc.mechanisms import expected_utilities, run_pe, run_rpe
from egalloc.model import Allocation, Atom, Instance, OutcomeDistribution
from egalloc.valuation import AdditiveDichotomous, MatroidValuation, evaluate, support

F = frozenset


def test_check_envy_examples():
    vals = [AdditiveDichotomous(F({0, 1, 2}))] * 2
    alloc = Allocation((F({0}), F({1, 2})), 3)
    assert check_envy(alloc, vals, "EFX").all_hold

    demands_both = [AdditiveDichotomous(F({0, 1}))] * 2
    skewed = Allocation((F(), F({0, 1})), 2)
    rep = check_envy(skewed, demands_both, "EF1")
    assert not rep.all_hold
    w = rep.verdict("EF1").witness
    assert isinstance(w, EnvyWitness)
    assert (w.envier, w.envied) == (0, 1)
    assert w.required == 1 and w.own_value == 0


def test_check_envy_alpha():
    vals = [AdditiveDichotomous(F({0, 1, 2}))] * 2
    alloc = Allocation((F({0}), F({1, 2})), 3)
    assert not check_envy(alloc, vals, "EF").all_hold
    assert check_envy(alloc, vals, "EF", alpha=Fraction(1, 2)).all_hold
    with pytest.raises(PreconditionError):
        check_envy(alloc, vals, "EF", alpha=0)


ENVY_MODE_SETS = (
    ("EF",), ("EF1",), ("EFX",), ("EF", "EF1", "EFX"), ("EFX", "EF"), ("EF1", "EFX", "EF1"),
)


def test_one_sweep_matches_per_mode_reference():
    # the whole report, witnesses included, against one reference sweep per mode
    rng = random.Random(4242)
    failures = {"EF": 0, "EF1": 0, "EFX": 0}
    tags_seen = set()
    empty_bundles = unallocated = 0
    for _ in range(600):
        n = rng.randint(1, 4)
        m = rng.randint(1, 7)
        tags = [rng.choice(("additive", "leveled", "matroid", "xos")) for _ in range(n)]
        tags_seen.update(tags)
        vals = [rand_valuation(rng, tag, m) for tag in tags]
        owner = [rng.randrange(n + rng.randint(0, 1)) for _ in range(m)]
        alloc = Allocation(
            tuple(F(a for a, o in enumerate(owner) if o == v) for v in range(n)), m
        )
        empty_bundles += any(not b for b in alloc.bundles)
        unallocated += bool(alloc.unallocated)
        for alpha in (1, Fraction(1, 2), Fraction(9, 10)):
            for modes in ENVY_MODE_SETS:
                got = check_envy(alloc, vals, modes, alpha)
                want = FairnessReport(
                    tuple(
                        reference_check_envy(alloc, vals, mode, alpha).entries[0]
                        for mode in modes
                    )
                )
                assert got == want, (alloc, vals, modes, alpha)
                for mode, verdict in got.entries:
                    if verdict.holds:
                        continue
                    w = verdict.witness
                    assert type(w.own_value) is Fraction and type(w.required) is Fraction
                    if len(modes) == 1:
                        failures[mode] += 1
            for mode in ("EF", "EF1", "EFX"):
                assert check_envy(alloc, vals, mode, alpha) == reference_check_envy(
                    alloc, vals, mode, alpha
                )
    assert tags_seen == {"additive", "leveled", "matroid", "xos"}
    assert empty_bundles >= 100 and unallocated >= 100
    assert min(failures.values()) >= 100, failures


def test_check_envy_values_only_the_owners_of_each_enviers_support(monkeypatch):
    import egalloc.audit as audit

    calls = []
    original = audit.value_functions

    def counting(spec):
        value, drop = original(spec)

        def counted_value(s):
            calls.append(None)
            return value(s)

        def counted_drop(s, whole, a):
            calls.append(None)
            return drop(s, whole, a)

        return counted_value, counted_drop

    monkeypatch.setattr(audit, "value_functions", counting)
    n = 300
    # everyone wants the one item, which agent 0 holds
    crowd = ([AdditiveDichotomous(F({0}))] * n, Allocation((F({0}),) + (F(),) * (n - 1), 1))
    # agent i holds item i and wants items i and i+1
    ring = (
        [MatroidValuation(Uniform(F({i, (i + 1) % n}), 1)) for i in range(n)],
        Allocation(tuple(F({i}) for i in range(n)), n),
    )
    for vals, alloc, ef_witness in (crowd + (EnvyWitness(1, 0, None, 0, 1),), ring + (None,)):
        calls.clear()
        report = check_envy(alloc, vals, ("EF", "EF1", "EFX"))
        assert report.verdict("EF").witness == ef_witness
        assert report.holds("EF1") and report.holds("EFX")
        assert len(calls) <= 3 * (n + sum(len(support(v)) for v in vals))


def test_check_envy_rejects_bad_modes():
    alloc = Allocation((F({0}), F()), 1)
    vals = [AdditiveDichotomous(F({0}))] * 2
    for modes in ("EF2", ("EF", "EFY"), ()):
        with pytest.raises(ValidationError):
            check_envy(alloc, vals, modes)


def test_efx_implies_ef1():
    rng = random.Random(55)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 5)
        vals = [MatroidValuation(rand_matroid(rng, m)) for _ in range(n)]
        owner = [rng.randrange(n + 1) for _ in range(m)]
        bundles = tuple(
            F(i for i, o in enumerate(owner) if o == v) for v in range(n)
        )
        alloc = Allocation(bundles, m)
        if check_envy(alloc, vals, "EFX").all_hold:
            assert check_envy(alloc, vals, "EF1").all_hold


def test_floor_ef1_implies_alpha_ef1_on_raw():
    # dichotomous verdict at alpha=1 transfers to the eps-leveled valuations at 1/(1+eps)
    from egalloc.mechanisms import floor_reports
    from egalloc.valuation import EpsLeveled

    rng = random.Random(66)
    for _ in range(40):
        n, m = 2, rng.randint(1, 5)
        eps = Fraction(1, m + 1 + rng.randint(0, 3))
        raw = []
        for _ in range(n):
            raw.append(
                EpsLeveled(
                    {
                        a: Fraction(0)
                        if rng.random() < 0.4
                        else 1 + eps * Fraction(rng.randint(0, 2), 2)
                        for a in range(m)
                    }
                )
            )
        floors = floor_reports(raw)
        owner = [rng.randrange(n + 1) for _ in range(m)]
        bundles = tuple(F(i for i, o in enumerate(owner) if o == v) for v in range(n))
        alloc = Allocation(bundles, m)
        if check_envy(alloc, floors, "EF1").all_hold:
            assert check_envy(alloc, raw, "EF1", alpha=Fraction(1, 1 + eps)).all_hold


def test_maximin_examples():
    assert maximin_share(AdditiveDichotomous(F(range(7))), 3, 7) == 2
    gap = MatroidValuation(Partition(((F({0, 1}), 2), (F({2, 3, 4, 5}), 2))))
    assert maximin_share(gap, 2, 6) == 3
    assert maximin_share(gap, 1, 6) == 4  # n=1: the whole universe


def test_maximin_dual_route_agreement():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(1, 3)
        m = rng.randint(1, 7)
        demand = F(a for a in range(m) if rng.random() < 0.7)
        closed = maximin_share(AdditiveDichotomous(demand), n, m)
        brute = maximin_share(MatroidValuation(FreeOver(demand)), n, m)
        assert closed == brute == len(demand) // n


def test_maximin_cap():
    big = MatroidValuation(FreeOver(F(range(11))))
    with pytest.raises(CapabilityError):
        maximin_share(big, 2, 11)


def test_efficiency_metrics_examples():
    vals = [AdditiveDichotomous(F({0, 1})), AdditiveDichotomous(F({2, 3}))]
    alloc = Allocation((F({0, 1}), F({2, 3})), 4)
    met = efficiency_metrics(alloc, vals, (0, 1))
    assert met.welfare == 4 and met.nsw == 4 and met.sum_squares == 8

    uneven = Allocation((F({0}), F({2, 3})), 4)
    met2 = efficiency_metrics(uneven, vals, (0, 1))
    assert met2.nsw == 2 and met2.utilities == (1, 2)
    assert nsw_key((Fraction(1), Fraction(3))) < nsw_key((Fraction(2), Fraction(2)))

    empty = Allocation((F(), F()), 4)
    met3 = efficiency_metrics(empty, vals, (0, 1))
    assert met3.welfare == 0 and met3.nsw == 0 and met3.sum_squares == 0


def test_efficiency_metrics_matches_reference():
    # The native-valued metrics against the all-Fraction body kept in
    # audit_reference, as whole objects, on random allocations of random
    # valuations of every kind (matroids of all six tags), with empty
    # bundles and zero utilities; every field but the int potential is a
    # Fraction.
    rng = random.Random(2024)
    kinds_seen, tags_seen, zero_nsw = set(), set(), 0
    for trial in range(360):
        n, m = rng.randint(1, 6), rng.randint(0, 12)
        kinds = [rng.choice(VALUATION_KINDS) for _ in range(n)]
        vals = [rand_valuation(rng, kind, m) for kind in kinds]
        kinds_seen.update(kinds)
        tags_seen.update(type(v.matroid).__name__ for v in vals if isinstance(v, MatroidValuation))
        owner = [rng.randrange(n + 1) for _ in range(m)]  # n: unallocated
        if trial % 10 == 0:
            owner = [n] * m
        bundles = tuple(F(a for a in range(m) if owner[a] == i) for i in range(n))
        alloc = Allocation(bundles, m)
        sigma = tuple(rng.sample(range(n), n))
        got = efficiency_metrics(alloc, vals, sigma)
        assert got == reference_efficiency_metrics(alloc, vals, sigma), trial
        fractions = [got.welfare, got.nsw, got.sum_squares, *got.utilities, *got.sorted_vector]
        assert all(type(x) is Fraction for x in fractions)
        assert type(got.potential) is int
        zero_nsw += got.nsw == 0
    assert kinds_seen == set(VALUATION_KINDS)
    assert tags_seen == {"FreeOver", "Uniform", "Partition", "Explicit", "Truncated", "Restricted"}
    assert 50 <= zero_nsw < 360


def test_nsw_key_zero_handling():
    assert nsw_key((Fraction(0), Fraction(3))) < nsw_key((Fraction(1), Fraction(1)))
    assert nsw_key((Fraction(0), Fraction(0))) < nsw_key((Fraction(0), Fraction(3)))


def test_check_lorenz_dominating():
    inst = additive_instance([F({0, 1})] * 3)
    pe = run_pe(inst.valuations, inst.m)
    assert reference_check_lorenz_dominating(pe, inst).all_hold

    hand = Allocation((F(), F({0, 1}), F()), 2)
    rep = reference_check_lorenz_dominating(hand, inst)
    assert not rep.all_hold
    # the first enumerated vector with a larger prefix sum: (0, 1, 1) > (0, 0, 2) at k = 2
    assert rep.verdict("lorenz_dominating").witness == (
        (F({0}), F({1}), F()),
        (Fraction(0), Fraction(1), Fraction(1)),
    )

    solo = additive_instance([F({0})])
    assert reference_check_lorenz_dominating(run_pe(solo.valuations, 1), solo).all_hold


def test_check_lorenz_dominating_matches_reference():
    # two routes to one verdict, on the engine's allocation and on random
    # ones (items to a random agent or to nobody) of seeded additive and
    # matroid instances: the reference's prefix-sum walk holds iff the
    # allocation's sorted utility vector is that of an allocation in
    # enumerate_optimal's Lorenz-dominating set
    rng = random.Random(6161)
    checked = failing = 0
    for trial in range(300):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        if trial % 2:
            inst = matroid_instance([rand_matroid(rng, m) for _ in range(n)], m)
        else:
            inst = Instance(
                item_names=tuple(f"i{j}" for j in range(m)),
                agent_names=tuple(f"a{j}" for j in range(n)),
                valuations=tuple(AdditiveDichotomous(rand_subset(rng, m)) for _ in range(n)),
            )
        res = enumerate_optimal(inst)
        dominating = {tuple(sorted(res.vectors[i])) for i in res.lorenz_dominating}
        allocations = [run_pe(inst.valuations, m)]
        for _ in range(3):
            owner = [rng.randrange(n + 1) for _ in range(m)]
            bundles = tuple(F(a for a, o in enumerate(owner) if o == v) for v in range(n))
            allocations.append(Allocation(bundles, m))
        for alloc in allocations:
            got = reference_check_lorenz_dominating(alloc, inst)
            own = tuple(sorted(alloc.utilities(inst.valuations)))
            assert got.all_hold == (own in dominating), (alloc, inst)
            if not got.all_hold:
                _, ranked = got.verdict("lorenz_dominating").witness
                assert ranked in {tuple(sorted(v)) for v in res.vectors}
            checked += 1
            failing += not got.all_hold
    assert checked >= 1000
    assert 3 * failing >= checked, (failing, checked)


def test_stochastic_ef_contested_item():
    vals = [AdditiveDichotomous(F({0}))] * 2
    dist = run_rpe(vals, 1)
    rep = reference_check_stochastic_ef(dist, vals)
    assert rep.holds("stochastic_ef")
    assert rep.holds("ex_ante_ef")
    assert rep.holds("ex_ante_proportional")


def _hand_rounding_distribution():
    # agent 1 always gets item a; agents 2 and 3 split {b,c} / {d,e} by a coin
    vals = [
        AdditiveDichotomous(F({0, 1, 2})),
        AdditiveDichotomous(F(range(5))),
        AdditiveDichotomous(F(range(5))),
    ]
    alloc1 = Allocation((F({0}), F({1, 2}), F({3, 4})), 5)
    alloc2 = Allocation((F({0}), F({3, 4}), F({1, 2})), 5)
    dist = OutcomeDistribution(
        (
            Atom(weight=Fraction(1, 2), allocation=alloc1, priority=(0, 1, 2)),
            Atom(weight=Fraction(1, 2), allocation=alloc2, priority=(0, 1, 2)),
        )
    )
    return vals, dist


def test_hand_rounding_is_ex_ante_ef_but_not_stochastically_ef():
    vals, dist = _hand_rounding_distribution()
    rep = reference_check_stochastic_ef(dist, vals)
    assert rep.holds("ex_ante_ef")
    assert not rep.holds("stochastic_ef")
    w = rep.verdict("stochastic_ef").witness
    assert isinstance(w, TailWitness)
    assert w.envier == 0
    assert w.threshold == 2
    assert w.own_tail == 0 and w.other_tail == Fraction(1, 2)
    # each ex-post realization is EFX, so the failure is purely distributional
    for atom in dist.atoms:
        assert check_envy(atom.allocation, vals, "EFX").all_hold


def test_rpe_is_stochastically_ef_on_the_hand_rounding_instance():
    vals = [
        AdditiveDichotomous(F({0, 1, 2})),
        AdditiveDichotomous(F(range(5))),
        AdditiveDichotomous(F(range(5))),
    ]
    dist = run_rpe(vals, 5)
    assert reference_check_stochastic_ef(dist, vals).holds("stochastic_ef")


def test_check_maximin_fair():
    vals = [AdditiveDichotomous(F({0, 1, 2, 3}))] * 2
    good = Allocation((F({0, 1}), F({2, 3})), 4)
    assert check_maximin_fair(good, vals).all_hold
    bad = Allocation((F({0, 1, 2}), F({3})), 4)
    rep = check_maximin_fair(bad, vals)
    assert not rep.all_hold
    assert isinstance(rep.verdict("maximin").witness, BoundWitness)


def test_rpe_stochastic_ef_on_random_mrf_instances():
    # four-agent instances exercise the priority-swap argument fully
    rng = random.Random(4040)
    for _ in range(20):
        n = rng.randint(2, 4)
        m = rng.randint(1, 5)
        vals = [MatroidValuation(rand_matroid(rng, m)) for _ in range(n)]
        dist = run_rpe(vals, m)
        rep = reference_check_stochastic_ef(dist, vals)
        assert rep.holds("stochastic_ef"), vals
        assert rep.holds("ex_ante_ef")
        assert rep.holds("ex_ante_proportional")


def _tail(dist, spec, agent, threshold):
    m = dist.atoms[0].allocation.m
    return sum(
        (a.weight for a in dist.atoms if evaluate(spec, a.allocation.bundles[agent], m) >= threshold),
        Fraction(0),
    )


def test_stochastic_ef_matches_reference():
    # the reference's verdicts over seeded distributions with unequal atom
    # weights and all four valuation tags; each failing witness is checked
    # on its own: a tail pair recounted atom by atom, and the own
    # expectation of a bound witness against expected_utilities
    rng = random.Random(5151)
    failures = {"stochastic_ef": 0, "ex_ante_ef": 0, "ex_ante_proportional": 0}
    tags_seen = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        tags = [rng.choice(("additive", "leveled", "matroid", "xos")) for _ in range(n)]
        tags_seen.update(tags)
        vals = [rand_valuation(rng, tag, m) for tag in tags]
        raw = [rng.randint(1, 9) for _ in range(rng.randint(1, 5))]
        atoms = []
        for w in raw:
            owner = [rng.randrange(n + rng.randint(0, 1)) for _ in range(m)]
            bundles = tuple(F(a for a, o in enumerate(owner) if o == v) for v in range(n))
            atoms.append(Atom(Fraction(w, sum(raw)), Allocation(bundles, m), tuple(range(n))))
        dist = OutcomeDistribution(tuple(atoms))
        rep = reference_check_stochastic_ef(dist, vals)
        expectations = expected_utilities(dist, vals)
        shares = [evaluate(v, F(range(m)), m) / n for v in vals]
        assert rep.holds("ex_ante_proportional") == all(e >= s for e, s in zip(expectations, shares))
        # tails that dominate at every threshold dominate in expectation
        assert rep.holds("ex_ante_ef") or not rep.holds("stochastic_ef")
        for name, verdict in rep.entries:
            if verdict.holds:
                continue
            failures[name] += 1
            w = verdict.witness
            fields = dataclasses.astuple(w)
            assert all(type(x) is Fraction for x in fields if not isinstance(x, int))
            if name == "stochastic_ef":
                assert isinstance(w, TailWitness) and w.envier != w.envied
                spec = vals[w.envier]
                assert w.own_tail == _tail(dist, spec, w.envier, w.threshold)
                assert w.other_tail == _tail(dist, spec, w.envied, w.threshold)
                assert w.own_tail < w.other_tail
            else:
                assert isinstance(w, BoundWitness)
                assert w.actual == expectations[w.agent] < w.bound
    assert tags_seen == {"additive", "leveled", "matroid", "xos"}
    assert min(failures.values()) >= 20, failures
