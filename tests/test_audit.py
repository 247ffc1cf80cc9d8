import dataclasses
import random
from fractions import Fraction

import pytest

from audit_reference import (
    reference_check_envy,
    reference_check_lorenz_dominating,
    reference_check_stochastic_ef,
)
from conftest import additive_instance, matroid_instance, rand_matroid, rand_subset, rand_valuation
from egalloc.audit import (
    BoundWitness,
    EnvyWitness,
    FairnessReport,
    TailWitness,
    check_envy,
    check_lorenz_dominating,
    check_maximin_fair,
    check_stochastic_ef,
    efficiency_metrics,
    maximin_share,
    nsw_key,
)
from egalloc.errors import CapabilityError, PreconditionError, ValidationError
from egalloc.matroid import FreeOver, Partition
from egalloc.mechanisms import run_pe, run_rpe
from egalloc.model import Allocation, Atom, Instance, OutcomeDistribution
from egalloc.valuation import AdditiveDichotomous, MatroidValuation

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
    from egalloc.valuation import EpsLeveled, floor_round

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
        floors = [floor_round(v, eps, m=m) for v in raw]
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


def test_nsw_key_zero_handling():
    assert nsw_key((Fraction(0), Fraction(3))) < nsw_key((Fraction(1), Fraction(1)))
    assert nsw_key((Fraction(0), Fraction(0))) < nsw_key((Fraction(0), Fraction(3)))


def test_check_lorenz_dominating():
    inst = additive_instance([F({0, 1})] * 3)
    pe = run_pe(inst.valuations, inst.m)
    assert check_lorenz_dominating(pe, inst).all_hold

    hand = Allocation((F(), F({0, 1}), F()), 2)
    rep = check_lorenz_dominating(hand, inst)
    assert not rep.all_hold
    # the first enumerated vector with a larger prefix sum: (0, 1, 1) > (0, 0, 2) at k = 2
    assert rep.verdict("lorenz_dominating").witness == (
        (F({0}), F({1}), F()),
        (Fraction(0), Fraction(1), Fraction(1)),
    )

    solo = additive_instance([F({0})])
    assert check_lorenz_dominating(run_pe(solo.valuations, 1), solo).all_hold


def test_check_lorenz_dominating_matches_reference():
    # whole reports, witnesses included, on the engine's allocation and on
    # random ones (items to a random agent or to nobody) of seeded additive
    # and matroid instances
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
        allocations = [run_pe(inst.valuations, m)]
        for _ in range(3):
            owner = [rng.randrange(n + 1) for _ in range(m)]
            bundles = tuple(F(a for a, o in enumerate(owner) if o == v) for v in range(n))
            allocations.append(Allocation(bundles, m))
        for alloc in allocations:
            got = check_lorenz_dominating(alloc, inst)
            assert got == reference_check_lorenz_dominating(alloc, inst), (alloc, inst)
            checked += 1
            failing += not got.all_hold
    assert checked >= 1000
    assert 3 * failing >= checked, (failing, checked)


def test_stochastic_ef_contested_item():
    vals = [AdditiveDichotomous(F({0}))] * 2
    dist = run_rpe(vals, 1)
    rep = check_stochastic_ef(dist, vals)
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
    rep = check_stochastic_ef(dist, vals)
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
    assert check_stochastic_ef(dist, vals).holds("stochastic_ef")


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
        rep = check_stochastic_ef(dist, vals)
        assert rep.holds("stochastic_ef"), vals
        assert rep.holds("ex_ante_ef")
        assert rep.holds("ex_ante_proportional")


def test_stochastic_ef_matches_reference():
    # whole reports, witnesses and their types included, over seeded
    # distributions with unequal atom weights and all four valuation tags
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
        got = check_stochastic_ef(dist, vals)
        want = reference_check_stochastic_ef(dist, vals)
        assert got == want, (dist, vals)
        for (name, verdict), (_, ref) in zip(got.entries, want.entries):
            if verdict.holds:
                continue
            failures[name] += 1
            fields = dataclasses.astuple(verdict.witness)
            assert [type(x) for x in fields] == [type(x) for x in dataclasses.astuple(ref.witness)]
            assert all(type(x) is Fraction for x in fields if not isinstance(x, int))
    assert tags_seen == {"additive", "leveled", "matroid", "xos"}
    assert min(failures.values()) >= 20, failures
