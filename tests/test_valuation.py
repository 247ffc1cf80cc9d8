import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_matroid, rand_subset, rand_valuation
from egalloc.errors import ValidationError
from egalloc.matroid import Explicit, brute_force_rank
from egalloc.valuation import (
    AdditiveDichotomous,
    EpsLeveled,
    MatroidValuation,
    XosFamily,
    as_value,
    evaluate,
    floor_round,
    validate,
    value_functions,
)

F = frozenset


def test_evaluate_examples():
    add = AdditiveDichotomous(F({0, 2}))
    assert evaluate(add, F({0, 1, 2})) == 2
    assert evaluate(add, F()) == 0
    lev = EpsLeveled({0: Fraction(10001, 10000), 1: Fraction(10002, 10000)})
    assert evaluate(lev, F({0, 1})) == Fraction(20003, 10000)
    assert evaluate(lev, F()) == 0
    xos = XosFamily((F({0, 1}), F({2})))
    assert evaluate(xos, F({0, 2})) == 1
    assert evaluate(xos, F({0, 1, 2})) == 2


def test_evaluate_range_check():
    with pytest.raises(ValidationError):
        evaluate(AdditiveDichotomous(F({0})), F({5}), m=3)


def test_floor_round_examples():
    lev = EpsLeveled({0: 1, 1: Fraction(10003, 10000)})
    floored = floor_round(lev, Fraction(1, 100), m=2)
    assert floored == AdditiveDichotomous(F({0, 1}))
    add = AdditiveDichotomous(F({3}))
    assert floor_round(add) is add
    # floor of the evaluated sum matches evaluating the floor
    assert evaluate(floored, F({0, 1})) == 2
    raw = evaluate(lev, F({0, 1}))
    assert raw == Fraction(20003, 10000)
    assert int(raw) == 2


def test_floor_round_eps_bound():
    lev = EpsLeveled({0: 1})
    with pytest.raises(ValidationError):
        floor_round(lev, Fraction(1, 2), m=2)
    with pytest.raises(ValidationError):
        floor_round(lev, Fraction(1, 100))  # m required


def test_floor_pointwise_and_obs_bound():
    rng = random.Random(3)
    for _ in range(40):
        m = rng.randint(1, 8)
        eps = Fraction(1, m + rng.randint(1, 5))
        if eps >= Fraction(1, m):
            eps = Fraction(1, m + 1)
        values = {}
        for a in range(m):
            r = rng.random()
            if r < 0.4:
                values[a] = Fraction(0)
            else:
                values[a] = 1 + eps * Fraction(rng.randint(0, 4), 4)
        lev = EpsLeveled(values)
        hat = floor_round(lev, eps, m=m)
        for mask in range(1 << m):
            s = F(i for i in range(m) if mask >> i & 1)
            raw = evaluate(lev, s)
            low = evaluate(hat, s)
            assert low == Fraction(int(raw))  # floor identity
            assert raw <= (1 + eps) * low or low == 0 and raw == 0
            if low == 0:
                assert raw == 0  # eps < 1/m forbids fractional-only mass


def test_floor_round_idempotent():
    lev = EpsLeveled({0: 1, 2: Fraction(101, 100)})
    once = floor_round(lev, Fraction(1, 50), m=4)
    assert floor_round(once, Fraction(1, 50), m=4) == once


def test_validate_examples():
    bad = EpsLeveled({0: Fraction(1, 2)})
    violation = validate(bad, Fraction(1, 100), m=1)
    assert violation is not None
    assert violation.witness[0] == 0
    assert validate(AdditiveDichotomous(F({0})), 0, m=2) is None
    nonmatroid = MatroidValuation(Explicit(F({F({0}), F({1, 2})})))
    assert validate(nonmatroid, 0, m=3) is not None


def test_negative_and_float_values_rejected():
    with pytest.raises(ValidationError):
        EpsLeveled({0: Fraction(-1)})
    with pytest.raises(ValidationError):
        EpsLeveled({0: 1.5})


def test_every_rational_boundary_rejects_floats():
    from egalloc.audit import check_envy, check_maximin_fair
    from egalloc.mechanisms import run_meps, run_pe, sample_meps

    demands = [F({0, 1}), F({0})]
    vals = [AdditiveDichotomous(d) for d in demands]
    alloc = run_pe(vals, 2)
    # 0.001 lies below the eps bound 1/(n*m^3) = 1/16 and 0.5 inside (0, 1]
    calls = [
        lambda: run_meps(demands, 2, 0.001),
        lambda: sample_meps(demands, 2, 0.001, seed=1),
        lambda: check_envy(alloc, vals, "EF1", alpha=0.5),
        lambda: check_maximin_fair(alloc, vals, alpha=0.5),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="floats are rejected"):
            call()


def test_decimal_exponent_cap_admits_its_limit_and_refuses_one_more():
    assert as_value("1e4300") == 10**4300
    assert as_value("1E-4300") == Fraction(1, 10**4300)
    assert as_value("2.5e+3") == as_value("2_5e2") == 2500
    for literal in ("1e4301", "1e-4301", "1E+4301", "2e" + "9" * 5000):
        with pytest.raises(ValidationError, match="bad rational literal"):
            as_value(literal)


def test_xos_family_nonempty():
    with pytest.raises(ValidationError):
        XosFamily(())


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_monotone_chain(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    m = data.draw(st.integers(1, 6))
    kind = data.draw(st.sampled_from(["add", "matroid", "eps", "xos"]))
    if kind == "add":
        spec = AdditiveDichotomous(F(a for a in range(m) if rng.random() < 0.5))
    elif kind == "matroid":
        spec = MatroidValuation(rand_matroid(rng, m))
    elif kind == "eps":
        spec = EpsLeveled(
            {a: Fraction(0) if rng.random() < 0.5 else 1 + Fraction(rng.randint(0, 3), 100)
             for a in range(m)}
        )
    else:
        spec = XosFamily(
            tuple(F(a for a in range(m) if rng.random() < 0.5) for _ in range(3)) or (F(),)
        )
    items = list(range(m))
    rng.shuffle(items)
    cut1, cut2 = sorted((rng.randint(0, m), rng.randint(0, m)))
    small, large = F(items[:cut1]), F(items[:cut2])
    assert evaluate(spec, F()) == 0
    assert 0 <= evaluate(spec, small) <= evaluate(spec, large)


def test_matroid_marginals_dichotomous_and_submodular():
    rng = random.Random(31)
    for _ in range(12):
        m = rng.randint(1, 6)
        spec = MatroidValuation(rand_matroid(rng, m))
        subsets = [F(i for i in range(m) if mask >> i & 1) for mask in range(1 << m)]
        for s in subsets:
            for t in subsets:
                if not s <= t:
                    continue
                for a in range(m):
                    if a in t:
                        continue
                    ms = evaluate(spec, s | {a}) - evaluate(spec, s)
                    mt = evaluate(spec, t | {a}) - evaluate(spec, t)
                    assert ms in (0, 1) and mt in (0, 1)
                    assert ms >= mt


def _written_out_value(spec, s):
    # each tag's rule, written independently of the library
    if isinstance(spec, AdditiveDichotomous):
        return len(s & spec.demand)
    if isinstance(spec, MatroidValuation):
        return brute_force_rank(spec.matroid, s)
    if isinstance(spec, EpsLeveled):
        return sum((v for a, v in spec.values if a in s), Fraction(0))
    return max(len(t & s) for t in spec.family)


def test_value_rule_matches_written_out_formulas():
    rng = random.Random(6161)
    checked = dict.fromkeys(("additive", "leveled", "matroid", "xos"), 0)
    for _ in range(200):
        m = rng.randint(1, 7)
        tag = rng.choice(sorted(checked))
        spec = rand_valuation(rng, tag, m)
        value, drop = value_functions(spec)
        for _ in range(4):
            s = rand_subset(rng, m, rng.random())
            want = _written_out_value(spec, s)
            got = evaluate(spec, s, m)
            assert type(got) is Fraction and got == want, (spec, s)
            whole = value(s)
            assert whole == want, (spec, s)
            for a in sorted(s):
                assert drop(s, whole, a) == _written_out_value(spec, s - {a}), (spec, s, a)
            checked[tag] += 1
    assert min(checked.values()) >= 100, checked
