import dataclasses
import random
from collections import Counter
from itertools import combinations

import pytest

from conftest import (
    MATROID_TAGS,
    matroid_instance,
    rand_explicit_matroid,
    rand_matroid,
    rand_matroid_of_tag,
    rand_structured_matroid,
    rand_subset,
)
from egalloc.io import instance_document
from egalloc.errors import CapabilityError, ValidationError
from egalloc.matroid import (
    Explicit,
    FreeOver,
    Partition,
    Restricted,
    Truncated,
    Uniform,
    brute_force_rank,
    validate_matroid,
)
from matroid_reference import downward_closure, reference_exchange_violations

F = frozenset


def test_rank_examples():
    assert Uniform(F({0, 1, 2}), 2).rank(F({0, 1, 2})) == 2
    assert Truncated(FreeOver(F({0, 1, 2})), 1).rank(F({0, 1})) == 1
    part = Partition(((F({0, 1}), 1), (F({2, 3}), 1)))
    assert part.rank(F({0, 1, 2})) == 2
    assert part.rank(F({0, 1, 2})) == brute_force_rank(part, F({0, 1, 2}))


def test_rank_basics():
    spec = Partition(((F({0, 1}), 1), (F({2}), 1)))
    assert spec.rank(F()) == 0
    assert spec.rank(F({0})) <= 1


def test_is_independent_examples():
    assert Uniform(F({0, 1}), 1).is_independent(F()) is True
    assert Uniform(F({0, 1}), 1).is_independent(F({0, 1})) is False
    closure = Explicit(F({F({0, 2})}))
    assert closure.is_independent(F({2})) is True
    assert closure.is_independent(F({1})) is False


def test_explicit_closure_contains_all_subsets():
    spec = Explicit(F({F({0, 1, 2})}))
    assert spec.family == F({F({0, 1, 2})})
    for k in range(4):
        for sub in combinations(range(3), k):
            assert spec.is_independent(F(sub))
    assert not spec.is_independent(F({3}))


def test_explicit_closure_equals_its_maximal_sets():
    rng = random.Random(8)
    for _ in range(60):
        m = rng.randint(1, 6)
        sets = [rand_subset(rng, m, rng.random()) for _ in range(rng.randint(1, 5))]
        maximal = F(t for t in sets if not any(t < u for u in sets))
        closed = Explicit(downward_closure(sets))
        assert closed.family == maximal
        assert closed == Explicit(maximal) == Explicit(F(sets))
        assert hash(closed) == hash(Explicit(maximal))


def test_explicit_empty_family_rejected():
    with pytest.raises(ValidationError):
        Explicit(frozenset())


def test_validator_examples():
    assert validate_matroid(Uniform(F({0, 1}), 1)) is None
    bad = Explicit(F({F({0}), F({1, 2})}))
    violation = validate_matroid(bad)
    assert violation is not None
    assert violation.constraint == "exchange"
    s, t = violation.witness
    assert len(s) < len(t)


def test_explicit_verdict_is_kept_and_is_not_a_field(monkeypatch):
    import egalloc.matroid as matroid

    scanned = []
    original = matroid._validate_explicit

    def counting(spec):
        scanned.append(spec)
        return original(spec)

    monkeypatch.setattr(matroid, "_validate_explicit", counting)
    bad = Explicit(F({F({0, 1}), F({2, 3})}))
    twin = Explicit(F({F({2, 3}), F({1, 0})}))
    first = validate_matroid(bad)
    assert first.witness == ((0,), (2, 3))
    # again, and through the combinators that wrap it: no second scan
    assert validate_matroid(bad) is first
    assert validate_matroid(Truncated(Restricted(bad, F({0, 2})), 1)) is first
    assert scanned == [bad]
    assert [f.name for f in dataclasses.fields(bad)] == ["family"]
    assert bad == twin and hash(bad) == hash(twin)
    assert repr(bad) == repr(twin)
    assert instance_document(matroid_instance([bad], 4)) == instance_document(
        matroid_instance([twin], 4)
    )
    # the twin has no verdict yet, and computes its own
    assert validate_matroid(twin) == first
    assert scanned == [bad, twin]


def test_partition_overlap_is_construction_error():
    with pytest.raises(ValidationError):
        Partition(((F({0, 1}), 1), (F({1, 2}), 1)))


def test_validator_cap():
    big = Explicit(F({F(range(13))}))
    for _ in range(2):  # no verdict is kept, so every call raises
        with pytest.raises(CapabilityError):
            validate_matroid(big)
        with pytest.raises(CapabilityError):
            validate_matroid(Truncated(big, 3))


def test_negative_caps_rejected():
    with pytest.raises(ValidationError):
        Uniform(F({0}), -1)
    with pytest.raises(ValidationError):
        Truncated(FreeOver(F({0})), -2)


def test_rank_equals_brute_force_exhaustively():
    rng = random.Random(2024)
    for _ in range(40):
        m = rng.randint(1, 8)
        spec = rand_structured_matroid(rng, m)
        for mask in range(1 << m):
            s = F(i for i in range(m) if mask >> i & 1)
            assert spec.rank(s) == brute_force_rank(spec, s)
            assert spec.is_independent(s) == (spec.rank(s) == len(s))


def test_truncation_and_restriction_identities():
    rng = random.Random(99)
    for _ in range(30):
        m = rng.randint(1, 6)
        inner = rand_matroid(rng, m)
        t = rng.randint(0, m)
        d = F(a for a in range(m) if rng.random() < 0.5)
        trunc = Truncated(inner, t)
        restr = Restricted(inner, d)
        for mask in range(1 << m):
            s = F(i for i in range(m) if mask >> i & 1)
            assert trunc.rank(s) == min(t, inner.rank(s))
            assert restr.rank(s) == inner.rank(s & d)


def test_random_valid_matroids_pass_validator():
    rng = random.Random(5)
    for _ in range(20):
        spec = rand_explicit_matroid(rng, rng.randint(1, 6))
        assert validate_matroid(spec) is None


def test_support_is_singleton_rank():
    rng = random.Random(17)
    for _ in range(40):
        m = rng.randint(1, 7)
        spec = rand_matroid(rng, m)
        expected = {a for a in range(m) if spec.rank(F({a})) == 1}
        assert spec.support() & F(range(m)) == F(expected)


def _rand_family(rng: random.Random, m: int) -> list[frozenset[int]]:
    """Listed sets over at most m items: arbitrary sets, sets of one size,
    the bases of a random matroid, or those bases with one removed or one
    set added."""
    kind = rng.randrange(4)
    if kind == 0:
        return [rand_subset(rng, m, 0.5) for _ in range(rng.randint(2, 5))]
    if kind == 1:
        # one size k with 2 <= k <= m-2, where sets of one size can fail exchange
        k = rng.randint(min(2, m), max(2, m - 2))
        return [F(rng.sample(range(m), k)) for _ in range(rng.randint(2, 5))]
    base = rand_structured_matroid(rng, m)
    k = base.rank(F(range(m)))
    bases = [F(s) for s in combinations(range(m), k) if base.is_independent(F(s))]
    others = [F(s) for s in combinations(range(m), k) if F(s) not in bases]
    if kind == 2:
        return bases
    if others and rng.random() < 0.5:
        bases.append(rng.choice(others))
    elif len(bases) > 1:
        bases.remove(rng.choice(bases))
    return bases


def test_explicit_validator_matches_closure_reference():
    rng = random.Random(31)
    verdicts = Counter()
    for _ in range(2400):
        m = rng.randint(2, 6)
        sets = _rand_family(rng, m)
        spec = Explicit(F(sets))
        closure = downward_closure(sets)
        v = validate_matroid(spec)
        valid = v is None
        assert valid == (not reference_exchange_violations(sets)), sets
        if v is not None:
            assert v.constraint == "exchange"
            s, t = (F(w) for w in v.witness)
            assert len(s) < len(t)
            assert s in closure and t in closure
            assert not any(s | {x} in closure for x in t - s)
        for mask in range(1 << m):
            sub = F(i for i in range(m) if mask >> i & 1)
            assert spec.is_independent(sub) == (sub in closure)
            assert spec.rank(sub) == max(len(c) for c in closure if c <= sub)
        sizes = {len(t) for t in spec.family}
        verdicts[valid, len(sizes) == 1] += 1
    # valid families, and invalid ones failing by size and by exchange alone
    assert min(verdicts[True, True], verdicts[False, False], verdicts[False, True]) >= 150


def test_exchange_predicates_match_is_independent():
    # can_add, swap_filter and swap_key against is_independent on every
    # independent bundle of small matroids of each tag, plus truncations
    # and restrictions of explicit families.
    rng = random.Random(606)
    shared_keys = Counter()
    for trial in range(150):
        m = rng.randint(1, 7)
        tag = MATROID_TAGS[trial % len(MATROID_TAGS)]
        spec = rand_matroid_of_tag(rng, tag, m)
        if trial % 5 == 4:
            inner = rand_explicit_matroid(rng, m)
            if rng.random() < 0.5:
                spec = Truncated(inner, rng.randint(0, m))
            else:
                spec = Restricted(inner, rand_subset(rng, m))
        support = spec.support() & F(range(m))
        for mask in range(1 << m):
            own = F(i for i in range(m) if mask >> i & 1)
            if not spec.is_independent(own):
                continue
            for g in support - own:
                assert spec.can_add(own, g) == spec.is_independent(own | {g})
            admitted: dict = {}
            for g in own:
                allowed = spec.swap_filter(own, g)
                got = F(h for h in support - own if allowed is None or allowed(h))
                want = F(h for h in support - own if spec.is_independent((own - {g}) | {h}))
                assert got == want, (spec, own, g)
                admitted.setdefault(spec.swap_key(own, g), set()).add(got)
            assert all(len(sets) == 1 for sets in admitted.values()), (spec, own)
            shared_keys[type(spec).__name__] += len(own) - len(admitted)
    # the keys do merge items of one bundle for every structured tag
    for name in ("FreeOver", "Uniform", "Partition", "Truncated", "Restricted"):
        assert shared_keys[name] > 0
    assert shared_keys["Explicit"] == 0


def test_partition_tables_are_built_once_and_are_not_fields():
    spec = Partition(((F({0, 1}), 1), (F({2}), 2), (F(), 0)))
    twin = Partition(((F({1, 0}), 1), (F({2}), 2), (F(), 0)))
    assert [f.name for f in dataclasses.fields(spec)] == ["blocks"]
    assert spec == twin and hash(spec) == hash(twin)
    assert repr(spec) == (
        "Partition(blocks=((frozenset({0, 1}), 1), (frozenset({2}), 2), (frozenset(), 0)))"
    )
    assert instance_document(matroid_instance([spec], 3))["agents"][0]["valuation"] == {
        "matroid": {
            "type": "partition",
            "blocks": [
                {"items": ["i0", "i1"], "cap": 1},
                {"items": ["i2"], "cap": 2},
                {"items": [], "cap": 0},
            ],
        }
    }
    assert spec._covered == F({0, 1, 2})
    assert spec._block_of == {0: 0, 1: 0, 2: 1}
    # is_independent reads the covered set built at construction
    object.__setattr__(spec, "_covered", F({0, 1}))
    assert not spec.is_independent(F({2}))
    assert twin.is_independent(F({2}))
