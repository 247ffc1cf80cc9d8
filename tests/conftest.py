"""Shared instance generators and brute-force oracles for the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from egalloc.matroid import (
    Explicit,
    FreeOver,
    MatroidSpec,
    Partition,
    Restricted,
    Truncated,
    Uniform,
)
from egalloc.model import Instance
from egalloc.valuation import (
    AdditiveDichotomous,
    EpsLeveled,
    MatroidValuation,
    ValuationSpec,
    XosFamily,
)


def rand_subset(rng: random.Random, m: int, p: float = 0.6) -> frozenset[int]:
    return frozenset(a for a in range(m) if rng.random() < p)


def rand_structured_matroid(rng: random.Random, m: int, depth: int = 0) -> MatroidSpec:
    kind = rng.choice(["free", "uniform", "partition", "truncated", "restricted"])
    if kind == "free" or depth >= 2:
        return FreeOver(rand_subset(rng, m))
    if kind == "uniform":
        return Uniform(rand_subset(rng, m), rng.randint(0, m))
    if kind == "partition":
        pool = list(range(m))
        rng.shuffle(pool)
        blocks = []
        while pool:
            k = rng.randint(1, min(3, len(pool)))
            blocks.append((frozenset(pool[:k]), rng.randint(0, 2)))
            pool = pool[k:]
        return Partition(tuple(blocks))
    if kind == "truncated":
        return Truncated(rand_structured_matroid(rng, m, depth + 1), rng.randint(0, m))
    return Restricted(rand_structured_matroid(rng, m, depth + 1), rand_subset(rng, m))


def rand_explicit_matroid(rng: random.Random, m: int) -> Explicit:
    """A genuinely valid matroid in explicit form (closure of a structured one)."""
    base = rand_structured_matroid(rng, m)
    family = [
        frozenset(s)
        for k in range(m + 1)
        for s in itertools.combinations(range(m), k)
        if base.is_independent(frozenset(s))
    ]
    return Explicit(frozenset(family))


#: Matroid tags, as instance documents spell them.
MATROID_TAGS = ("free", "uniform", "partition", "explicit", "truncated", "restricted")


def rand_matroid_of_tag(rng: random.Random, tag: str, m: int) -> MatroidSpec:
    """A valid matroid with the given top-level tag over items 0..m-1.

    Explicit families are kept to at most 6 items of the universe so that
    their downward closure stays small at any m.
    """
    if tag == "free":
        return FreeOver(rand_subset(rng, m))
    if tag == "uniform":
        return Uniform(rand_subset(rng, m), rng.randint(0, m))
    if tag == "partition":
        while True:
            spec = rand_structured_matroid(rng, m)
            if isinstance(spec, Partition):
                return spec
    if tag == "explicit":
        items = rng.sample(range(m), min(m, 6))
        base = rand_structured_matroid(rng, m)
        return Explicit(
            frozenset(
                frozenset(s)
                for k in range(len(items) + 1)
                for s in itertools.combinations(items, k)
                if base.is_independent(frozenset(s))
            )
        )
    if tag == "truncated":
        return Truncated(rand_structured_matroid(rng, m, 1), rng.randint(0, m))
    if tag == "restricted":
        return Restricted(rand_structured_matroid(rng, m, 1), rand_subset(rng, m))
    raise ValueError(f"unknown matroid tag {tag!r}")


#: Valuation kinds `rand_valuation` draws from.
VALUATION_KINDS = ("additive", "leveled", "matroid", "xos")


def rand_valuation(rng: random.Random, kind: str, m: int) -> ValuationSpec:
    """A random valuation of the given kind over items 0..m-1; matroid
    valuations take a random top-level tag from `MATROID_TAGS`."""
    if kind == "additive":
        return AdditiveDichotomous(rand_subset(rng, m, rng.choice([0.3, 0.6, 0.9])))
    if kind == "leveled":
        eps = Fraction(1, rng.randint(2, 9))
        levels = [Fraction(0), Fraction(1), 1 + eps / 2, 1 + eps]
        return EpsLeveled({a: rng.choice(levels) for a in range(m) if rng.random() < 0.8})
    if kind == "matroid":
        return MatroidValuation(rand_matroid_of_tag(rng, rng.choice(MATROID_TAGS), m))
    return XosFamily(tuple(rand_subset(rng, m) for _ in range(rng.randint(1, 3))))


def rand_matroid(rng: random.Random, m: int) -> MatroidSpec:
    if rng.random() < 0.25:
        return rand_explicit_matroid(rng, m)
    return rand_structured_matroid(rng, m)


def brute_max_common(matroids, m, caps=None) -> int:
    """Exhaustive maximum total size over cap-respecting independent allocations."""
    n = len(matroids)
    best = 0
    for assign in itertools.product(range(n + 1), repeat=m):
        bundles = [frozenset(i for i, o in enumerate(assign) if o == v) for v in range(n)]
        if caps is not None and any(
            caps[v] is not None and len(bundles[v]) > caps[v] for v in range(n)
        ):
            continue
        if all(matroids[v].is_independent(bundles[v]) for v in range(n)):
            best = max(best, sum(len(b) for b in bundles))
    return best


def additive_instance(demands, priority=None, epsilon=Fraction(0)) -> Instance:
    n = len(demands)
    m = max((max(d) + 1 for d in demands if d), default=1)
    return Instance(
        item_names=tuple(f"i{j}" for j in range(m)),
        agent_names=tuple(f"a{j}" for j in range(n)),
        valuations=tuple(AdditiveDichotomous(frozenset(d)) for d in demands),
        epsilon=epsilon,
        priority=priority,
    )


def matroid_instance(matroids, m, priority=None) -> Instance:
    n = len(matroids)
    return Instance(
        item_names=tuple(f"i{j}" for j in range(m)),
        agent_names=tuple(f"a{j}" for j in range(n)),
        valuations=tuple(MatroidValuation(x) for x in matroids),
        priority=priority,
    )


def all_demand_profiles(n: int, m: int):
    """Every n-tuple of demand subsets of {0..m-1}."""
    subsets = [
        frozenset(s) for k in range(m + 1) for s in itertools.combinations(range(m), k)
    ]
    return itertools.product(subsets, repeat=n)


def nested_truncations(depth: int) -> str:
    """An instance whose one agent's matroid is `depth` truncations deep.

    Written as text: `json.dumps` itself recurses once per level.
    """
    spec = (
        '{"type": "truncated", "limit": 1, "inner": ' * depth
        + '{"type": "free", "demand": ["a"]}'
        + "}" * depth
    )
    return '{"items": ["a"], "agents": [{"name": "x", "valuation": {"matroid": %s}}]}' % spec
