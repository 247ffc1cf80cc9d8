"""Seeded instance generator for the benchmark workloads.

Every instance is built from a `random.Random` seeded by the caller; the
workloads serialize it with `egalloc.io.emit_instance`, so the program
under test only ever sees the generated JSON files.  Matroid agents rotate through a fixed
mix of kinds so that instances of one seed and the next differ in content,
not in kind mix, which keeps the cost of a run steady across seeds.
"""

from __future__ import annotations

import itertools
import random

from egalloc.matroid import Explicit, FreeOver, Partition, Restricted, Truncated, Uniform
from egalloc.model import Instance
from egalloc.valuation import AdditiveDichotomous, MatroidValuation

#: Largest universe of an explicit matroid; explicit families are closed
#: downward and validated exhaustively when parsed.
EXPLICIT_MAX_ITEMS = 8

#: Kind of each agent by position in the rotation: about one agent in six
#: gets a small explicit matroid.
MATROID_ROTATION = ("free", "partition", "uniform", "truncated", "restricted", "explicit")


def _subset(rng: random.Random, items, p: float) -> frozenset[int]:
    return frozenset(a for a in items if rng.random() < p)


def _partition(rng: random.Random, items, p: float) -> Partition:
    pool = sorted(_subset(rng, items, p))
    rng.shuffle(pool)
    blocks = []
    while pool:
        k = rng.randint(1, min(4, len(pool)))
        blocks.append((frozenset(pool[:k]), rng.randint(1, 2)))
        pool = pool[k:]
    return Partition(tuple(blocks)) if blocks else Partition(((frozenset(), 0),))


def structured_matroid(rng: random.Random, kind: str, items, p: float):
    """One matroid of the given kind over `items`, each item kept with probability p."""
    if kind == "free":
        return FreeOver(_subset(rng, items, p))
    if kind == "uniform":
        demand = _subset(rng, items, p)
        return Uniform(demand, rng.randint(1, max(1, len(demand) - 1)))
    if kind == "partition":
        return _partition(rng, items, p)
    if kind == "truncated":
        inner = structured_matroid(rng, rng.choice(("free", "partition")), items, p)
        return Truncated(inner, rng.randint(1, max(1, len(inner.support()) - 1)))
    if kind == "restricted":
        inner = _partition(rng, items, min(1.0, 2 * p))
        return Restricted(inner, _subset(rng, items, 0.6))
    if kind == "explicit":
        universe = rng.sample(list(items), min(EXPLICIT_MAX_ITEMS, len(items)))
        base = structured_matroid(rng, rng.choice(("uniform", "partition")), universe, 0.9)
        family = [
            frozenset(s)
            for k in range(len(universe) + 1)
            for s in itertools.combinations(sorted(universe), k)
            if base.is_independent(frozenset(s))
        ]
        return Explicit(frozenset(family))
    raise ValueError(f"unknown matroid kind {kind!r}")


def _names(prefix: str, k: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{j}" for j in range(k))


def _priority(rng: random.Random, n: int) -> tuple[int, ...]:
    order = list(range(n))
    rng.shuffle(order)
    return tuple(order)


def matroid_instance(rng: random.Random, n: int, m: int, p: float) -> Instance:
    """n matroid-rank agents over m items; kinds follow MATROID_ROTATION."""
    offset = rng.randrange(len(MATROID_ROTATION))
    items = range(m)
    specs = tuple(
        MatroidValuation(
            structured_matroid(rng, MATROID_ROTATION[(offset + v) % len(MATROID_ROTATION)], items, p)
        )
        for v in range(n)
    )
    return Instance(_names("i", m), _names("a", n), specs, priority=_priority(rng, n))


def additive_instance(rng: random.Random, n: int, m: int, p: float) -> Instance:
    """n additive demand-set agents over m items, each item demanded with probability p."""
    specs = tuple(AdditiveDichotomous(_subset(rng, range(m), p)) for _ in range(n))
    return Instance(_names("i", m), _names("a", n), specs, priority=_priority(rng, n))
