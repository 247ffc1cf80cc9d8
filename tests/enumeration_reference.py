"""Reference enumeration oracle: `enumerate_optimal` as it was before the
one-pass scan.

`reference_enumerate_optimal` values every bundle in `Fraction` through
`evaluate`, tests non-redundancy on a per-agent boolean table, and finds
the Pareto set pairwise over the distinct utility vectors.  It shares only
`evaluate`, `potential`, the caps and the result type with the program's
oracle, so equal `EnumerationResult`s are a differential check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, product

from egalloc.errors import CapabilityError
from egalloc.lorenz import (
    ENUMERATION_MAX_AGENTS,
    ENUMERATION_MAX_ITEMS,
    EnumerationResult,
    potential,
)
from egalloc.matroid import ItemSet
from egalloc.model import Allocation, Instance
from egalloc.valuation import evaluate


def reference_enumerate_optimal(instance: Instance) -> EnumerationResult:
    """Every non-redundant allocation, scanned in `product` order."""
    n, m = instance.n, instance.m
    if n > ENUMERATION_MAX_AGENTS or m > ENUMERATION_MAX_ITEMS:
        raise CapabilityError(
            f"enumeration cap exceeded: n={n} (max {ENUMERATION_MAX_AGENTS}), "
            f"m={m} (max {ENUMERATION_MAX_ITEMS})"
        )
    sigma = instance.priority_or_default()

    value_tables = []
    nonred_tables = []
    for spec in instance.valuations:
        vals = [Fraction(0)] * (1 << m)
        for mask in range(1 << m):
            vals[mask] = evaluate(spec, _mask_to_set(mask), m)
        nonred = [True] * (1 << m)
        for mask in range(1 << m):
            v = vals[mask]
            rest = mask
            ok = True
            while rest:
                bit = rest & -rest
                if vals[mask ^ bit] >= v:
                    ok = False
                    break
                rest ^= bit
            nonred[mask] = ok
        value_tables.append(vals)
        nonred_tables.append(nonred)

    allocations: list[Allocation] = []
    vectors: list[tuple[Fraction, ...]] = []
    profiles: list[tuple[int, ...]] = []
    for assignment in product(range(n + 1), repeat=m):
        masks = [0] * n
        for item, owner in enumerate(assignment):
            if owner < n:
                masks[owner] |= 1 << item
        if not all(nonred_tables[v][masks[v]] for v in range(n)):
            continue
        bundles = tuple(_mask_to_set(masks[v]) for v in range(n))
        vec = tuple(value_tables[v][masks[v]] for v in range(n))
        allocations.append(Allocation(bundles, m))
        vectors.append(vec)
        profiles.append(tuple(len(b) for b in bundles))

    welfares = [sum(vec) for vec in vectors]
    max_welfare = max(welfares)

    prefix_vectors = [tuple(accumulate(sorted(vec))) for vec in vectors]
    best_prefix = tuple(map(max, zip(*prefix_vectors)))
    lorenz_idx = tuple(
        i for i, pv in enumerate(prefix_vectors) if pv == best_prefix
    )

    welfare_max_idx = [i for i, w in enumerate(welfares) if w == max_welfare]
    pots = {i: potential(profiles[i], sigma) for i in welfare_max_idx}
    min_pot = min(pots.values()) if pots else None
    min_pot_idx = tuple(i for i in welfare_max_idx if pots[i] == min_pot)

    pareto_idx = _pareto_filter(vectors)

    return EnumerationResult(
        allocations=tuple(allocations),
        vectors=tuple(vectors),
        max_welfare=max_welfare,
        pareto=pareto_idx,
        lorenz_dominating=lorenz_idx,
        min_potential=min_pot_idx,
        min_potential_value=min_pot,
    )


def _mask_to_set(mask: int) -> ItemSet:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return frozenset(out)


def _pareto_filter(vectors) -> tuple[int, ...]:
    """Indices of allocations whose utility vector is Pareto-undominated."""
    distinct: dict[tuple, None] = {}
    for vec in vectors:
        distinct.setdefault(vec)
    frontier: list[tuple] = []
    for vec in distinct:
        dominated = False
        for other in distinct:
            if other == vec:
                continue
            if all(o >= s for o, s in zip(other, vec)) and any(
                o > s for o, s in zip(other, vec)
            ):
                dominated = True
                break
        if not dominated:
            frontier.append(vec)
    frontier_set = set(frontier)
    return tuple(i for i, vec in enumerate(vectors) if vec in frontier_set)
