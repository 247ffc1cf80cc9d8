"""Lorenz-dominating allocations with priority tie-breaking.

Priorities enter only through an integer potential over bundle-size
profiles,

    pi(A) = sum_i (n*|A_i| + rank(i))^2     (rank 1 = highest priority),

whose welfare-constrained minimum characterizes the Lorenz-dominating
allocation with ties broken toward higher-priority agents.

One engine computes it: `compute_lorenz_dominating` runs Yankee Swap
(Viswanathan & Zick, AAMAS 2023).  The playing agent with the fewest items
moves next, ties going to the higher-priority agent; it takes a shortest
transfer path through the item exchange graph that ends at an unowned
item, and an agent with no such path leaves the game.  Shortest paths keep
every bundle independent (the transfer-path lemma of Benabbou,
Chakraborty, Igarashi & Zick, ACM TEAC 2021), so every bundle is
non-redundant and the final profile is the welfare-maximal one of minimum
potential.

The path search is a breadth-first search over items that asks each
agent's matroid spec three exchange questions instead of testing a built
set for every (item, item) pair: `can_add(own, g)` for the start items,
`swap_filter(own, g)` for the items h an agent can take in exchange for
g, and `swap_key(own, g)`.  Two items of one holder with equal keys admit
the same items h, so the search expands each (holder, key) pair once and
skips the holder's later items with that key: the first expansion already
discovered everything they would.  Structured tags answer in constant or
bundle-size time with shared keys (one key per agent for free and uniform
specs, one per block for partitions); explicit families fall back to
`is_independent` and give every item its own key.

Item tie-break: the path search scans items in descending id and stops at
the first unowned item it discovers.  Skipping an expansion that would
discover nothing leaves that scan's discovery order unchanged, so the
rule fixes which items each agent gets exactly as a search that expands
every item would; the profile does not depend on it.

`additive_balanced` is the same engine on additive demand-set reports.
Two oracles check it: `enumerate_optimal` (every non-redundant allocation
of a desk-scale instance) and, past the enumeration caps, the potential
descent in `tests/lorenz_reference.py`.  All are pure functions of
immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from typing import Sequence

from .errors import CapabilityError, ValidationError
from .matroid import FreeOver, ItemSet, MatroidSpec
from .model import Allocation, Instance, PriorityOrder, check_priority, identity_priority
from .valuation import evaluate

ENUMERATION_MAX_AGENTS = 4
ENUMERATION_MAX_ITEMS = 6


def potential(profile: Sequence[int], sigma: PriorityOrder) -> int:
    """pi = sum over agents of (n*bundle_size + priority_rank)^2, exact."""
    n = len(profile)
    sigma = check_priority(sigma, n)
    if any(s < 0 for s in profile):
        raise ValidationError("profile sizes must be >= 0")
    total = 0
    for rank0, agent in enumerate(sigma):
        total += (n * profile[agent] + rank0 + 1) ** 2
    return total


def _unpermute(bundles_by_rank, sigma, m, n):
    """Per-rank bundles (position k is agent sigma[k]'s) back in agent order."""
    bundles = [frozenset()] * n
    for rank0, agent in enumerate(sigma):
        bundles[agent] = bundles_by_rank[rank0]
    return Allocation(tuple(bundles), m)


def compute_lorenz_dominating(
    reports: Sequence[MatroidSpec], m: int, sigma: PriorityOrder | None = None
) -> Allocation:
    """The welfare-maximizing non-redundant allocation of minimum potential.

    Yankee Swap: all bundles start empty; the playing agent with the fewest
    items (ties to higher priority) takes a shortest transfer path ending
    at an unowned item, and an agent with no such path leaves the game.
    Every turn adds one item to the mover and keeps every other size, so
    the playing agents always hold equally many items at the start of a
    round, and the order of turns is a round-robin in priority order.
    """
    n = len(reports)
    sigma = identity_priority(n) if sigma is None else check_priority(sigma, n)
    bundles = _yankee_swap([reports[agent] for agent in sigma], m)
    return _unpermute(bundles, sigma, m, n)


def _yankee_swap(matroids: Sequence[MatroidSpec], m: int) -> list[ItemSet]:
    """Yankee Swap bundles for agents already in rank order."""
    universe = frozenset(range(m))
    # descending item ids: the documented tie-break among shortest paths
    supports = [sorted(spec.support() & universe, reverse=True) for spec in matroids]
    bundles: list[ItemSet] = [frozenset()] * len(matroids)
    owner: dict[int, int] = {}  # item -> rank of its holder; unowned items absent
    playing = [i for i, supp in enumerate(supports) if supp]
    while playing:
        still = []
        for i in playing:
            path = _transfer_path(i, matroids, supports, bundles, owner)
            if path is None:
                continue
            still.append(i)
            # i takes path[0]; the holder of path[t] takes path[t+1] in its place
            taker = i
            for item in path:
                holder = owner.get(item)
                if holder is not None:
                    bundles[holder] = bundles[holder] - {item}
                bundles[taker] = bundles[taker] | {item}
                owner[item] = taker
                taker = holder
        playing = still
    return bundles


def _transfer_path(i, matroids, supports, bundles, owner) -> list[int] | None:
    """A shortest transfer path for agent i ending at an unowned item.

    Breadth-first search over items: the start items are those i can add
    to its bundle (`can_add`), and item g, held by j, leads to every item
    h that j can take in exchange for g (`swap_filter`).  Items are
    scanned in descending id, and the first unowned item discovered ends
    the search, so among shortest paths the one found first in that scan
    is taken.

    Each holder is expanded at most once per swap key: an item g of j is
    skipped when an earlier item of j with the same `swap_key` was
    expanded.  Equal keys admit the same items h, j's bundle does not
    change during the search, and the earlier expansion put every such h
    in `parent` (or returned), so the skipped expansion would discover
    nothing: the discovery order, and hence the path, is the one the
    per-item search finds.  Returns the items [g_1, ..., g_k] with g_k
    unowned, or None.
    """
    spec, own = matroids[i], bundles[i]
    parent: dict[int, int | None] = {}
    queue = []
    for g in supports[i]:
        if g not in own and spec.can_add(own, g):
            if g not in owner:
                return [g]
            parent[g] = None
            queue.append(g)
    expanded = set()  # (holder, swap key) pairs already expanded
    for g in queue:  # the queue grows while it is scanned
        j = owner[g]
        spec, own = matroids[j], bundles[j]
        key = (j, spec.swap_key(own, g))
        if key in expanded:
            continue
        expanded.add(key)
        allowed = spec.swap_filter(own, g)
        for h in supports[j]:
            if h in parent or h in own or (allowed is not None and not allowed(h)):
                continue
            parent[h] = g
            if h not in owner:
                path = [h]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return path[::-1]
            queue.append(h)
    return None


def additive_balanced(
    demands: Sequence[ItemSet], m: int, sigma: PriorityOrder | None = None
) -> Allocation:
    """`compute_lorenz_dominating` on additive demand-set reports.

    No mechanism calls it; it stays because the benchmark's tracer looks
    it up by name.
    """
    specs = [FreeOver(d) for d in demands]
    if any(a >= m for spec in specs for a in spec.demand):
        raise ValidationError("demand outside item universe")
    return compute_lorenz_dominating(specs, m, sigma)


@dataclass(frozen=True)
class EnumerationResult:
    """Exhaustive scan of the non-redundant allocations of an instance."""

    allocations: tuple[Allocation, ...]
    vectors: tuple[tuple[Fraction, ...], ...]
    max_welfare: Fraction
    pareto: tuple[int, ...]
    lorenz_dominating: tuple[int, ...]
    min_potential: tuple[int, ...]
    min_potential_value: int | None

    def min_potential_vectors(self) -> set[tuple[Fraction, ...]]:
        return {self.vectors[i] for i in self.min_potential}


def enumerate_optimal(instance: Instance) -> EnumerationResult:
    """Enumerate every non-redundant allocation and its utility vector.

    Returns the Pareto set, the Lorenz-dominating set (possibly empty), and
    the minimum-potential set among welfare-maximizing allocations, with
    potential taken under `instance.priority_or_default()`.  An
    allocation is Lorenz dominating iff its prefix-sum vector equals the
    pointwise maximum over all allocations.  Capped at
    ENUMERATION_MAX_AGENTS agents and ENUMERATION_MAX_ITEMS items.
    """
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

