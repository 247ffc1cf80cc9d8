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
item, and an agent with no such path leaves the game.  The game ends once
every item in any agent's support is owned: a search discovers only support
items and ends only at an unowned one, so no path is left.  Shortest paths
keep every bundle independent (the transfer-path lemma of Benabbou,
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
`is_independent` and give every item its own key.  Most turns need no
search: the round loop takes the first unowned item of the mover's
support that it can add, and `_search` runs only when there is none.

Item tie-break: the path search scans items in descending id and stops at
the first unowned item it discovers.  Skipping an expansion that would
discover nothing leaves that scan's discovery order unchanged, so the
rule fixes which items each agent gets exactly as a search that expands
every item would; the profile does not depend on it.

A solve has two steps: `prepare_supports` sets up each report's support,
clipped to the universe and in descending id, and `solve_prepared` runs
Yankee Swap under one order on those lists, so an exact distribution sets
up once for all n! orders.  A search asks only about items on the lists,
so lists clipped to a set S give PE on the reports restricted to S.
`solve_prepared` returns the engine's bundles, one set per report, and
checks nothing; `model.check_bundles` is the one partition check, run on
every solve's bundles either directly or by the `Allocation` built where
one is returned: here, by `compute_lorenz_dominating`.  A failed search
is not repeated: the items it discovered (none unowned, nor leading to
one) stay dead until a path of two or more items is applied, and are
skipped.  A direct take cannot make a dead item lead to an unowned one:
no dead item led to the item taken, and adding an item to a bundle only
removes exchanges out of it (independence is hereditary).  Dead items
lead only to dead items, so paths and bundles are unchanged.

`additive_balanced` is the same engine on additive demand-set reports.
Two oracles check it: `enumerate_optimal` (every non-redundant allocation
of a desk-scale instance, found by a walk over the items that cuts a
branch once some agent's partial bundle extends to none of its
non-redundant bundles; values come from per-agent tables that
`value_functions` fills with ints, or `Fraction` sums for ε-leveled
valuations, and become `Fraction`s only in its result) and, past the
enumeration caps, the potential descent in `tests/lorenz_reference.py`.
All are pure functions of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .errors import CapabilityError, ValidationError
from .matroid import FreeOver, ItemSet, MatroidSpec, check_universe
from .model import Allocation, Instance, PriorityOrder, check_priority, identity_priority
from .valuation import value_functions

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


def compute_lorenz_dominating(
    reports: Sequence[MatroidSpec], m: int, sigma: PriorityOrder | None = None
) -> Allocation:
    """The welfare-maximizing non-redundant allocation of minimum potential.

    Yankee Swap: all bundles start empty; the playing agent with the fewest
    items (ties to higher priority) takes a shortest transfer path ending
    at an unowned item, and an agent with no such path leaves the game (all
    leave once every support item is owned, since no path is left).  Every
    turn adds one item to the mover and keeps every other size, so
    the playing agents always hold equally many items at the start of a
    round, and the order of turns is a round-robin in priority order.
    """
    n = len(reports)
    sigma = identity_priority(n) if sigma is None else check_priority(sigma, n)
    return Allocation(tuple(solve_prepared(reports, prepare_supports(reports, m), sigma)), m)


def prepare_supports(reports: Sequence[MatroidSpec], m: int) -> list[list[int]]:
    """The set-up: each report's support, clipped to the universe 0..m-1, in
    descending id (the documented tie-break among shortest paths).  Item
    ids are non-negative, so clipping keeps the ids below m."""
    return [sorted((a for a in spec.support() if a < m), reverse=True) for spec in reports]


def solve_prepared(reports, supports, sigma: PriorityOrder) -> list[set[int]]:
    """The per-order solve: Yankee Swap under the permutation `sigma` on
    `prepare_supports`' lists, or on sublists of them (see the module); it
    takes no m, as those lists are already clipped to the universe.
    Returns the engine's bundles, one set per report, unchecked: each
    caller, the exact walks included, runs `model.check_bundles` on them
    or builds an `Allocation`, which does.

    Turns run in `sigma` order on state indexed by report.  A search
    discovers only support items and ends only at an unowned one, so once
    `wanted` (the unowned support items) is empty every playing agent
    leaves.  `dead` holds the items failed searches discovered since the
    last path of two or more items (see the module and `_search`).  The
    direct take is exact, as `own` and `dead` hold only owned items and
    `can_add` is pure."""
    bundles: list[set[int]] = [set() for _ in reports]
    owner: dict[int, int] = {}  # item -> its holder; unowned items absent
    wanted = set().union(*supports)
    dead: set[int] = set()
    playing = [i for i in sigma if supports[i]]
    while playing and wanted:
        still = []
        for i in playing:
            if not wanted:  # no path can end at an unowned item: all leave
                break
            spec, own = reports[i], bundles[i]
            for g in supports[i]:  # the direct take: an unowned start item
                if g not in owner and spec.can_add(own, g):
                    own.add(g)
                    owner[g] = i
                    break
            else:
                g = _search(i, reports, supports, bundles, owner, dead)
                if g is None:
                    continue
            still.append(i)
            wanted.discard(g)
        playing = still
    return bundles


def _search(i, reports, supports, bundles, owner, dead) -> int | None:
    """Agent i's search, once i can add no unowned item: apply a shortest
    transfer path for i ending at an unowned item and return that item, or
    return None if there is none.

    The start items are the owned items i can add to its bundle
    (`can_add`).  A breadth-first search runs from them: item g, held by
    j, leads to every item h that j can take in exchange for g
    (`swap_filter`).  Items are scanned in descending id, and the first
    unowned item discovered ends the search, so among shortest paths the
    one found first in that scan is taken.

    Each holder is expanded at most once per swap key: an item g of j is
    skipped when an earlier item of j with the same `swap_key` was
    expanded.  Equal keys admit the same items h, j's bundle does not
    change during the search, and the earlier expansion put every such h
    in `parent` (or returned), so the skipped expansion would discover
    nothing: the discovery order, and hence the path, is the one the
    per-item search finds.  The `dead` items are skipped as start items
    and, seeding `parent`, as discovered items; a failed search adds every
    item it discovered to them (see the module).

    With no start item the search returns None at once: it would discover
    nothing, so `parent` would hold only the `dead` items it was seeded
    with, and adding them to `dead` would change nothing.
    """
    spec, own = reports[i], bundles[i]
    # the start items, then the items the search discovers
    queue = [g for g in supports[i] if g not in own and g not in dead and spec.can_add(own, g)]
    if not queue:
        return None
    parent: dict[int, int | None] = dict.fromkeys(dead)
    parent.update(dict.fromkeys(queue))
    expanded = set()  # (holder, swap key) pairs already expanded
    for g in queue:  # the queue grows while it is scanned
        j = owner[g]
        spec, own = reports[j], bundles[j]
        key = (j, spec.swap_key(own, g))
        if key in expanded:
            continue
        expanded.add(key)
        allowed = spec.swap_filter(own, g)
        for h in supports[j]:
            if h in parent or h in own or (allowed is not None and not allowed(h)):
                continue
            parent[h] = g
            if h in owner:
                queue.append(h)
                continue
            # back from h: each item goes to the holder of the item before it
            # on the path (i for the first), and leaves its own holder
            item = h
            while item is not None:
                before = parent[item]
                if item in owner:
                    bundles[owner[item]].remove(item)
                taker = i if before is None else owner[before]
                bundles[taker].add(item)
                owner[item] = taker
                item = before
            dead.clear()
            return h
    dead.update(parent)
    return None


def additive_balanced(
    demands: Sequence[ItemSet], m: int, sigma: PriorityOrder | None = None
) -> Allocation:
    """`compute_lorenz_dominating` on additive demand-set reports.

    No mechanism calls it; it stays because the benchmark's tracer looks
    it up by name.
    """
    specs = [FreeOver(d) for d in demands]
    for spec in specs:
        check_universe(spec.demand, m, "demand")
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
    min_potential_value: int


def enumerate_optimal(instance: Instance) -> EnumerationResult:
    """Enumerate every non-redundant allocation and its utility vector.

    Returns the Pareto set, the Lorenz-dominating set (possibly empty), and
    the minimum-potential set among welfare-maximizing allocations, with
    potential taken under `instance.priority_or_default()`.  An
    allocation is Lorenz dominating iff its prefix-sum vector equals the
    pointwise maximum over all allocations.

    Allocations are listed in `product(range(n + 1), repeat=m)` order, the
    order every index refers to: a walk gives item 0, then item 1, ..., to
    agent 0, ..., n-1 and then leaves it unallocated.  In a listed
    allocation every bundle is non-redundant, so each agent's items among
    0..k are the restriction of a non-redundant bundle.  A branch where
    some agent's are not holds no listed allocation; cutting it leaves the
    others in their order.
    Bundle values come from `value_functions` (ints, or `Fraction`
    sums for ε-leveled valuations) and become `Fraction`s only in the
    result.  Capped at ENUMERATION_MAX_AGENTS agents and
    ENUMERATION_MAX_ITEMS items.
    """
    n, m = instance.n, instance.m
    if n > ENUMERATION_MAX_AGENTS or m > ENUMERATION_MAX_ITEMS:
        raise CapabilityError(
            f"enumeration cap exceeded: n={n} (max {ENUMERATION_MAX_AGENTS}), "
            f"m={m} (max {ENUMERATION_MAX_ITEMS})"
        )
    sigma = instance.priority_or_default()
    subsets = [frozenset(a for a in range(m) if mask >> a & 1) for mask in range(1 << m)]

    # per agent: non-redundant mask -> value; a bundle is non-redundant iff
    # dropping any one of its items lowers the value
    tables = []
    for spec in instance.valuations:
        vals = list(map(value_functions(spec)[0], subsets))
        tables.append(
            {
                mask: v
                for mask, v in enumerate(vals)
                if all(vals[mask ^ (1 << a)] < v for a in subsets[mask])
            }
        )

    # prefixes[k][v]: the restrictions to items 0..k of agent v's table masks
    prefixes = [
        [{mask & ((2 << k) - 1) for mask in table} for table in tables] for k in range(m)
    ]
    allocations, vectors = [], []
    masks = [0] * n

    def walk(k: int) -> None:  # items k..m-1, in `product` order
        if k == m:
            allocations.append(Allocation(tuple(subsets[mask] for mask in masks), m))
            vectors.append(tuple(table[mask] for table, mask in zip(tables, masks)))
            return
        bit, level = 1 << k, prefixes[k]
        # an agent without item k keeps its mask: one test per agent serves
        # every choice of whom item k goes to
        failing = [v for v in range(n) if masks[v] not in level[v]]
        for v in range(n):
            if masks[v] | bit in level[v] and failing in ([], [v]):
                masks[v] |= bit
                walk(k + 1)
                masks[v] ^= bit
        if not failing:
            walk(k + 1)

    walk(0)

    # u Pareto-dominates v only if sum(u) > sum(v), so in descending welfare
    # a vector is dominated iff some frontier vector found before it is
    distinct = sorted(dict.fromkeys(vectors), key=sum, reverse=True)
    frontier: list[tuple] = []
    for vec in distinct:
        if not any(all(o >= s for o, s in zip(other, vec)) for other in frontier):
            frontier.append(vec)
    frontier_set = set(frontier)

    prefix = {vec: tuple(accumulate(sorted(vec))) for vec in distinct}
    best_prefix = tuple(map(max, zip(*prefix.values())))

    max_welfare = sum(distinct[0])  # the all-unallocated row is always listed
    welfare_max_idx = [i for i, vec in enumerate(vectors) if sum(vec) == max_welfare]
    pots = {i: potential(allocations[i].profile(), sigma) for i in welfare_max_idx}
    min_pot = min(pots.values())

    exact = {vec: tuple(map(Fraction, vec)) for vec in distinct}
    return EnumerationResult(
        allocations=tuple(allocations),
        vectors=tuple(exact[vec] for vec in vectors),
        max_welfare=Fraction(max_welfare),
        pareto=tuple(i for i, vec in enumerate(vectors) if vec in frontier_set),
        lorenz_dominating=tuple(
            i for i, vec in enumerate(vectors) if prefix[vec] == best_prefix
        ),
        min_potential=tuple(i for i in welfare_max_idx if pots[i] == min_pot),
        min_potential_value=min_pot,
    )
