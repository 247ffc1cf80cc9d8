"""Reference routes to the minimum-potential allocation.

`descent_lorenz` is a potential descent: it starts from a maximum common
independent set and repeatedly adopts the one-item transfer (agent i gains,
agent k loses) that lowers the potential most among those a capped
matroid-intersection re-solve shows feasible.  It shares only
`max_common_independent` with the program, not the Yankee Swap engine, so
agreement between the two is a differential check that reaches past the
enumeration caps.  The minimum-potential profile is unique, so the
descent's profile does not depend on which maximum allocation it starts
from: the oracle may return any one, and only profiles are compared.

`yankee_swap_reference` is the engine's Yankee Swap with the per-item
transfer-path search it had before the exchange predicates: every (node,
item) pair asks `is_independent` about a freshly built set, and every held
item is expanded.  The engine must return the same bundles, not just the
same profile.
"""

from __future__ import annotations

from typing import Sequence

from egalloc.intersection import max_common_independent
from egalloc.lorenz import potential
from egalloc.matroid import ItemSet, MatroidSpec
from egalloc.model import Allocation, PriorityOrder, check_priority, identity_priority


def descent_lorenz(
    matroids: Sequence[MatroidSpec], m: int, sigma: PriorityOrder | None = None
) -> Allocation:
    """Welfare-maximal allocation of minimum potential, by potential descent.

    The potential is a positive integer that strictly decreases with every
    adopted transfer, so the loop ends; it stops when no lowering transfer
    is feasible.
    """
    n = len(matroids)
    sigma = identity_priority(n) if sigma is None else check_priority(sigma, n)
    ordered = [matroids[agent] for agent in sigma]
    by_rank = _descent_rank_ordered(ordered, m)
    bundles = [frozenset()] * n
    for rank0, agent in enumerate(sigma):
        bundles[agent] = by_rank[rank0]
    return Allocation(tuple(bundles), m)


def _descent_rank_ordered(matroids, m):
    n = len(matroids)
    alloc = max_common_independent(matroids, m)
    bundles = list(alloc.bundles)
    profile = [len(b) for b in bundles]
    current_pot = potential(profile, identity_priority(n))

    max_rounds = (n * (m + 2)) ** 2 + 1
    for _ in range(max_rounds):
        candidates = []
        for i in range(n):
            for k in range(n):
                if i == k or profile[k] == 0:
                    continue
                delta = (
                    (n * (profile[i] + 1) + i + 1) ** 2
                    - (n * profile[i] + i + 1) ** 2
                    + (n * (profile[k] - 1) + k + 1) ** 2
                    - (n * profile[k] + k + 1) ** 2
                )
                if delta < 0:
                    candidates.append((current_pot + delta, i, k))
        candidates.sort()
        for new_pot, i, k in candidates:
            targets = list(profile)
            targets[i] += 1
            targets[k] -= 1
            attempt = max_common_independent(matroids, m, caps=targets)
            if attempt.total_items() == sum(targets):
                bundles = list(attempt.bundles)
                profile = targets
                current_pot = new_pot
                break
        else:
            return bundles
    raise AssertionError("potential descent failed to terminate")


def yankee_swap_reference(
    matroids: Sequence[MatroidSpec], m: int, sigma: PriorityOrder | None = None
) -> Allocation:
    """Yankee Swap bundles with the per-item transfer-path search."""
    n = len(matroids)
    sigma = identity_priority(n) if sigma is None else check_priority(sigma, n)
    by_rank = _yankee_swap([matroids[agent] for agent in sigma], m)
    bundles = [frozenset()] * n
    for rank0, agent in enumerate(sigma):
        bundles[agent] = by_rank[rank0]
    return Allocation(tuple(bundles), m)


def _yankee_swap(matroids: Sequence[MatroidSpec], m: int) -> list[ItemSet]:
    universe = frozenset(range(m))
    supports = [sorted(spec.support() & universe, reverse=True) for spec in matroids]
    bundles: list[ItemSet] = [frozenset()] * len(matroids)
    owner: dict[int, int] = {}
    playing = [i for i, supp in enumerate(supports) if supp]
    while playing:
        still = []
        for i in playing:
            path = _transfer_path(i, matroids, supports, bundles, owner)
            if path is None:
                continue
            still.append(i)
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
    spec, own = matroids[i], bundles[i]
    parent: dict[int, int | None] = {}
    queue = []
    for g in supports[i]:
        if g not in own and spec.is_independent(own | {g}):
            if g not in owner:
                return [g]
            parent[g] = None
            queue.append(g)
    for g in queue:
        j = owner[g]
        spec, own = matroids[j], bundles[j]
        base = own - {g}
        for h in supports[j]:
            if h in parent or h in own or not spec.is_independent(base | {h}):
                continue
            parent[h] = g
            if h not in owner:
                path = [h]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return path[::-1]
            queue.append(h)
    return None
