"""Maximum-size common independent set between agents' matroids and the
one-copy-per-item constraint.

Ground set: layered elements (agent, item) for every item in the agent's
demand support.  A set of elements is feasible iff each agent's items are
independent in her (possibly truncated) matroid and no item is used twice.
Maximizing the number of elements maximizes welfare over non-redundant
allocations.  No mechanism calls it: it backs the potential descent in
`tests/lorenz_reference.py`, and the benchmark's tracer looks it up by
name.

The solver runs classical augmenting paths over the exchange graph
(Cunningham, SIAM J. Comput. 15, 1986):
  * sources: elements addable to the agent-side matroid,
  * sinks: elements whose item is still unused,
  * agent-side exchange arcs y→x (same agent, bundle−y+x independent),
  * item-side exchange arcs x→y (y currently uses x's item).
Each augmentation runs one breadth-first search that seeds every source
at distance 0, scans elements in ascending (agent position, item id)
order and stops at the first sink it dequeues.  Its path is a shortest
one, so it has no shortcut arcs and flipping it keeps every bundle
independent and every item used once (Schrijver, *Combinatorial
Optimization*, ch. 41); the scan order only makes the output
deterministic.  The graph is built from independence queries only.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from .errors import ValidationError
from .matroid import MatroidSpec
from .model import Allocation

Element = tuple[int, int]  # (agent position, item id)


def _effective_caps(matroids: Sequence[MatroidSpec], caps) -> list[int | None]:
    n = len(matroids)
    if caps is None:
        return [None] * n
    caps = list(caps)
    if len(caps) != n:
        raise ValidationError("one cap per agent required")
    for c in caps:
        if c is not None and c < 0:
            raise ValidationError("caps must be >= 0")
    return caps


def max_common_independent(
    matroids: Sequence[MatroidSpec],
    m: int,
    caps: Sequence[int | None] | None = None,
) -> Allocation:
    """A maximum-total allocation with every bundle independent (cap-respecting).

    Bundles are independent sets in each agent's matroid truncated at her
    cap, and every item is used at most once; the total size is maximal
    subject to that.  Output is non-redundant by construction.
    """
    caps = _effective_caps(matroids, caps)
    universe = frozenset(range(m))
    supports = [sorted(spec.support() & universe) for spec in matroids]
    bundles: list[set[int]] = [set() for _ in matroids]
    user: dict[int, int] = {}  # item -> agent currently holding it
    while (path := _shortest_path(matroids, caps, supports, bundles, user)) is not None:
        # even positions enter the solution, odd positions leave it; an
        # item's entry always precedes its exit along the path, so setting
        # user[] at entries leaves the map consistent
        for idx, (v, a) in enumerate(path):
            if idx % 2 == 0:
                bundles[v].add(a)
                user[a] = v
            else:
                bundles[v].discard(a)
    return Allocation(tuple(frozenset(b) for b in bundles), m)


def _shortest_path(matroids, caps, supports, bundles, user) -> list[Element] | None:
    """The first shortest augmenting path one breadth-first search finds, or None."""
    parent: dict[Element, Element | None] = {
        (v, a): None
        for v, spec in enumerate(matroids)
        if caps[v] is None or len(bundles[v]) < caps[v]
        for a in supports[v]
        if a not in bundles[v] and spec.is_independent(frozenset(bundles[v]) | {a})
    }
    queue = deque(parent)
    while queue:
        node = queue.popleft()
        v, a = node
        if a in bundles[v]:  # agent-side arcs: swap a for another of v's items
            base = frozenset(bundles[v]) - {a}
            succs = [
                (v, b)
                for b in supports[v]
                if b not in bundles[v]
                and (v, b) not in parent
                and matroids[v].is_independent(base | {b})
            ]
        elif a in user:  # item-side arc: to the element now using a
            succs = [(user[a], a)]
        else:  # a sink: walk the parents back to its source
            path = [node]
            while (node := parent[node]) is not None:
                path.append(node)
            return path[::-1]
        for succ in succs:
            if succ not in parent:
                parent[succ] = node
                queue.append(succ)
    return None
