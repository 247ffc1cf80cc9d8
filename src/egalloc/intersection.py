"""Maximum-size common independent set between agents' matroids and the
one-copy-per-item constraint.

Ground set: layered elements (agent, item) for every item in the agent's
demand support.  A set of elements is feasible iff each agent's items are
independent in her (possibly truncated) matroid and no item is used twice.
Maximizing the number of elements maximizes welfare over non-redundant
allocations.

The solver runs classical augmenting paths over the exchange graph:
  * sources: elements addable to the agent-side matroid,
  * sinks: elements whose item is still unused,
  * agent-side exchange arcs y→x (same agent, bundle−y+x independent),
  * item-side exchange arcs x→y (y currently uses x's item).
Each shortest source→sink path augments the solution by one element.  The
exchange graph is built from independence queries only.  Among the
shortest augmenting paths the lexicographically smallest by
(agent position, item id) is taken, so outputs are deterministic; callers
that care about priorities pass agents pre-sorted by priority rank.
"""

from __future__ import annotations

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
    n = len(matroids)
    caps = _effective_caps(matroids, caps)
    universe = frozenset(range(m))
    supports = [sorted(spec.support() & universe) for spec in matroids]
    for v, cap in enumerate(caps):
        if cap == 0:
            supports[v] = []

    bundles: list[set[int]] = [set() for _ in range(n)]
    user: dict[int, int] = {}  # item -> agent currently holding it

    while True:
        path = _lex_min_shortest_path(matroids, caps, supports, bundles, user)
        if path is None:
            break
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


def _lex_min_shortest_path(matroids, caps, supports, bundles, user):
    """Lexicographically smallest shortest augmenting path, or None."""
    n = len(matroids)

    def addable(v: int, a: int) -> bool:
        if caps[v] is not None and len(bundles[v]) + 1 > caps[v]:
            return False
        return matroids[v].is_independent(frozenset(bundles[v]) | {a})

    sources = [
        (v, a)
        for v in range(n)
        for a in supports[v]
        if a not in bundles[v] and addable(v, a)
    ]
    if not sources:
        return None

    def is_sink(x: Element) -> bool:
        return x[1] not in user

    def out_edges(node: Element, in_solution: bool):
        v, a = node
        if in_solution:
            # same-agent exchange: bundle − a + b stays independent
            base = frozenset(bundles[v]) - {a}
            for b in supports[v]:
                if b == a or b in bundles[v]:
                    continue
                y = (v, b)
                if addable(v, b):
                    continue  # sources never need incoming arcs on shortest paths
                if matroids[v].is_independent(base | {b}):
                    yield y
        else:
            holder = user.get(a)
            if holder is not None:
                yield (holder, a)

    # forward BFS (distance from sources)
    dist: dict[Element, int] = {}
    order = sorted(sources)
    for s in order:
        dist[s] = 0
    frontier = order
    best_sink_dist = None
    while frontier and best_sink_dist is None:
        if any(is_sink(x) for x in frontier):
            best_sink_dist = dist[frontier[0]]
            break
        nxt = []
        for node in frontier:
            in_sol = node[1] in bundles[node[0]]
            for succ in out_edges(node, in_sol):
                if succ not in dist:
                    dist[succ] = dist[node] + 1
                    nxt.append(succ)
        frontier = sorted(set(nxt))
    if best_sink_dist is None:
        return None
    total_len = best_sink_dist

    # backward distances to the nearest sink, over nodes already BFS-reachable
    db: dict[Element, int] = {}
    sinks = [x for x, d in dist.items() if d <= total_len and is_sink(x)]
    for x in sinks:
        db[x] = 0
    # reverse adjacency restricted to discovered nodes
    preds: dict[Element, list[Element]] = {}
    for node, d in dist.items():
        if d >= total_len:
            continue
        in_sol = node[1] in bundles[node[0]]
        for succ in out_edges(node, in_sol):
            if succ in dist and dist[succ] == d + 1:
                preds.setdefault(succ, []).append(node)
    layer = sinks
    steps = 0
    while layer and steps < total_len:
        nxt = []
        for node in layer:
            for p in preds.get(node, []):
                if p not in db:
                    db[p] = db[node] + 1
                    nxt.append(p)
        layer = nxt
        steps += 1

    # greedy lexicographic walk along the layered DAG
    start_candidates = sorted(s for s in sources if db.get(s) == total_len)
    node = start_candidates[0]
    path = [node]
    while not (len(path) % 2 == 1 and is_sink(node)):
        in_sol = node[1] in bundles[node[0]]
        succs = sorted(
            x for x in out_edges(node, in_sol) if db.get(x) == total_len - len(path)
        )
        node = succs[0]
        path.append(node)
    return path


def feasible_with_profile(
    matroids: Sequence[MatroidSpec], m: int, targets: Sequence[int]
) -> bool:
    """True iff some allocation gives agent v exactly targets[v] independent items."""
    targets = list(targets)
    if any(t < 0 for t in targets):
        raise ValidationError("profile targets must be >= 0")
    best = max_common_independent(matroids, m, caps=targets)
    return best.total_items() == sum(targets)
