"""Reference explicit-family validators, kept as test oracles.

`reference_exchange_violations` is the closure-based validator
`egalloc.matroid` used when `Explicit` stored the full downward closure of
its listed sets: build every subset of every listed set, then check the
augmentation axiom between each pair of adjacent sizes.
`reference_maximal_sets` and `reference_validate_explicit` are the
pairwise maximal-set filter and the ordered basis-exchange scan that
`Explicit` and `_validate_explicit` used before both worked by item
bitmasks.  `tests/test_matroid.py` compares the validator against them on
random families.  `brute_force_rank` is the largest independent subset
found by subset enumeration, the oracle the rank functions are checked
against.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from egalloc.matroid import ItemSet, MatroidSpec, Violation


def downward_closure(sets: Iterable[ItemSet]) -> frozenset[ItemSet]:
    """Every subset of every listed set."""
    closed: set[ItemSet] = set()
    for t in sets:
        if t in closed:
            continue
        items = sorted(t)
        for k in range(len(items) + 1):
            for sub in combinations(items, k):
                closed.add(frozenset(sub))
    return frozenset(closed)


def reference_exchange_violations(sets: Iterable[ItemSet]) -> list[Violation]:
    """Augmentation failures of the downward closure of `sets`.

    Consecutive sizes suffice for downward-closed families: for |T| > |S|+1
    drop elements of T∖S until the sizes are adjacent.
    """
    fam = downward_closure(sets)
    by_size: dict[int, list[ItemSet]] = {}
    for t in fam:
        by_size.setdefault(len(t), []).append(t)
    out: list[Violation] = []
    for k in sorted(by_size):
        if k + 1 not in by_size:
            continue
        for s in by_size[k]:
            for t in by_size[k + 1]:
                if not any(s | {x} in fam for x in t - s):
                    out.append(Violation("exchange", (tuple(sorted(s)), tuple(sorted(t)))))
    return out


def reference_maximal_sets(sets: Iterable[ItemSet]) -> frozenset[ItemSet]:
    """The listed sets that lie inside no other, by pairwise subset tests."""
    given = sorted({frozenset(t) for t in sets}, key=len, reverse=True)
    maximal: list[ItemSet] = []
    for t in given:
        if not any(t <= kept for kept in maximal):
            maximal.append(t)
    return frozenset(maximal)


def reference_validate_explicit(family: frozenset[ItemSet]) -> Violation | None:
    """The first basis-exchange failure of a family of maximal sets.

    Rests b - x in sorted order, each against every basis in (size, sorted)
    order; the first basis missing all items that extend the rest to a
    basis gives the witness.
    """
    bases = sorted(family, key=lambda t: (len(t), sorted(t)))
    smallest, largest = bases[0], bases[-1]
    if len(smallest) < len(largest):
        return Violation("exchange", (tuple(sorted(smallest)), tuple(sorted(largest))))
    universe = frozenset().union(*family)
    for rest in sorted({b - {x} for b in bases for x in b}, key=sorted):
        extends = frozenset(y for y in universe - rest if rest | {y} in family)
        for b in bases:
            if b.isdisjoint(extends):
                return Violation("exchange", (tuple(sorted(rest)), tuple(sorted(b))))
    return None


def brute_force_rank(spec: MatroidSpec, s: ItemSet) -> int:
    """Size of the largest independent subset of s, by subset enumeration.

    Independent oracle for rank(); exponential in |s|.
    """
    items = sorted(s)
    best = 0
    for k in range(len(items), 0, -1):
        if k <= best:
            break
        for sub in combinations(items, k):
            if spec.is_independent(frozenset(sub)):
                best = k
                break
    return best
