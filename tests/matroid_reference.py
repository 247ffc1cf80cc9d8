"""Reference explicit-family validator, kept as a test oracle.

This is the closure-based validator `egalloc.matroid` used when `Explicit`
stored the full downward closure of its listed sets: build every subset of
every listed set, then check the augmentation axiom between each pair of
adjacent sizes.  `tests/test_matroid.py` compares the basis-exchange
validator against it on random families.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from egalloc.matroid import ItemSet, Violation


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
