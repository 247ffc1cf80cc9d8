"""Reference routes for exact held-out distributions and their expectations.

`reference_run_meps` builds every atom on its own: one PE solve and one
M^X grant per (X, sigma), looping over held-out outcomes outside and
priority orders inside.  `reference_expected_utilities` sums
weight·f_v(A_v) atom by atom in `Fraction` arithmetic through `evaluate`.
Neither shares the program's memo of PE halves, its M^X grant loop or its
grouping by weight, so agreement with `run_meps` and
`expected_utilities` is a differential check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from typing import Sequence

from egalloc.lorenz import compute_lorenz_dominating
from egalloc.matroid import FreeOver, ItemSet
from egalloc.mechanisms import held_out_outcomes
from egalloc.model import Allocation, Atom, OutcomeDistribution
from egalloc.valuation import ValuationSpec, evaluate


def reference_run_meps(demands: Sequence[ItemSet], m: int) -> OutcomeDistribution:
    """All m^2·n! atoms of the held-out mechanism, each built from scratch."""
    demands = [frozenset(d) for d in demands]
    n = len(demands)
    perm_weight = Fraction(1, math.factorial(n))
    atoms = []
    for held_out, x_weight in held_out_outcomes(m):
        xset = frozenset(held_out)
        for sigma in permutations(range(n)):
            pe = compute_lorenz_dominating([FreeOver(d - xset) for d in demands], m, sigma)
            mx = _mx_grants(held_out, tuple(reversed(sigma)), [d & xset for d in demands])
            merged = tuple(b | x for b, x in zip(pe.bundles, mx))
            atoms.append(
                Atom(
                    weight=x_weight * perm_weight,
                    allocation=Allocation(merged, m),
                    priority=sigma,
                    held_out=held_out,
                )
            )
    return OutcomeDistribution(tuple(atoms))


def _mx_grants(held_out, sigma, reports) -> list[set[int]]:
    """M^X: the first item goes to its highest-priority demander, who drops
    to lowest priority; the second goes to its highest-priority demander."""
    bundles: list[set[int]] = [set() for _ in reports]
    order = list(sigma)
    for k, item in enumerate(held_out):
        winner = next((v for v in order if item in reports[v]), None)
        if winner is None:
            continue
        bundles[winner].add(item)
        if k == 0:
            order.remove(winner)
            order.append(winner)
    return bundles


def reference_expected_utilities(
    dist: OutcomeDistribution, valuations: Sequence[ValuationSpec]
) -> tuple[Fraction, ...]:
    """Σ over atoms of weight·f_v(A_v), every value a `Fraction` from `evaluate`."""
    n = len(valuations)
    totals = [Fraction(0)] * n
    for atom in dist.atoms:
        for v in range(n):
            value = evaluate(valuations[v], atom.allocation.bundles[v], atom.allocation.m)
            assert type(value) is Fraction
            totals[v] += atom.weight * value
    return tuple(totals)
