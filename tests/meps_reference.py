"""Reference routes for exact held-out distributions and their expectations.

`held_out_outcomes` derives the held-out lists and their probabilities
from the draw itself.  `reference_run_meps` builds every atom on its own:
one PE solve and one M^X grant per (X, sigma), looping over those
outcomes outside and priority orders inside, each atom weighing its
derived probability over n!.  `reference_expected_utilities` sums
weight·f_v(A_v) atom by atom in `Fraction` arithmetic through `evaluate`.
None shares the program's held-out lists, its memo of PE halves, its M^X
grant loop or its native-type value tables (`value_functions`), so
agreement with `run_meps`, `sample_meps` and `expected_utilities` is a
differential check.

`truthfulness_threshold` measures `run_meps`: the exact ε up to which a
truthful demand report is weakly best in expectation.  Its independent
check is the worst truthfulness margin over a grid of values in
{0, 1, 1+ε}, computed from `reference_run_meps`'s atoms, which crosses
zero at that ε.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from typing import Sequence

from egalloc.errors import ValidationError
from egalloc.lorenz import compute_lorenz_dominating
from egalloc.matroid import FreeOver, ItemSet
from egalloc.mechanisms import run_meps
from egalloc.model import Allocation, Atom, OutcomeDistribution
from egalloc.valuation import AdditiveDichotomous, ValuationSpec, evaluate


def held_out_outcomes(m: int) -> list[tuple[tuple[int, ...], Fraction]]:
    """All ordered held-out outcomes with their exact probabilities.

    Drawing x uniformly, then keeping |X| = 1 with probability 1/m and
    otherwise drawing y ≠ x uniformly gives
        P[(x,)]  = 1/m * 1/m           = 1/m^2,
        P[(x,y)] = 1/m * (m-1)/m * 1/(m-1) = 1/m^2,
    so all m^2 ordered outcomes are equally likely.  Asserted here because
    `run_meps` relies on it.
    """
    if m < 1:
        raise ValidationError("at least one item required")
    single_keep = Fraction(1, m)
    outcomes: list[tuple[tuple[int, ...], Fraction]] = []
    for x in range(m):
        outcomes.append(((x,), Fraction(1, m) * single_keep))
        for y in range(m):
            if y != x:
                outcomes.append(
                    ((x, y), Fraction(1, m) * (1 - single_keep) * Fraction(1, m - 1))
                )
    uniform = Fraction(1, m * m)
    assert all(w == uniform for _, w in outcomes)
    assert sum(w for _, w in outcomes) == 1
    assert len(outcomes) == m * m
    return outcomes


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


def truthfulness_threshold(n: int, m: int):
    """The held-out mechanism's exact truthfulness threshold ε*(n, m), with
    the case attaining it, as (ε*, D, R, others); None if no case has S > 0.

    The allocation depends only on the reported demand sets, so agent 0's
    chance p(a) of getting item a depends on neither ε nor the values: p_T
    under its truthful demand D, p_R under a report R.  With value
    1 + t_a·ε (t_a in [0, 1]) on each a in D, reporting D over R gains
    A + ε·Σ_{a∈D} t_a·(p_T(a) − p_R(a)), with the gain
    A = Σ_{a∈D} (p_T(a) − p_R(a)).  The worst valuation sets t_a = 1
    exactly where p_R(a) > p_T(a), leaving A − ε·S, with the exposure
    S = Σ_{a∈D} max(0, p_R(a) − p_T(a)).  So truth is weakly best
    for every ε-leveled valuation exactly when ε ≤ min A/S over every D,
    every R with S > 0 and every multiset of the others' demands (the
    mechanism treats agents symmetrically).  A < 0 would break the
    dichotomous guarantee, and A = 0 < S would leave no ε > 0: both assert.
    """
    subsets = [frozenset(c) for k in range(m + 1) for c in combinations(range(m), k)]
    best = None
    for others in combinations_with_replacement(subsets, n - 1):
        chance = {}
        for report in subsets:
            atoms = run_meps([AdditiveDichotomous(d) for d in (report, *others)], m, 0).atoms
            chance[report] = [
                sum(atom.weight for atom in atoms if a in atom.allocation.bundles[0])
                for a in range(m)
            ]
        for truth in subsets:
            for lie in subsets:
                diffs = [chance[truth][a] - chance[lie][a] for a in truth]
                gain, exposure = sum(diffs), -sum(d for d in diffs if d < 0)
                assert gain >= 0 and not (gain == 0 < exposure), (truth, lie, others)
                if exposure and (best is None or gain / exposure < best[0]):
                    best = (gain / exposure, truth, lie, others)
    return best
