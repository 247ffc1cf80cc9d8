"""The allocation mechanisms: PE, RPE, M^X, and the randomized held-out
mechanism for ε-leveled demand reports.

PE (prioritized egalitarian): sanitize reports (anything that is not a
valid matroid rank function is replaced by the identically-zero one), then
return the non-redundant Lorenz-dominating allocation for the priority
order: the welfare-maximal allocation of minimum potential, computed by
the Yankee Swap engine `compute_lorenz_dominating` whatever the reports'
type.  Truthful for matroid-rank valuations; the harness re-verifies this
exhaustively at desk scale.

RPE: PE under a uniformly random priority order.  `run_rpe` returns the
exact distribution over all n! orders; `sample_rpe` draws one order from a
seeded PRNG.

M^X: one or two held-out items are granted sequentially to their
highest-priority demanders, the first winner dropping to lowest priority
before the second item is placed.

Held-out randomized mechanism: report demand sets only; hold out a random
ordered list X of one or two items (every ordered outcome has probability
exactly 1/m^2; re-derived and asserted below); run PE on the remaining
items under a random order sigma and M^X on X under reverse(sigma).
Requires eps < 1/(n*m^3), which makes the guaranteed held-out gain of a
truthful report outweigh any eps-scale composition gains from lying.
`run_meps` returns the exact distribution; `sample_meps` draws one outcome.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import permutations
from typing import Sequence

from .errors import CapabilityError, ValidationError
from .lorenz import compute_lorenz_dominating
from .matroid import ZERO_MATROID, FreeOver, ItemSet, MatroidSpec, validate_matroid
from .model import (
    Allocation,
    Atom,
    OutcomeDistribution,
    PriorityOrder,
    check_priority,
)
from .valuation import (
    AdditiveDichotomous,
    EpsLeveled,
    MatroidValuation,
    ValuationSpec,
    as_value,
    support,
    value_functions,
)

RPE_EXACT_MAX_AGENTS = 6

#: Largest exact held-out distribution, in atoms (m^2 * n!).  Measured with
#: `distribution --mech meps` on additive instances of density 0.3 (Python
#: 3.11, one core of a shared x86-64 VM): about 0.17 ms, 0.55 kB of output
#: and 3.5 kB of peak memory per atom, so the cap bounds a run near 1.7 s,
#: 6 MB of output and 60 MB; 6 agents over 12 items (103,680 atoms) took
#: 22 s and 63 MB of output.  It admits up to 20 items for 4 agents, 9 for
#: 5 and 3 for 6.  Sizes that must stay under it: acceptance criterion 10
#: up to 3/2 (24 atoms) and 2/4 (32); scripts/meps_margin_scan.py, 2/3
#: (18); the benchmark's exact pools, 4/8 (1,536) and 3/5 (150 per fuzz
#: candidate); the per-atom reference test, n <= 4 and m <= 6 (864).
MEPS_EXACT_MAX_ATOMS = 10_000


def sanitize_reports(reports: Sequence[ValuationSpec], m: int) -> list[MatroidSpec]:
    """Map each report to a matroid rank function, one per report.

    Additive demand sets become free matroids and valid matroid valuations
    keep their matroid.  Every other report is illegal for PE (not a
    matroid, or not a dichotomous-submodular class) and becomes
    `matroid.ZERO_MATROID`, the identically-zero valuation.
    """
    matroids: list[MatroidSpec] = []
    for rep in reports:
        if isinstance(rep, AdditiveDichotomous):
            matroids.append(FreeOver(rep.demand))
        elif isinstance(rep, MatroidValuation) and validate_matroid(rep.matroid) is None:
            matroids.append(rep.matroid)
        else:
            matroids.append(ZERO_MATROID)
    for spec in matroids:
        bad = [a for a in spec.support() if a >= m]
        if bad:
            raise ValidationError(f"report mentions items outside the universe: {sorted(bad)}")
    return matroids


def run_pe(
    reports: Sequence[ValuationSpec], m: int, sigma: PriorityOrder | None = None
) -> Allocation:
    """Prioritized egalitarian mechanism on the given reports."""
    return compute_lorenz_dominating(sanitize_reports(reports, m), m, sigma)


def run_rpe(reports: Sequence[ValuationSpec], m: int) -> OutcomeDistribution:
    """PE under uniformly random priorities, as an exact distribution.

    Sanitizes the reports once and returns all n! atoms of weight 1/n!,
    raising CapabilityError past RPE_EXACT_MAX_AGENTS agents.
    """
    return _rpe_distribution(sanitize_reports(reports, m), m)


def _rpe_distribution(matroids: Sequence[MatroidSpec], m: int) -> OutcomeDistribution:
    """All n! PE atoms of weight 1/n! for reports `sanitize_reports` already mapped."""
    n = len(matroids)
    if n > RPE_EXACT_MAX_AGENTS:
        raise CapabilityError(
            f"exact mode enumerates n! priority orders; n={n} exceeds cap {RPE_EXACT_MAX_AGENTS}"
        )
    weight = Fraction(1, math.factorial(n))
    atoms = []
    for sigma in permutations(range(n)):
        alloc = compute_lorenz_dominating(matroids, m, sigma)
        atoms.append(Atom(weight=weight, allocation=alloc, priority=sigma))
    return OutcomeDistribution(tuple(atoms))


def sample_rpe(
    reports: Sequence[ValuationSpec], m: int, seed: int | None = None
) -> tuple[Allocation, PriorityOrder]:
    """One seeded draw of the random-priority mechanism, with its trace."""
    rng = random.Random(seed)
    sigma = list(range(len(reports)))
    rng.shuffle(sigma)
    sigma = tuple(sigma)
    return run_pe(reports, m, sigma), sigma


def run_mx(
    held_out: Sequence[int],
    sigma: PriorityOrder,
    reports_on_x: Sequence[ItemSet],
    m: int,
) -> Allocation:
    """Sequential held-out allocation with priority demotion.

    The first item goes to its highest-priority demander (if any), who then
    drops to lowest priority; the second item (if present) goes to its
    highest-priority demander under the updated order.  Items demanded by
    nobody stay unallocated.
    """
    held_out = tuple(held_out)
    if len(held_out) not in (1, 2) or len(set(held_out)) != len(held_out):
        raise ValidationError("held-out list must hold 1 or 2 distinct items")
    n = len(reports_on_x)
    sigma = check_priority(sigma, n)
    xset = frozenset(held_out)
    reports = [frozenset(r) for r in reports_on_x]
    for r in reports:
        if not r <= xset:
            raise ValidationError("held-out reports must be subsets of the held-out list")
    return Allocation(_mx_bundles(held_out, sigma, reports), m)


def _mx_bundles(
    held_out: tuple[int, ...], sigma: PriorityOrder, reports: Sequence[ItemSet]
) -> list[set[int]]:
    """M^X's grants for inputs already known to be valid: distinct items in
    `held_out`, a permutation `sigma` and reports that are subsets of X."""
    bundles: list[set[int]] = [set() for _ in reports]
    order = list(sigma)
    first = held_out[0]
    for agent in order:
        if first in reports[agent]:
            bundles[agent].add(first)
            order.remove(agent)
            order.append(agent)
            break
    if len(held_out) > 1:
        second = held_out[1]
        for agent in order:
            if second in reports[agent]:
                bundles[agent].add(second)
                break
    return bundles


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


def meps_demands(valuations: Sequence[ValuationSpec]) -> list[ItemSet]:
    """Truthful demand-set reports for the held-out mechanism; other classes raise."""
    for spec in valuations:
        if not isinstance(spec, (AdditiveDichotomous, EpsLeveled)):
            raise ValidationError(
                "the held-out mechanism takes demand-set reports; matroid/xos "
                "valuations are not supported"
            )
    return [support(v) for v in valuations]


def _check_meps_inputs(demands, n, m, eps) -> list[ItemSet]:
    """The demands as frozensets, once eps, m and every item are checked."""
    eps = as_value(eps)
    if n < 1 or m < 1:
        raise ValidationError("at least one agent and one item required")
    if eps >= Fraction(1, n * m**3):
        raise ValidationError(
            f"eps must be below 1/(n*m^3) = 1/{n * m**3}; got {eps}"
        )
    clean = []
    for d in demands:
        d = frozenset(d)
        bad = [a for a in d if not (0 <= a < m)]
        if bad:
            raise ValidationError(f"demand report outside the item universe: {sorted(bad)}")
        clean.append(d)
    return clean


def _meps_realization(
    demands: Sequence[ItemSet],
    m: int,
    held_out: tuple[int, ...],
    sigma: PriorityOrder,
    pe_halves: dict[ItemSet, Allocation],
) -> Allocation:
    """One realization: PE on demands∖X under sigma, M^X on X under reverse(sigma).

    The PE half depends on X only through its demanded part X ∩ ∪demands,
    since d − X = d − (X ∩ ∪demands) for every report d: not on the order
    of X, nor on held-out items nobody demands.  So it is looked up in
    `pe_halves`, keyed by that part, and solved only on a miss; the memo is
    valid for one sigma only.  M^X runs through `_mx_bundles` without
    `run_mx`'s input checks, which every caller meets by construction: X
    holds distinct items, sigma is a permutation and each d ∩ X lies in X.
    The merged allocation is still validated, so an overlap between the
    two halves raises.
    """
    xset = frozenset(held_out)
    on_x = [d & xset for d in demands]
    demanded = frozenset().union(*on_x)
    pe = pe_halves.get(demanded)
    if pe is None:
        pe = compute_lorenz_dominating([FreeOver(d - demanded) for d in demands], m, sigma)
        pe_halves[demanded] = pe
    mx = _mx_bundles(held_out, tuple(reversed(sigma)), on_x)
    return Allocation(tuple(b | x for b, x in zip(pe.bundles, mx)), m)


def run_meps(demands: Sequence[ItemSet], m: int, eps) -> OutcomeDistribution:
    """Randomized held-out mechanism for ε-leveled demand-set reports, as an
    exact distribution.

    Enumerates all m^2 held-out outcomes times n! priority orders (atom
    weight 1/(m^2 n!)), and raises CapabilityError before enumerating when
    there are more than MEPS_EXACT_MAX_ATOMS of them.

    Loops over priority orders outside and held-out outcomes inside,
    keeping one memo of PE halves per order (at most 1 + u + C(u, 2)
    entries for u demanded items), so PE is solved once per (sigma,
    X ∩ ∪demands) rather than once per atom.  Atom h·n! + k is outcome h
    under order k, so the atoms keep their outcome-major order and every
    atom is the one the per-atom loop would build.
    """
    n = len(demands)
    demands = _check_meps_inputs(demands, n, m, eps)
    size = m * m * math.factorial(n)
    if size > MEPS_EXACT_MAX_ATOMS:
        raise CapabilityError(
            f"exact mode enumerates m^2 * n! = {size} atoms for n={n}, m={m}; "
            f"the cap is {MEPS_EXACT_MAX_ATOMS}"
        )
    outcomes = held_out_outcomes(m)  # asserts that each weighs 1/m^2
    orders = list(permutations(range(n)))
    weight = Fraction(1, size)
    atoms: list[Atom | None] = [None] * size
    for k, sigma in enumerate(orders):
        pe_halves: dict[ItemSet, Allocation] = {}
        for h, (held_out, _) in enumerate(outcomes):
            atoms[h * len(orders) + k] = Atom(
                weight=weight,
                allocation=_meps_realization(demands, m, held_out, sigma, pe_halves),
                priority=sigma,
                held_out=held_out,
            )
    return OutcomeDistribution(tuple(atoms))


def sample_meps(
    demands: Sequence[ItemSet], m: int, eps, seed: int | None = None
) -> tuple[Allocation, tuple[int, ...], PriorityOrder]:
    """One seeded draw of the held-out mechanism, with its (X, sigma) trace.

    Draw order is fixed: first item, keep-single test, optional second
    item, then the priority shuffle; identical seeds give identical traces.
    """
    n = len(demands)
    demands = _check_meps_inputs(demands, n, m, eps)
    rng = random.Random(seed)
    x = rng.randrange(m)
    if rng.randrange(m) > 0:  # probability (m-1)/m; never fires at m = 1
        y = rng.randrange(m - 1)
        if y >= x:
            y += 1
        held_out: tuple[int, ...] = (x, y)
    else:
        held_out = (x,)
    order = list(range(n))
    rng.shuffle(order)
    sigma = tuple(order)
    return _meps_realization(demands, m, held_out, sigma, {}), held_out, sigma


def expected_utilities(
    dist: OutcomeDistribution, valuations: Sequence[ValuationSpec]
) -> tuple[Fraction, ...]:
    """Exact per-agent expectation of the true valuations over the atoms.

    Each agent's values f_v(A_v) are summed per distinct atom weight in the
    valuation's native type (`valuation.value_functions`: `Fraction` sums
    of item values for ε-leveled valuations, ints for every other tag), and
    each sum is multiplied by its weight once.
    Σ_w w·Σ_{weight(a)=w} f_v(A_v) is the same rational as the per-atom sum
    Σ_a weight(a)·f_v(A_v), so the result does not change; exact
    distributions have one or a few distinct weights.
    """
    n = len(valuations)
    # every bundle was checked against its universe by Allocation
    values = [value_functions(spec)[0] for spec in valuations]
    sums_by_weight: dict[Fraction, list] = {}
    for atom in dist.atoms:
        sums = sums_by_weight.get(atom.weight)
        if sums is None:
            sums = sums_by_weight[atom.weight] = [0] * n
        bundles = atom.allocation.bundles
        for v in range(n):
            sums[v] += values[v](bundles[v])
    totals = [Fraction(0)] * n
    for weight, sums in sums_by_weight.items():
        for v in range(n):
            totals[v] += weight * sums[v]
    return tuple(totals)


def floor_reports(instance_valuations: Sequence[ValuationSpec]) -> list[ValuationSpec]:
    """Demand-set (floored) reports corresponding to truthful agents."""
    out: list[ValuationSpec] = []
    for spec in instance_valuations:
        if isinstance(spec, EpsLeveled):
            out.append(AdditiveDichotomous(spec.demand()))
        else:
            out.append(spec)
    return out
