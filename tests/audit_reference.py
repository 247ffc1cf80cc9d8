"""Reference routes to the auditors' verdicts, all through `evaluate`.

`reference_check_envy` answers one envy mode per sweep: it visits every
(envier, envied) pair in row-major order and builds every value with
`evaluate`, in `Fraction` arithmetic, with no shared values and no
shortcut for pairs without envy.  `reference_efficiency_metrics` forms
every metric from `evaluate`'s `Fraction` utilities, with `Fraction`
accumulators throughout.  Each shares only `evaluate` and the report
types with the program's auditor, so agreement between the two,
witnesses included, is a differential check.

Two checks have no program route: the library has no caller for them.
`reference_check_stochastic_ef` builds its own-bundle and cross-bundle
values in two separate `evaluate` loops; its failing stochastic verdict
carries a `TailWitness`.  `reference_check_lorenz_dominating` classifies
each enumerated vector by a pairwise prefix-sum walk (dominates,
dominated, equal or incomparable) and fails on the first one the
allocation does not weakly dominate; the tests check it against
`enumerate_optimal`'s Lorenz-dominating set.  `nsw_key` orders utility
vectors by Nash social welfare.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from egalloc.audit import BoundWitness, EfficiencyMetrics, EnvyWitness, FairnessReport, Verdict
from egalloc.errors import PreconditionError, ValidationError
from egalloc.lorenz import enumerate_optimal, potential
from egalloc.model import Allocation, Instance, OutcomeDistribution, PriorityOrder
from egalloc.valuation import ValuationSpec, evaluate


@dataclass(frozen=True)
class TailWitness:
    """Pr[f_envier(A_envier) >= threshold] < Pr[f_envier(A_envied) >= threshold]."""

    envier: int
    envied: int
    threshold: Fraction
    own_tail: Fraction
    other_tail: Fraction


def reference_check_envy(
    allocation: Allocation,
    valuations: Sequence[ValuationSpec],
    mode: str = "EFX",
    alpha=1,
) -> FairnessReport:
    """α-EF / α-EF1 / α-EFX verdict for one mode, with an envy witness on failure.

    EF:  f_i(A_i) >= α f_i(A_j) for all pairs.
    EF1: some item of A_j can be removed to kill the (α-scaled) envy.
    EFX: every item of A_j can be.
    """
    if mode not in ("EF", "EF1", "EFX"):
        raise ValidationError(f"unknown envy mode {mode!r}")
    alpha = Fraction(alpha)
    if not (0 < alpha <= 1):
        raise PreconditionError(f"alpha must lie in (0, 1], got {alpha}")
    n = allocation.n
    m = allocation.m
    for i in range(n):
        own = evaluate(valuations[i], allocation.bundles[i], m)
        for j in range(n):
            if i == j:
                continue
            other = allocation.bundles[j]
            if mode == "EF":
                req = alpha * evaluate(valuations[i], other, m)
                if own < req:
                    w = EnvyWitness(i, j, None, own, req)
                    return FairnessReport(((mode, Verdict(False, w)),))
            elif mode == "EF1":
                if not other:
                    continue
                best = min(
                    evaluate(valuations[i], other - {a}, m) for a in sorted(other)
                )
                if own < alpha * best:
                    w = EnvyWitness(i, j, None, own, alpha * best)
                    return FairnessReport(((mode, Verdict(False, w)),))
            else:  # EFX
                for a in sorted(other):
                    req = alpha * evaluate(valuations[i], other - {a}, m)
                    if own < req:
                        w = EnvyWitness(i, j, a, own, req)
                        return FairnessReport(((mode, Verdict(False, w)),))
    return FairnessReport(((mode, Verdict(True)),))


def reference_check_stochastic_ef(
    dist: OutcomeDistribution, valuations: Sequence[ValuationSpec]
) -> FairnessReport:
    """Stochastic envy-freeness plus the ex-ante EF and proportionality checks.

    For each agent pair (i, j) and every achievable value t of f_i over the
    atoms: Pr[f_i(A_i) >= t] must weakly exceed Pr[f_i(A_j) >= t], exactly.
    """
    n = len(valuations)
    if not dist.atoms:
        raise ValidationError("empty distribution")
    m = dist.atoms[0].allocation.m

    own_vals: list[list[Fraction]] = [[] for _ in range(n)]
    cross_vals: dict[tuple[int, int], list[Fraction]] = {}
    weights = [atom.weight for atom in dist.atoms]
    for atom in dist.atoms:
        for i in range(n):
            own_vals[i].append(evaluate(valuations[i], atom.allocation.bundles[i], m))
    for i in range(n):
        for j in range(n):
            if i != j:
                cross_vals[(i, j)] = [
                    evaluate(valuations[i], atom.allocation.bundles[j], m)
                    for atom in dist.atoms
                ]

    stochastic = Verdict(True)
    for i in range(n):
        if not stochastic.holds:
            break
        for j in range(n):
            if i == j:
                continue
            other = cross_vals[(i, j)]
            thresholds = sorted(set(own_vals[i]) | set(other))
            for t in thresholds:
                if t <= 0:
                    continue
                own_tail = sum(
                    (w for w, val in zip(weights, own_vals[i]) if val >= t), Fraction(0)
                )
                other_tail = sum(
                    (w for w, val in zip(weights, other) if val >= t), Fraction(0)
                )
                if own_tail < other_tail:
                    stochastic = Verdict(False, TailWitness(i, j, t, own_tail, other_tail))
                    break
            if not stochastic.holds:
                break

    expectations = [
        sum((w * val for w, val in zip(weights, own_vals[i])), Fraction(0))
        for i in range(n)
    ]
    ex_ante_ef = Verdict(True)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            cross_exp = sum(
                (w * val for w, val in zip(weights, cross_vals[(i, j)])), Fraction(0)
            )
            if expectations[i] < cross_exp:
                ex_ante_ef = Verdict(False, BoundWitness(i, cross_exp, expectations[i]))
                break
        if not ex_ante_ef.holds:
            break

    ex_ante_prop = Verdict(True)
    for i in range(n):
        share = evaluate(valuations[i], frozenset(range(m)), m) / n
        if expectations[i] < share:
            ex_ante_prop = Verdict(False, BoundWitness(i, share, expectations[i]))
            break

    return FairnessReport(
        (
            ("stochastic_ef", stochastic),
            ("ex_ante_ef", ex_ante_ef),
            ("ex_ante_proportional", ex_ante_prop),
        )
    )


def reference_check_lorenz_dominating(allocation: Allocation, instance: Instance) -> FairnessReport:
    """Does the allocation Lorenz-dominate every allocation of the instance?

    Each enumerated vector, sorted ascending, is compared with the
    allocation's sorted vector prefix by prefix; the first one that the
    allocation is dominated by or incomparable with is the witness.
    """
    result = enumerate_optimal(instance)
    own_sorted = tuple(sorted(allocation.utilities(instance.valuations)))
    for idx, vec in enumerate(result.vectors):
        other_sorted = tuple(sorted(vec))
        if len(own_sorted) != len(other_sorted):
            raise ValidationError("sorted utility vectors must have equal length")
        ge = le = True
        pu = pv = Fraction(0)
        for a, b in zip(own_sorted, other_sorted):
            pu += a
            pv += b
            if pu < pv:
                ge = False
            if pu > pv:
                le = False
        if ge and le:
            relation = "equal"
        elif ge:
            relation = "dominates"
        elif le:
            relation = "dominated"
        else:
            relation = "incomparable"
        if relation in ("dominated", "incomparable"):
            witness = (result.allocations[idx].bundles, other_sorted)
            return FairnessReport((("lorenz_dominating", Verdict(False, witness)),))
    return FairnessReport((("lorenz_dominating", Verdict(True)),))


def reference_efficiency_metrics(
    allocation: Allocation,
    valuations: Sequence[ValuationSpec],
    sigma: PriorityOrder,
) -> EfficiencyMetrics:
    utils = allocation.utilities(valuations)
    prod = Fraction(1)
    for u in utils:
        prod *= u
    return EfficiencyMetrics(
        utilities=utils,
        welfare=sum(utils, Fraction(0)),
        nsw=prod,
        sum_squares=sum((u * u for u in utils), Fraction(0)),
        sorted_vector=tuple(sorted(utils)),
        potential=potential(allocation.profile(), sigma),
    )


def nsw_key(vector: Sequence[Fraction]) -> tuple[int, Fraction]:
    """Comparison key for Nash social welfare in exact arithmetic.

    Zero factors compare by count first (fewer zeros is better), then by
    the product of the nonzero entries; this matches the lex-min ordering
    whenever plain products tie at zero.
    """
    nonzero = [x for x in vector if x != 0]
    prod = Fraction(1)
    for x in nonzero:
        prod *= x
    return (len(nonzero), prod)
