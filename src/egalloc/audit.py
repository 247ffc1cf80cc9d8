"""Fairness and efficiency auditors over concrete allocations and exact
outcome distributions.

Every verdict is computed in exact arithmetic and every failing verdict
carries a checkable witness.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from typing import Sequence

from .errors import CapabilityError, PreconditionError, ValidationError
from .lorenz import enumerate_optimal, potential
from .model import Allocation, Instance, OutcomeDistribution, PriorityOrder
from .valuation import (
    AdditiveDichotomous, ValuationSpec, as_value, evaluate, support, value_functions
)

MAXIMIN_MAX_ITEMS = 10
MAXIMIN_MAX_AGENTS = 4


@dataclass(frozen=True)
class EnvyWitness:
    envier: int
    envied: int
    item: int | None
    own_value: Fraction
    required: Fraction


@dataclass(frozen=True)
class BoundWitness:
    agent: int
    bound: Fraction
    actual: Fraction


@dataclass(frozen=True)
class TailWitness:
    envier: int
    envied: int
    threshold: Fraction
    own_tail: Fraction
    other_tail: Fraction


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: object | None = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class FairnessReport:
    entries: tuple[tuple[str, Verdict], ...]

    def verdict(self, name: str) -> Verdict:
        for key, v in self.entries:
            if key == name:
                return v
        raise KeyError(name)

    def holds(self, name: str) -> bool:
        return self.verdict(name).holds

    @property
    def all_hold(self) -> bool:
        return all(v.holds for _, v in self.entries)


def _alpha_value(alpha) -> Fraction:
    alpha = as_value(alpha)
    if not (0 < alpha <= 1):
        raise PreconditionError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha


def check_envy(
    allocation: Allocation,
    valuations: Sequence[ValuationSpec],
    mode: str | Sequence[str] = "EFX",
    alpha=1,
) -> FairnessReport:
    """α-EF / α-EF1 / α-EFX verdicts with an envy witness on each failure.

    EF:  f_i(A_i) >= α f_i(A_j) for all pairs.
    EF1: some item of A_j can be removed to kill the (α-scaled) envy.
    EFX: every item of A_j can be.

    `mode` is one mode name or a sequence of them; the report has one entry
    per mode, in the order given.  One sweep over the (envier i, envied j)
    pairs in row-major order answers every mode: per pair it computes
    f_i(A_i), f_i(A_j) and the drop values f_i(A_j − a), a ascending, once.
    A failing mode's witness is its first failing pair in that order and,
    for EFX, the lowest item whose removal leaves the envy.  A mode is not
    checked past its first failure, and the sweep ends once every mode has
    failed.  Valuations are monotone, so a pair with f_i(A_i) >= α f_i(A_j)
    fails no mode and needs no drop values.  Values come from
    `valuation.value_functions`, in the valuation's native type.
    """
    modes = (mode,) if isinstance(mode, str) else tuple(mode)
    if not modes:
        raise ValidationError("no envy mode given")
    for name in modes:
        if name not in ("EF", "EF1", "EFX"):
            raise ValidationError(f"unknown envy mode {name!r}")
    alpha = _alpha_value(alpha)
    if alpha == 1:
        below = operator.lt
    else:
        num, den = alpha.numerator, alpha.denominator

        def below(own, value):  # own < alpha * value
            return own * den < value * num

    witnesses: dict[str, EnvyWitness] = {}
    open_modes = set(modes)
    bundles = allocation.bundles
    for i in range(allocation.n):
        # every bundle was checked against its universe by Allocation
        value, drop = value_functions(valuations[i])
        own = value(bundles[i])
        for j, other in enumerate(bundles):
            if i == j:
                continue
            whole = value(other)
            if not below(own, whole):
                continue
            failed = []
            if "EF" in open_modes:
                failed.append(("EF", None, whole))
            ef1 = "EF1" in open_modes
            efx = "EFX" in open_modes
            lowest = whole
            for a in sorted(other) if ef1 or efx else ():
                rest = drop(other, whole, a)
                if below(own, rest):
                    if efx:
                        failed.append(("EFX", a, rest))
                        efx = False
                    lowest = min(lowest, rest)
                else:
                    ef1 = False
                if not (ef1 or efx):
                    break
            if ef1:
                failed.append(("EF1", None, lowest))
            for name, item, required in failed:
                witnesses[name] = EnvyWitness(
                    i, j, item, Fraction(own), alpha * Fraction(required)
                )
                open_modes.discard(name)
            if not open_modes:
                break
        if not open_modes:
            break
    return FairnessReport(
        tuple(
            (name, Verdict(False, witnesses[name]) if name in witnesses else Verdict(True))
            for name in modes
        )
    )


def maximin_share(valuation: ValuationSpec, n: int, m: int) -> Fraction:
    """Best guaranteed minimum bundle value over own partitions into n parts.

    Additive-dichotomous valuations use the closed form floor(|D| / n);
    everything else is brute-forced over ordered partitions (the first item
    of the universe is pinned to part 0, as parts are exchangeable), and
    raises CapabilityError past MAXIMIN_MAX_ITEMS items or
    MAXIMIN_MAX_AGENTS agents.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if isinstance(valuation, AdditiveDichotomous):
        return Fraction(len(valuation.demand) // n)
    if n == 1:
        return evaluate(valuation, frozenset(range(m)), m)
    return _maximin_brute(valuation, n, m)


def _maximin_brute(valuation, n, m) -> Fraction:
    if m > MAXIMIN_MAX_ITEMS or n > MAXIMIN_MAX_AGENTS:
        raise CapabilityError(
            f"maximin brute force capped at m<={MAXIMIN_MAX_ITEMS}, n<={MAXIMIN_MAX_AGENTS}; "
            f"got m={m}, n={n}"
        )
    relevant = sorted(support(valuation) & frozenset(range(m)))
    if not relevant:
        return Fraction(0)
    values = {}
    for mask in range(1 << len(relevant)):
        items = frozenset(relevant[i] for i in range(len(relevant)) if mask >> i & 1)
        values[mask] = evaluate(valuation, items, m)
    best = Fraction(0)
    # part labels are exchangeable: pin the first item to part 0
    for assign in product(range(n), repeat=len(relevant) - 1):
        masks = [0] * n
        masks[0] |= 1
        for i, part in enumerate(assign):
            masks[part] |= 1 << (i + 1)
        worst = min(values[mk] for mk in masks)
        if worst > best:
            best = worst
    return best


@dataclass(frozen=True)
class EfficiencyMetrics:
    utilities: tuple[Fraction, ...]
    welfare: Fraction
    nsw: Fraction
    sum_squares: Fraction
    sorted_vector: tuple[Fraction, ...]
    potential: int


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


def efficiency_metrics(
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


def check_lorenz_dominating(allocation: Allocation, instance: Instance) -> FairnessReport:
    """Does the allocation Lorenz-dominate every allocation of the instance?

    No enumerated utility vector, sorted ascending, may have a larger prefix
    sum (the rule of `enumerate_optimal`); the witness is the first that
    does.  Capability-capped like `enumerate_optimal`.
    """
    result = enumerate_optimal(instance)
    own = tuple(accumulate(sorted(allocation.utilities(instance.valuations))))
    for other, vec in zip(result.allocations, result.vectors):
        ranked = tuple(sorted(vec))
        if any(p > q for p, q in zip(accumulate(ranked), own)):
            witness = (other.bundles, ranked)
            return FairnessReport((("lorenz_dominating", Verdict(False, witness)),))
    return FairnessReport((("lorenz_dominating", Verdict(True)),))


def check_stochastic_ef(
    dist: OutcomeDistribution, valuations: Sequence[ValuationSpec]
) -> FairnessReport:
    """Stochastic envy-freeness plus the ex-ante EF and proportionality checks.

    For each agent pair (i, j) and every achievable value t of f_i over the
    atoms (tails are step functions, so these thresholds are complete):
    Pr[f_i(A_i) >= t] must weakly exceed Pr[f_i(A_j) >= t], exactly.
    """
    n = len(valuations)
    if not dist.atoms:
        raise ValidationError("empty distribution")
    m = dist.atoms[0].allocation.m

    # table[i][j]: f_i(A_j) per atom, in the valuation's native type; every
    # bundle was checked against its universe by Allocation
    weights = [atom.weight for atom in dist.atoms]
    table = []
    for spec in valuations:
        value = value_functions(spec)[0]
        table.append(
            [[value(atom.allocation.bundles[j]) for atom in dist.atoms] for j in range(n)]
        )

    stochastic = Verdict(True)
    for i in range(n):
        if not stochastic.holds:
            break
        own = table[i][i]
        for j in range(n):
            if i == j:
                continue
            other = table[i][j]
            thresholds = sorted(set(own) | set(other))
            for t in thresholds:
                if t <= 0:
                    continue
                own_tail = sum(
                    (w for w, val in zip(weights, own) if val >= t), Fraction(0)
                )
                other_tail = sum(
                    (w for w, val in zip(weights, other) if val >= t), Fraction(0)
                )
                if own_tail < other_tail:
                    witness = TailWitness(i, j, Fraction(t), own_tail, other_tail)
                    stochastic = Verdict(False, witness)
                    break
            if not stochastic.holds:
                break

    expectations = [
        sum((w * val for w, val in zip(weights, table[i][i])), Fraction(0))
        for i in range(n)
    ]
    ex_ante_ef = Verdict(True)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            cross_exp = sum(
                (w * val for w, val in zip(weights, table[i][j])), Fraction(0)
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


def check_maximin_fair(
    allocation: Allocation,
    valuations: Sequence[ValuationSpec],
    alpha=1,
) -> FairnessReport:
    """Every agent receives at least α times her maximin share."""
    alpha = _alpha_value(alpha)
    n = allocation.n
    for i in range(n):
        share = maximin_share(valuations[i], n, allocation.m)
        got = evaluate(valuations[i], allocation.bundles[i], allocation.m)
        if got < alpha * share:
            w = BoundWitness(i, alpha * share, got)
            return FairnessReport((("maximin", Verdict(False, w)),))
    return FairnessReport((("maximin", Verdict(True)),))
