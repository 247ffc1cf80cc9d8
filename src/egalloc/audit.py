"""Fairness and efficiency auditors over one allocation: envy (EF, EF1,
EFX), maximin share and the efficiency metrics, all exact, each failing
verdict with a checkable witness.  Stochastic envy-freeness and Lorenz
dominance have one route, the tests' (`tests/audit_reference.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .errors import CapabilityError, PreconditionError, ValidationError
from .lorenz import potential
from .model import Allocation, PriorityOrder
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
class Verdict:
    holds: bool
    witness: object | None = None


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
    fails no mode and needs no drop values, and i envies no j that holds
    none of i's support items.  Values come from
    `valuation.value_functions`, in the valuation's native type.
    """
    modes = (mode,) if isinstance(mode, str) else tuple(mode)
    if not modes:
        raise ValidationError("no envy mode given")
    for name in modes:
        if name not in ("EF", "EF1", "EFX"):
            raise ValidationError(f"unknown envy mode {name!r}")
    alpha = _alpha_value(alpha)
    num, den = alpha.numerator, alpha.denominator

    def below(own, value):  # own < alpha * value
        return own * den < value * num

    witnesses: dict[str, EnvyWitness] = {}
    open_modes = set(modes)
    bundles = allocation.bundles
    owner = {a: j for j, bundle in enumerate(bundles) for a in bundle}
    for i in range(allocation.n):
        # every bundle was checked against its universe by Allocation
        value, drop = value_functions(valuations[i])
        own = value(bundles[i])
        # f_i(A_j) = f_i(A_j ∩ supp_i) and f_i(∅) = 0, so i can envy only the
        # owners of its support items; ascending j keeps the row-major order
        for j in sorted({owner[a] for a in support(valuations[i]) if a in owner} - {i}):
            other = bundles[j]
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


def efficiency_metrics(
    allocation: Allocation,
    valuations: Sequence[ValuationSpec],
    sigma: PriorityOrder,
) -> EfficiencyMetrics:
    """Every field is formed in native `value_functions` values (ints, or
    `Fraction` sums for ε-leveled valuations; `Allocation` checked each
    bundle's universe) and converted to `Fraction` once."""
    utils = [value_functions(v)[0](b) for v, b in zip(valuations, allocation.bundles)]
    return EfficiencyMetrics(
        utilities=tuple(map(Fraction, utils)),
        welfare=Fraction(sum(utils)),
        nsw=Fraction(math.prod(utils)),
        sum_squares=Fraction(sum(u * u for u in utils)),
        sorted_vector=tuple(map(Fraction, sorted(utils))),
        potential=potential(allocation.profile(), sigma),
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
