"""Valuation classes: additive-dichotomous, matroid-rank, ε-leveled, XOS.

All values are exact rationals (`fractions.Fraction`); floats are rejected
at construction.  Undesired items have value exactly 0; negative values
are rejected, since the mechanisms never allocate zero-marginal items and
non-positive values would behave identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Rational
from typing import Iterable, Mapping

from .errors import ValidationError
from .matroid import ItemSet, MatroidSpec, Violation, _freeze, validate_matroid


#: Largest decimal exponent, in magnitude, of a rational literal ("1e4300").
#: `Fraction("1e999999999")` would build 10^999999999 before answering; 4,300
#: is CPython's own digit limit on the integer strings of the mantissa.
MAX_DECIMAL_EXPONENT = 4300


def as_value(x) -> Fraction:
    """Coerce an exact numeric (int/Fraction/'p/q' or decimal string) to Fraction;
    the one coercion at every boundary that takes a rational.

    Floats and bools are refused: mechanism comparisons hinge on differences
    of order eps/(n*m^2), far below float noise.
    """
    if isinstance(x, float):
        raise ValidationError(f"exact rational required, got {x!r}; floats are rejected")
    if isinstance(x, Rational) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            _, e, exponent = x.lower().rpartition("e")
            if e and abs(int(exponent)) > MAX_DECIMAL_EXPONENT:
                raise ValueError(f"decimal exponent beyond {MAX_DECIMAL_EXPONENT} in magnitude")
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational literal {x!r}: {exc}") from None
    raise ValidationError(f"exact rational required, got {type(x).__name__}")


class ValuationSpec:
    """Base class for all valuation descriptions."""

    __slots__ = ()


@dataclass(frozen=True)
class AdditiveDichotomous(ValuationSpec):
    """f(S) = |S ∩ demand|."""

    demand: ItemSet

    def __post_init__(self):
        object.__setattr__(self, "demand", _freeze(self.demand))


@dataclass(frozen=True)
class MatroidValuation(ValuationSpec):
    """f(S) = rank of S in the wrapped matroid."""

    matroid: MatroidSpec


@dataclass(frozen=True)
class EpsLeveled(ValuationSpec):
    """Additive with each listed item worth 0 or a value in [1, 1+ε]."""

    values: tuple[tuple[int, Fraction], ...]

    def __init__(self, values: Mapping[int, object] | Iterable[tuple[int, object]]):
        pairs = sorted(dict(values).items())
        norm = []
        for item, raw in pairs:
            if not isinstance(item, int) or isinstance(item, bool) or item < 0:
                raise ValidationError(f"item ids must be non-negative integers, got {item!r}")
            val = as_value(raw)
            if val < 0:
                raise ValidationError(
                    f"item {item} has negative value {val}; undesired items must be "
                    "worth exactly 0 (zero-marginal items are never allocated, so "
                    "non-positive values would behave identically)"
                )
            norm.append((item, val))
        object.__setattr__(self, "values", tuple(norm))

    @cached_property
    def value_map(self) -> dict[int, Fraction]:
        return dict(self.values)

    def demand(self) -> ItemSet:
        return frozenset(a for a, v in self.values if v > 0)


@dataclass(frozen=True)
class XosFamily(ValuationSpec):
    """f(S) = max over family sets T of |T ∩ S| (dichotomous XOS)."""

    family: tuple[ItemSet, ...]

    def __post_init__(self):
        frozen = tuple(_freeze(t) for t in self.family)
        if not frozen:
            raise ValidationError("XOS family must be nonempty")
        object.__setattr__(self, "family", frozen)


def support(spec: ValuationSpec) -> ItemSet:
    """Items with positive singleton value."""
    if isinstance(spec, AdditiveDichotomous):
        return spec.demand
    if isinstance(spec, MatroidValuation):
        return spec.matroid.support()
    if isinstance(spec, EpsLeveled):
        return spec.demand()
    if isinstance(spec, XosFamily):
        return frozenset().union(*spec.family)
    raise ValidationError(f"unknown valuation tag {type(spec).__name__}")


def _check_universe(s: ItemSet, m: int | None) -> None:
    if m is not None:
        bad = [a for a in s if a >= m]
        if bad:
            raise ValidationError(f"item index out of range: {sorted(bad)} (universe size {m})")


def evaluate(spec: ValuationSpec, s: ItemSet, m: int | None = None) -> Fraction:
    """f(S) as a `Fraction`, with S checked against the universe 0..m-1 if m is given."""
    s = frozenset(s)
    _check_universe(s, m)
    return Fraction(value_functions(spec)[0](s))


def value_functions(spec: ValuationSpec):
    """(value, drop) for one valuation: S ↦ f(S) and (S, f(S), a) ↦ f(S − {a}).

    The one value rule per tag: |S ∩ D| (additive-dichotomous), the matroid
    rank, Σ of the item values (ε-leveled) and max |T ∩ S| over the family
    (XOS); each is normalized (f(∅)=0) and non-decreasing.  S is a frozenset;
    values are ints, or `Fraction` sums for ε-leveled valuations.
    """
    if isinstance(spec, AdditiveDichotomous):
        demand = spec.demand
        return (lambda s: len(s & demand)), (lambda s, whole, a: whole - (a in demand))
    if isinstance(spec, EpsLeveled):
        vm = spec.value_map
        return (
            lambda s: sum(vm[a] for a in s if a in vm),
            lambda s, whole, a: whole - vm.get(a, 0),
        )
    if isinstance(spec, MatroidValuation):
        rank = spec.matroid.rank
        return rank, (lambda s, whole, a: rank(s - {a}))
    if isinstance(spec, XosFamily):
        family = spec.family

        def value(s):
            return max(len(t & s) for t in family)

        return value, (lambda s, whole, a: value(s - {a}))
    raise ValidationError(f"unknown valuation tag {type(spec).__name__}")


def validate(spec: ValuationSpec, eps, m: int) -> Violation | None:
    """Check the valuation against its class constraints for the given ε and universe.

    Never raises for constraint violations; returns the first one with its
    witness, or None.
    """
    eps = as_value(eps)

    def outside(items: ItemSet, where: str) -> Violation | None:
        bad = sorted(a for a in items if a >= m)
        return Violation("item-in-universe", (where, tuple(bad))) if bad else None

    if isinstance(spec, AdditiveDichotomous):
        return outside(spec.demand, "demand")
    if isinstance(spec, MatroidValuation):
        # the matroid is checked first, so a family past its cap always raises
        verdict = validate_matroid(spec.matroid)
        return outside(spec.matroid.support(), "matroid support") or verdict
    if isinstance(spec, EpsLeveled):
        off_band = (
            Violation("value-in-eps-band", (item, str(val)))
            for item, val in spec.values
            if val != 0 and not (1 <= val <= 1 + eps)
        )
        return outside(frozenset(a for a, _ in spec.values), "values") or next(off_band, None)
    if isinstance(spec, XosFamily):
        return next(filter(None, (outside(t, "family") for t in spec.family)), None)
    return Violation("unknown-valuation-tag", (type(spec).__name__,))


def floor_round(spec: ValuationSpec, eps=Fraction(0), m: int | None = None) -> ValuationSpec:
    """Round the valuation down to the nearest integer on every set.

    For an ε-dichotomous valuation with ε < 1/m the floor is dichotomous
    and satisfies f(S) ≤ (1+ε)·f̂(S); for ε-leveled input the result is the
    additive-dichotomous valuation over the items of nonzero value.
    Dichotomous specs are their own floor (idempotent at ε = 0).
    """
    eps = as_value(eps)
    if isinstance(spec, (AdditiveDichotomous, MatroidValuation, XosFamily)):
        return spec
    if isinstance(spec, EpsLeveled):
        if m is None:
            raise ValidationError("floor_round of an ε-leveled valuation needs the universe size m")
        if eps >= Fraction(1, m):
            raise ValidationError(
                f"floor rounding requires eps < 1/m; got eps={eps} with m={m}"
            )
        violation = validate(spec, eps, m)
        if violation is not None:
            raise ValidationError(f"not ε-leveled for eps={eps}: {violation}")
        return AdditiveDichotomous(spec.demand())
    raise ValidationError(f"unknown valuation tag {type(spec).__name__}")
