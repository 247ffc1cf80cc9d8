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
from .matroid import ItemSet, MatroidSpec, _freeze, check_universe


#: Largest decimal exponent, in magnitude, of a rational literal ("1e4300").
#: `Fraction("1e999999999")` would build 10^999999999 before answering; 4,300
#: is CPython's own digit limit on the integer strings of the mantissa.
MAX_DECIMAL_EXPONENT = 4300


def as_value(x) -> Fraction:
    """Coerce an exact numeric (int/Fraction/'p/q' or decimal string) to Fraction;
    the one coercion at every boundary that takes a rational.

    Floats and bools are refused: mechanism comparisons hinge on differences
    of order eps/(n*m^2), far below float noise.  A `Fraction` is immutable,
    so one is returned as it is.
    """
    if type(x) is Fraction:
        return x
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

    @classmethod
    def _of_frozen(cls, demand: ItemSet) -> AdditiveDichotomous:
        """The report of a frozenset whose ids already passed `_freeze`, built
        without checking them again; equal to `AdditiveDichotomous(demand)`."""
        spec = object.__new__(cls)
        object.__setattr__(spec, "demand", demand)
        return spec


@dataclass(frozen=True)
class MatroidValuation(ValuationSpec):
    """f(S) = rank of S in the wrapped matroid."""

    matroid: MatroidSpec


@dataclass(frozen=True)
class EpsLeveled(ValuationSpec):
    """Additive with each listed item worth 0 or a value in [1, 1+ε]."""

    values: tuple[tuple[int, Fraction], ...]

    def __init__(self, values: Mapping[int, object] | Iterable[tuple[int, object]]):
        values = dict(values)
        _freeze(values)  # every id checked before they are sorted
        norm = []
        for item, raw in sorted(values.items()):
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


def evaluate(spec: ValuationSpec, s: ItemSet, m: int | None = None) -> Fraction:
    """f(S) as a `Fraction`, with S's ids checked, and checked against the
    universe 0..m-1 if m is given."""
    s = _freeze(s)
    if m is not None:
        check_universe(s, m, "bundle")
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
