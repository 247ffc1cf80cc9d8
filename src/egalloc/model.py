"""Core data model: instances, allocations, outcome distributions."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ValidationError
from .matroid import ItemSet
from .valuation import ValuationSpec, as_value, evaluate

PriorityOrder = tuple[int, ...]


def identity_priority(n: int) -> PriorityOrder:
    return tuple(range(n))


def check_priority(sigma: Sequence[int], n: int) -> PriorityOrder:
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(n)):
        raise ValidationError(f"priority must be a permutation of 0..{n - 1}, got {sigma}")
    return sigma


@dataclass(frozen=True)
class Allocation:
    """Per-agent bundles over universe 0..m-1; items may stay unallocated."""

    bundles: tuple[ItemSet, ...]
    m: int

    def __post_init__(self):
        object.__setattr__(self, "bundles", tuple(frozenset(b) for b in self.bundles))
        seen: set[int] = set()
        for b in self.bundles:
            for a in b:
                if not (0 <= a < self.m):
                    raise ValidationError(f"item {a} outside universe 0..{self.m - 1}")
                if a in seen:
                    raise ValidationError(f"item {a} allocated twice")
                seen.add(a)

    @property
    def n(self) -> int:
        return len(self.bundles)

    @property
    def unallocated(self) -> ItemSet:
        return frozenset(range(self.m)) - frozenset().union(frozenset(), *self.bundles)

    def profile(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bundles)

    def total_items(self) -> int:
        return sum(len(b) for b in self.bundles)

    def utilities(self, valuations: Sequence[ValuationSpec]) -> tuple[Fraction, ...]:
        return tuple(evaluate(v, b, self.m) for v, b in zip(valuations, self.bundles))


@dataclass(frozen=True)
class Atom:
    """One realization of a randomized mechanism with its randomness trace."""

    weight: Fraction
    allocation: Allocation
    priority: PriorityOrder
    held_out: tuple[int, ...] | None = None


@dataclass(frozen=True)
class OutcomeDistribution:
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        # Σ weight·count over the distinct weights: exact distributions
        # repeat one or a few weights across all their atoms
        counts = Counter(a.weight for a in self.atoms)
        total = sum((w * c for w, c in counts.items()), Fraction(0))
        if total != 1:
            raise ValidationError(f"atom weights must sum to 1 exactly, got {total}")
        if any(w <= 0 for w in counts):
            raise ValidationError("atom weights must be positive")


@dataclass(frozen=True)
class Instance:
    """A fair-division instance: named items and agents with exact valuations."""

    item_names: tuple[str, ...]
    agent_names: tuple[str, ...]
    valuations: tuple[ValuationSpec, ...]
    epsilon: Fraction = Fraction(0)
    priority: PriorityOrder | None = None

    def __post_init__(self):
        object.__setattr__(self, "item_names", tuple(self.item_names))
        object.__setattr__(self, "agent_names", tuple(self.agent_names))
        object.__setattr__(self, "valuations", tuple(self.valuations))
        object.__setattr__(self, "epsilon", as_value(self.epsilon))
        if len(set(self.item_names)) != len(self.item_names):
            raise ValidationError("item names must be unique")
        if len(set(self.agent_names)) != len(self.agent_names):
            raise ValidationError("agent names must be unique")
        if len(self.agent_names) != len(self.valuations):
            raise ValidationError("one valuation per agent required")
        if not self.agent_names:
            raise ValidationError("at least one agent required")
        if self.epsilon < 0:
            raise ValidationError("epsilon must be >= 0")
        if self.priority is not None:
            object.__setattr__(self, "priority", check_priority(self.priority, self.n))

    @property
    def m(self) -> int:
        return len(self.item_names)

    @property
    def n(self) -> int:
        return len(self.agent_names)

    def priority_or_default(self) -> PriorityOrder:
        return self.priority if self.priority is not None else identity_priority(self.n)
