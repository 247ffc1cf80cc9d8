"""Core data model: instances, allocations, outcome distributions."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ValidationError
from .matroid import ItemSet, _freeze, check_universe
from .valuation import ValuationSpec, as_value, evaluate, support

PriorityOrder = tuple[int, ...]


def identity_priority(n: int) -> PriorityOrder:
    return tuple(range(n))


def check_priority(sigma: Sequence[int], n: int) -> PriorityOrder:
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(n)):
        raise ValidationError(f"priority must be a permutation of 0..{n - 1}, got {sigma}")
    return sigma


def check_bundles(bundles: Sequence[Iterable[int]], m: int) -> tuple[int, ...]:
    """Raise ValidationError unless `bundles` are disjoint sets of items of
    0..m-1: the one partition check, run by `Allocation` and on every
    engine solve's bundles.  Bundles are scanned in order, each in its
    iteration order, and the first offending item is named.

    Returns each item's holder, -1 for an unallocated item: equal
    allocations give equal tuples, so this tuple is a realization's one
    identity in the exact walks, which key each allocation and each fuzz
    value by it."""
    holders = [-1] * m
    for v, b in enumerate(bundles):
        for a in b:
            if not (0 <= a < m):
                raise ValidationError(f"item {a} outside universe 0..{m - 1}")
            if holders[a] >= 0:
                raise ValidationError(f"item {a} allocated twice")
            holders[a] = v
    return tuple(holders)


@dataclass(frozen=True)
class Allocation:
    """Per-agent bundles over universe 0..m-1; items may stay unallocated."""

    bundles: tuple[ItemSet, ...]
    m: int

    def __post_init__(self):  # each bundle's ids pass the one id rule, then the partition check
        bundles = tuple(map(_freeze, self.bundles))
        object.__setattr__(self, "bundles", bundles)
        check_bundles(bundles, self.m)

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


@dataclass(frozen=True, slots=True)
class Atom:
    """One realization of a randomized mechanism with its randomness trace."""

    weight: Fraction
    allocation: Allocation
    priority: PriorityOrder
    held_out: tuple[int, ...] | None = None

    def __post_init__(self):  # the weight as an exact rational; a float raises
        if type(self.weight) is not Fraction:  # a Fraction, shared by a walk's atoms, is kept
            object.__setattr__(self, "weight", as_value(self.weight))


@dataclass(frozen=True, init=False)
class OutcomeDistribution:
    """A finite distribution over realizations, held as four parallel
    columns: atom k has weight `weights[k]`, allocation `allocations[k]`,
    priority `priorities[k]` and held-out list `held_outs[k]`.

    `OutcomeDistribution(atoms)` takes the columns apart from `Atom`s;
    `_of_columns` takes them as they are, so an exact walk builds no atom.
    Either way the weights must be positive and sum to 1 exactly.  `atoms`
    is built from the columns on first access and kept; equality and
    hashing compare the columns alone."""

    weights: tuple[Fraction, ...]
    allocations: tuple[Allocation, ...]
    priorities: tuple[PriorityOrder, ...]
    held_outs: tuple[tuple[int, ...] | None, ...]
    _atoms: tuple[Atom, ...] | None = field(compare=False, repr=False)

    def __init__(self, atoms: Iterable[Atom]):
        atoms = tuple(atoms)
        self._fill(
            tuple(a.weight for a in atoms),
            tuple(a.allocation for a in atoms),
            tuple(a.priority for a in atoms),
            tuple(a.held_out for a in atoms),
            atoms,
        )

    @classmethod
    def _of_columns(cls, weights, allocations, priorities, held_outs) -> OutcomeDistribution:
        """The distribution of these equal-length columns, whose weights are
        `Fraction`s, built without an `Atom`."""
        dist = object.__new__(cls)
        dist._fill(weights, allocations, priorities, held_outs, None)
        return dist

    def _fill(self, weights, allocations, priorities, held_outs, atoms) -> None:
        for name, column in zip(
            ("weights", "allocations", "priorities", "held_outs", "_atoms"),
            (weights, allocations, priorities, held_outs, atoms),
        ):
            object.__setattr__(self, name, column)
        # Σ weight·count over the distinct weights: counted by object first,
        # as a walk's atoms share one, then keyed by (numerator,
        # denominator), which hash faster than a Fraction
        objects = dict(zip(map(id, weights), weights))
        counts: Counter[tuple[int, int]] = Counter()
        for key, c in Counter(map(id, weights)).items():
            w = objects[key]
            counts[w.numerator, w.denominator] += c
        total = sum((Fraction(p, q) * c for (p, q), c in counts.items()), Fraction(0))
        if total != 1:
            raise ValidationError(f"atom weights must sum to 1 exactly, got {total}")
        if any(p <= 0 for p, _ in counts):
            raise ValidationError("atom weights must be positive")

    @property
    def atoms(self) -> tuple[Atom, ...]:
        if self._atoms is None:
            atoms = tuple(map(Atom, self.weights, self.allocations, self.priorities, self.held_outs))
            object.__setattr__(self, "_atoms", atoms)
        return self._atoms


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
        for spec in self.valuations:  # an item past the universe is in no allocation
            check_universe(support(spec), self.m, "valuation")
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
