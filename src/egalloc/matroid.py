"""Matroid rank oracles, combinators, and an axiom validator with a witness.

A matroid is described by a structured, immutable spec.  Structured tags
(free, uniform, partition, truncation, restriction) are matroids by
construction.  Explicit families are stored as their maximal listed sets
(a set is independent when it lies inside one of them) and may fail the
basis-exchange axiom, which `validate_matroid` detects with a witness pair.
Rank functions here are the substrate for matroid-rank valuations: rank is
always submodular with 0/1 marginals when the spec is a genuine matroid.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Hashable, Iterable

from .errors import CapabilityError, ValidationError

ItemSet = frozenset[int]

#: Largest universe of an Explicit family that instance documents may list
#: and that the validator scans.  The maximal sets then number at most
#: C(12, 6) = 924, which bounds the maximal-set filter at construction and
#: the basis-exchange scan.
EXPLICIT_VALIDATION_CAP = 12


def _freeze(items: Iterable[int]) -> ItemSet:
    out = frozenset(items)
    for a in out:
        if not isinstance(a, int) or isinstance(a, bool) or a < 0:
            raise ValidationError(f"item ids must be non-negative integers, got {a!r}")
    return out


@dataclass(frozen=True)
class Violation:
    """One violated matroid/valuation constraint plus a checkable witness."""

    constraint: str
    witness: tuple


class MatroidSpec:
    """Base class; concrete specs implement rank/is_independent/support.

    Three exchange questions serve the transfer-path search of
    `lorenz.compute_lorenz_dominating`.  Each takes an independent bundle
    `own`; none builds a set from `own` and the item asked about.

    - `can_add(own, g)`, for g in support() outside own: is own + g
      independent?
    - `swap_filter(own, g)`, for g in own: which h in support() outside own
      can the agent take in exchange for g, i.e. which make own - g + h
      independent?  Returns None when every such h can, else a predicate
      on h.
    - `swap_key(own, g)`, for g in own: a hashable key; two items of own
      with equal keys admit the same set of h.

    Per tag:

    - FreeOver: every g can be added and every h swapped in; one key.
    - Uniform: g can be added when |own| < cap; a swap keeps the size, so
      every h can be swapped in; one key.
    - Partition: g can be added when its block holds fewer than its cap of
      own's items; h can replace g when it lies in g's block or its own
      block is not full; the key is g's block.  The item-to-block map is
      built once, at construction.
    - Truncated: g can be added below the limit if the inner spec allows
      it; a swap keeps the size, so filter and key are the inner spec's.
    - Restricted: the support already lies inside `demand`, so all three
      answers are the inner spec's.
    - Explicit (and this base class): `is_independent` on own + g and
      own - g + h; the key is g itself, so no two items share one.
    """

    __slots__ = ()

    def rank(self, s: ItemSet) -> int:
        raise NotImplementedError

    def is_independent(self, s: ItemSet) -> bool:
        return self.rank(s) == len(s)

    def support(self) -> ItemSet:
        """Items of positive singleton rank (non-loops)."""
        raise NotImplementedError

    def can_add(self, own: ItemSet, g: int) -> bool:
        return self.is_independent(own | {g})

    def swap_filter(self, own: ItemSet, g: int) -> Callable[[int], bool] | None:
        rest = own - {g}
        return lambda h: self.is_independent(rest | {h})

    def swap_key(self, own: ItemSet, g: int) -> Hashable:
        return g


@dataclass(frozen=True)
class FreeOver(MatroidSpec):
    """rank(S) = |S ∩ demand|; every demanded item is independent of the rest."""

    demand: ItemSet

    def __post_init__(self):
        object.__setattr__(self, "demand", _freeze(self.demand))

    def rank(self, s):
        return len(s & self.demand)

    def is_independent(self, s):
        return s <= self.demand

    def support(self):
        return self.demand

    def can_add(self, own, g):
        return True

    def swap_filter(self, own, g):
        return None

    def swap_key(self, own, g):
        return None


@dataclass(frozen=True)
class Uniform(MatroidSpec):
    """rank(S) = min(cap, |S ∩ demand|)."""

    demand: ItemSet
    cap: int

    def __post_init__(self):
        object.__setattr__(self, "demand", _freeze(self.demand))
        if self.cap < 0:
            raise ValidationError("uniform matroid cap must be >= 0")

    def rank(self, s):
        return min(self.cap, len(s & self.demand))

    def is_independent(self, s):
        return s <= self.demand and len(s) <= self.cap

    def support(self):
        return self.demand if self.cap >= 1 else frozenset()

    def can_add(self, own, g):
        return len(own) < self.cap

    def swap_filter(self, own, g):
        return None

    def swap_key(self, own, g):
        return None


@dataclass(frozen=True)
class Partition(MatroidSpec):
    """Disjoint blocks with per-block caps: rank(S) = Σ min(cap_b, |S ∩ block_b|)."""

    blocks: tuple[tuple[ItemSet, int], ...]

    def __post_init__(self):
        frozen = tuple((_freeze(b), int(c)) for b, c in self.blocks)
        object.__setattr__(self, "blocks", frozen)
        seen: set[int] = set()
        for block, cap in frozen:
            if cap < 0:
                raise ValidationError("partition matroid caps must be >= 0")
            if seen & block:
                raise ValidationError(
                    f"partition matroid blocks overlap on items {sorted(seen & block)}"
                )
            seen |= block
        # not fields: equality, hashing, repr and documents see only `blocks`
        object.__setattr__(self, "_covered", frozenset(seen))
        object.__setattr__(
            self, "_block_of", {a: b for b, (block, _) in enumerate(frozen) for a in block}
        )

    def rank(self, s):
        return sum(min(cap, len(s & block)) for block, cap in self.blocks)

    def is_independent(self, s):
        if not s <= self._covered:
            return False
        return all(len(s & block) <= cap for block, cap in self.blocks)

    def support(self):
        out: set[int] = set()
        for block, cap in self.blocks:
            if cap >= 1:
                out |= block
        return frozenset(out)

    def can_add(self, own, g):
        block_of = self._block_of
        b = block_of[g]
        return sum(1 for a in own if block_of[a] == b) < self.blocks[b][1]

    def swap_filter(self, own, g):
        block_of, blocks = self._block_of, self.blocks
        counts = Counter(block_of[a] for a in own)
        counts.pop(block_of[g])
        full = {b for b, count in counts.items() if count >= blocks[b][1]}
        if not full:
            return None
        return lambda h: block_of[h] not in full

    def swap_key(self, own, g):
        return self._block_of[g]


@dataclass(frozen=True)
class Explicit(MatroidSpec):
    """An explicitly listed independence family, stored as its maximal sets.

    A set is independent when it is a subset of some listed set, so inputs
    may list any sets whose downward closure is the intended family.
    Construction keeps only the maximal listed sets, deduplicated; two specs
    are therefore equal exactly when their independence families are.  The
    result need not satisfy the exchange axiom; use `validate_matroid`
    before trusting it as a matroid.  The verdict is kept once computed,
    so every check of one spec, and of the truncations and restrictions
    that wrap it, shares one scan.
    """

    family: frozenset[ItemSet]

    def __post_init__(self):
        given = sorted({_freeze(t) for t in self.family}, key=len, reverse=True)
        if not given:
            raise ValidationError("explicit independence family must be nonempty")
        maximal: list[ItemSet] = []
        for t in given:
            if not any(t <= kept for kept in maximal):
                maximal.append(t)
        object.__setattr__(self, "family", frozenset(maximal))

    def rank(self, s):
        return max(len(t & s) for t in self.family)

    def is_independent(self, s):
        return any(s <= t for t in self.family)

    def support(self):
        return frozenset().union(*self.family)

    @cached_property
    def _verdict(self) -> Violation | None:
        # not a field: equality, hashing, repr and documents see only `family`;
        # a family past the cap raises and keeps no verdict
        return _validate_explicit(self)


@dataclass(frozen=True)
class Truncated(MatroidSpec):
    """rank(S) = min(limit, inner.rank(S))."""

    inner: MatroidSpec
    limit: int

    def __post_init__(self):
        if self.limit < 0:
            raise ValidationError("truncation limit must be >= 0")

    def rank(self, s):
        return min(self.limit, self.inner.rank(s))

    def is_independent(self, s):
        return len(s) <= self.limit and self.inner.is_independent(s)

    def support(self):
        return self.inner.support() if self.limit >= 1 else frozenset()

    def can_add(self, own, g):
        return len(own) < self.limit and self.inner.can_add(own, g)

    def swap_filter(self, own, g):
        return self.inner.swap_filter(own, g)

    def swap_key(self, own, g):
        return self.inner.swap_key(own, g)


@dataclass(frozen=True)
class Restricted(MatroidSpec):
    """rank(S) = inner.rank(S ∩ demand)."""

    inner: MatroidSpec
    demand: ItemSet

    def __post_init__(self):
        object.__setattr__(self, "demand", _freeze(self.demand))

    def rank(self, s):
        return self.inner.rank(s & self.demand)

    def is_independent(self, s):
        return s <= self.demand and self.inner.is_independent(s)

    def support(self):
        return self.inner.support() & self.demand

    def can_add(self, own, g):
        return self.inner.can_add(own, g)

    def swap_filter(self, own, g):
        return self.inner.swap_filter(own, g)

    def swap_key(self, own, g):
        return self.inner.swap_key(own, g)


#: The identically-zero rank function, which PE puts in place of illegal
#: reports (`mechanisms.sanitize_reports`).
ZERO_MATROID = FreeOver(frozenset())


def check_explicit_cap(sets: Iterable[ItemSet]) -> None:
    """Raise CapabilityError when the sets span over EXPLICIT_VALIDATION_CAP items."""
    universe = frozenset().union(*sets)
    if len(universe) > EXPLICIT_VALIDATION_CAP:
        raise CapabilityError(
            f"explicit family over {len(universe)} items exceeds the validation "
            f"cap of {EXPLICIT_VALIDATION_CAP}"
        )


def _validate_explicit(spec: Explicit) -> Violation | None:
    check_explicit_cap(spec.family)
    bases = sorted(spec.family, key=lambda t: (len(t), sorted(t)))
    smallest, largest = bases[0], bases[-1]
    if len(smallest) < len(largest):
        # smallest is maximal, so no item of largest augments it
        return Violation("exchange", (tuple(sorted(smallest)), tuple(sorted(largest))))
    # Bases axiom: for bases B1, B2 and x in B1∖B2 some y in B2∖B1 makes
    # B1-x+y a basis.  With rest = B1-x, the items that extend rest to a
    # basis include x itself, so the axiom fails exactly when some basis
    # misses all of them; (rest, B2) is then an augmentation witness.
    universe = spec.support()
    for rest in sorted({b - {x} for b in bases for x in b}, key=sorted):
        extends = frozenset(y for y in universe - rest if rest | {y} in spec.family)
        for b in bases:
            if b.isdisjoint(extends):
                return Violation("exchange", (tuple(sorted(rest)), tuple(sorted(b))))
    return None


def validate_matroid(spec: MatroidSpec) -> Violation | None:
    """Check the matroid axioms; return the first violation, or None.

    Structured tags are valid by construction and only their components are
    (recursively) checked.  Explicit families get the bases axiom on their
    maximal sets: all of one size, and closed under basis exchange.  The
    violation's witness (S, T) has |S| < |T|, both independent, and no
    x in T∖S with S+x independent.  Families over more than
    EXPLICIT_VALIDATION_CAP items raise CapabilityError on every call.
    """
    if isinstance(spec, Explicit):
        return spec._verdict
    if isinstance(spec, (Truncated, Restricted)):
        return validate_matroid(spec.inner)
    if isinstance(spec, (FreeOver, Uniform, Partition)):
        return None
    return Violation("unknown-matroid-tag", (type(spec).__name__,))


def brute_force_rank(spec: MatroidSpec, s: ItemSet) -> int:
    """Size of the largest independent subset of s, by subset enumeration.

    Independent oracle for rank(); exponential in |s|.
    """
    items = sorted(s)
    best = 0
    for k in range(len(items), 0, -1):
        if k <= best:
            break
        for sub in combinations(items, k):
            if spec.is_independent(frozenset(sub)):
                best = k
                break
    return best
