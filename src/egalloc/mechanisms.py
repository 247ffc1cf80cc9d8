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
before the second item is placed.  So only each item's top two demanders
matter (`_top_two`), and `run_mx` and the exact walks share one rule.

Held-out randomized mechanism: demand-set reports only; hold out a random
ordered list X of one or two items (every ordered outcome has probability
exactly 1/m^2, as `tests/meps_reference.py` derives; the tests check
`sample_meps` against it); run PE on the remaining items under a random
order sigma and M^X on X under reverse(sigma).
Requires eps < 1/(n*m^3), which makes the guaranteed held-out gain of a
truthful report outweigh any eps-scale composition gains from lying.
That bound is sufficient, not exact: the tests pin the exact threshold
eps* at small sizes (5/4 at n=2, m=3, against the bound's 1/54), from
`truthfulness_threshold` in `tests/meps_reference.py`.
`run_meps` returns the exact distribution; `sample_meps` draws one outcome.

Exact distributions set each report up once and solve PE per order; a
held-out PE half runs on the reports' `FreeOver(d)` with supports clipped
to M∖X, which is PE on M∖X, as the engine asks only about support items.
Every exact walk is sized by one gate, `_exact_size`, before its first
solve, and every realization comes from one walk, `_outcomes`: a draw
is a priority order sigma and, for the held-out mechanism, a held-out
list X, and then PE under sigma (on M∖X).  A realization is one holders
tuple, each item's agent: its one solve is the engine,
`lorenz.solve_prepared`, and then `model.check_bundles`, which returns
the PE half's tuple, and `_granted` writes the M^X grants into it.
`run_rpe` and `run_meps` turn the walk into a distribution with one
builder, `_distribution`, which fills the distribution's columns
(`model.OutcomeDistribution`) and builds no `Atom`: it keeps one dict from
holders to `Allocation` (checked when built by `_allocation`), so each
distinct allocation is one object shared by its atoms, which also share
one weight object; the priority and held-out columns repeat the walk's
orders and lists.
`harness.fuzz_truthfulness` tallies one agent's items in the same tuples
(PE is the one-order case), through the same gate, and stops a
candidate's walk after any order once it cannot win.

Every mechanism takes one report shape, a `ValuationSpec` per agent
(`floor_reports` of the valuations for truthful agents), and sets each
report up with one function per mechanism: `_report_spec` for PE, which
`sanitize_reports` maps, and `_demand_spec` for the held-out mechanism,
which refuses a report that is not a demand set and which
`_check_meps_inputs` maps after its n, m and ε checks.  Caller-supplied
items pass the one id rule, `matroid._freeze` and
`matroid.check_universe`, once each: a report's ids are frozen when it is
built and checked against the universe at set-up, which builds a demand's
`FreeOver` by `FreeOver._of_frozen` without freezing them again;
`run_mx` checks its held-out list and reports itself.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import chain, permutations, repeat
from typing import Iterable, Iterator, Sequence

from .errors import CapabilityError, ValidationError
from .lorenz import compute_lorenz_dominating, prepare_supports, solve_prepared
from .matroid import (
    ZERO_MATROID, FreeOver, ItemSet, MatroidSpec, _freeze, check_universe, validate_matroid
)
from .model import (
    Allocation,
    OutcomeDistribution,
    PriorityOrder,
    check_bundles,
    check_priority,
)
from .valuation import (
    AdditiveDichotomous,
    EpsLeveled,
    MatroidValuation,
    ValuationSpec,
    as_value,
    value_functions,
)

RPE_EXACT_MAX_AGENTS = 6

#: Largest exact held-out distribution, in atoms (m^2 * n!).  Measured with
#: `distribution --mech meps` in-process on additive instances of density
#: 0.3 at 9,600-9,720 atoms, 5/9, 4/20 and 3/40 (Python 3.11, one core of a
#: shared x86-64 VM, three seeds each, least growth of 3 fresh processes):
#: 0.004-0.011 ms, 0.51-0.95 kB of output and 1.05-1.96 kB of peak-RSS
#: growth per atom, so the cap bounds a run near 0.1 s, 9 MB of output and
#: 19 MB.  Before the cap, 6 agents over 12 items (103,680 atoms) took 22 s
#: and 63 MB of output.  It admits up to 20 items for 4 agents, 9 for 5 and
#: 3 for 6.  Sizes that must stay under it: acceptance criterion 10 up to
#: 3/2 (24 atoms) and 2/4 (32); scripts/meps_margin_scan.py, up to 3/3
#: (54); the benchmark's exact pools, 4/8 (1,536) and 3/5 (150 per fuzz
#: candidate); the per-atom reference test, n <= 4 and m <= 6 (864), and
#: the column round-trip test, n <= 5 and m <= 6 (4,320).
MEPS_EXACT_MAX_ATOMS = 10_000

#: 8! = 40,320 orders alone pass MEPS_EXACT_MAX_ATOMS, so exact
#: distributions of more agents are refused before n! is computed; at
#: about 1,560 agents n! passes the interpreter's limit on printing ints.
MEPS_EXACT_MAX_AGENTS = 7

#: Most agents and items, summed over its PE solves (one per candidate
#: report and one for the truth), that `fuzz_truthfulness("pe", ...)` takes
#: on.  A solve over n agents and m items took 1–3 µs per agent or item on
#: additive instances with m <= 12, so the cap is about one second of work.
PE_FUZZ_MAX_SIZE = 300_000


def sanitize_reports(reports: Sequence[ValuationSpec], m: int) -> list[MatroidSpec]:
    """Map each report to a matroid rank function, one per report, by `_report_spec`."""
    return [_report_spec(rep, m) for rep in reports]


def _report_spec(rep: ValuationSpec, m: int) -> MatroidSpec:
    """PE's spec of one report, its items checked against the universe.

    An additive demand set becomes its free matroid and a valid matroid
    valuation keeps its matroid.  Every other report is illegal for PE (not
    a matroid, or not a dichotomous-submodular class) and becomes
    `matroid.ZERO_MATROID`, the identically-zero valuation.
    """
    if isinstance(rep, AdditiveDichotomous):  # its ids passed `_freeze` when it was built
        check_universe(rep.demand, m, "report")
        return FreeOver._of_frozen(rep.demand)
    if isinstance(rep, MatroidValuation) and validate_matroid(rep.matroid) is None:
        check_universe(rep.matroid.support(), m, "report")
        return rep.matroid
    return ZERO_MATROID


def run_pe(
    reports: Sequence[ValuationSpec], m: int, sigma: PriorityOrder | None = None
) -> Allocation:
    """Prioritized egalitarian mechanism on the given reports."""
    return compute_lorenz_dominating(sanitize_reports(reports, m), m, sigma)


def run_rpe(reports: Sequence[ValuationSpec], m: int) -> OutcomeDistribution:
    """PE under uniformly random priorities, as an exact distribution.

    Sanitizes and sets up the reports once and returns all n! atoms of
    weight 1/n!, atoms with equal allocations sharing one `Allocation`;
    raises CapabilityError past RPE_EXACT_MAX_AGENTS agents.
    """
    matroids = sanitize_reports(reports, m)
    return _distribution(matroids, m, _exact_size("rpe", len(matroids), m), None)


def _exact_size(mechanism: str, n: int, m: int, copies: int = 1) -> int:
    """The realizations of one exact walk of `mechanism` over n agents and
    m items: one order for 'pe', n! orders for 'rpe', m^2·n! (X, sigma)
    outcomes for 'meps'.  CapabilityError for 'pe' past PE_FUZZ_MAX_SIZE
    agents and items over `copies` solves (one per fuzz candidate); for
    'rpe' or 'meps' past their agent cap, before n! is computed, and then
    past MEPS_EXACT_MAX_ATOMS atoms over `copies` walks."""
    if mechanism == "pe":
        if copies * (n + m) > PE_FUZZ_MAX_SIZE:
            raise CapabilityError(
                f"fuzzing pe runs {copies} PE solves over {n + m} agents and items each "
                f"({copies * (n + m)} in all); the cap is {PE_FUZZ_MAX_SIZE}"
            )
        return 1
    max_agents = RPE_EXACT_MAX_AGENTS if mechanism == "rpe" else MEPS_EXACT_MAX_AGENTS
    if n > max_agents:
        raise CapabilityError(f"exact mode enumerates n! priority orders; n={n} exceeds {max_agents}")
    size = math.factorial(n) * (m * m if mechanism == "meps" else 1)
    if copies * size > MEPS_EXACT_MAX_ATOMS:
        raise CapabilityError(
            f"exact {mechanism} builds {copies} distribution(s) of {size} atoms for n={n}, "
            f"m={m} ({copies * size} in all); the cap is {MEPS_EXACT_MAX_ATOMS}"
        )
    return size


def sample_rpe(
    reports: Sequence[ValuationSpec], m: int, seed: int
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
    xset = _freeze(held_out)
    if len(held_out) not in (1, 2) or len(xset) != len(held_out):
        raise ValidationError("held-out list must hold 1 or 2 distinct items")
    check_universe(xset, m, "held-out list")
    n = len(reports_on_x)
    sigma = check_priority(sigma, n)
    reports = [frozenset(r) for r in reports_on_x]
    for r in reports:
        if not r <= xset:
            raise ValidationError("held-out reports must be subsets of the held-out list")
    grants = _mx_grants(held_out, _top_two(held_out, sigma, reports))
    return _allocation(_granted((-1,) * m, grants), n)


def _top_two(items, sigma: PriorityOrder, reports: Sequence[ItemSet]) -> dict:
    """Each of `items`' top demanders in `sigma` as (first, alt): alt is the
    second, or the first if it is the only one; (None, None) if there is none."""
    tops = {x: [v for v in sigma if x in reports[v]][:2] or [None] for x in items}
    return {x: (two[0], two[-1]) for x, two in tops.items()}


def _mx_grants(held_out: tuple[int, ...], tops: dict) -> tuple[tuple[int, int], ...]:
    """M^X's (agent, item) grants: x goes to its first demander w1, who drops
    to lowest priority, so y goes to its first demander unless that is w1,
    and then to its alt (w1 again if w1 is y's only demander)."""
    x, w1 = held_out[0], tops[held_out[0]][0]
    grants = () if w1 is None else ((w1, x),)
    for y in held_out[1:]:
        first, alt = tops[y]
        w2 = alt if first == w1 else first
        grants += () if w2 is None else ((w2, y),)
    return grants


def held_out_lists(m: int) -> list[tuple[int, ...]]:
    """The m^2 ordered held-out lists, each drawn with probability 1/m^2:
    for x ascending, (x,) and then each (x, y) for y != x."""
    lists = []
    for x in range(m):
        lists.append((x,))
        lists.extend((x, y) for y in range(m) if y != x)
    return lists


def _check_meps_inputs(reports: Sequence[ValuationSpec], m: int, eps) -> list[FreeOver]:
    """The reports as `FreeOver` specs by `_demand_spec`, once eps, n and m
    are checked."""
    n, eps = len(reports), as_value(eps)
    if n < 1 or m < 1:
        raise ValidationError("at least one agent and one item required")
    if eps >= Fraction(1, n * m**3):
        raise ValidationError(f"eps must be below 1/(n*m^3) = 1/{n * m**3}; got {eps}")
    return [_demand_spec(rep, m) for rep in reports]


def _demand_spec(rep: ValuationSpec, m: int) -> FreeOver:
    """The held-out mechanism's spec of one report, which must be a demand
    set (an ε-leveled valuation is floored first, by `floor_reports`): its
    `FreeOver`, its items checked against the universe."""
    if not isinstance(rep, AdditiveDichotomous):
        raise ValidationError(
            "the held-out mechanism takes demand-set reports; matroid/xos "
            "valuations are not supported"
        )
    check_universe(rep.demand, m, "demand report")  # its ids passed `_freeze` when it was built
    return FreeOver._of_frozen(rep.demand)


def _outcomes(
    reports, supports, m: int, held_outs: Sequence | None, orders: Iterable
) -> Iterator[tuple]:
    """(sigma, X, holders) for every realization, the priority orders
    `orders` outside and the held-out lists `held_outs` inside; with
    `held_outs` None there is no held-out stage, and each order yields
    (sigma, None, holders).  The reports come set up, with their
    `prepare_supports` lists (held-out demand reports as `FreeOver(d)` and
    d, clipped to the universe).  `holders` gives each item's agent, -1 for
    none: each solve is `solve_prepared` and then `check_bundles`, whose
    tuple is the PE half's, and `_granted` writes the M^X grants into it.

    A held-out PE half, PE on demands∖X under sigma, depends on X only
    through Y = X ∩ ∪demands (d − X = d − Y for each report d), so it is
    solved once per (sigma, Y), with supports clipped to M∖Y.  A free
    matroid answers every exchange question alike, so that is PE on the
    free matroids over d − Y.  Each order's reverse gives the top two
    demanders of every item of some held-out list, from which M^X grants
    without `run_mx`'s checks, met by construction: X holds distinct items
    and sigma is a permutation."""
    if held_outs is None:
        for sigma in orders:
            yield sigma, None, check_bundles(solve_prepared(reports, supports, sigma), m)
        return
    clipped = {frozenset(): supports}
    demanded_anywhere = frozenset().union(*supports)
    parts = []
    for held_out in held_outs:
        demanded = demanded_anywhere.intersection(held_out)
        if demanded not in clipped:
            clipped[demanded] = [[a for a in s if a not in demanded] for s in supports]
        parts.append((held_out, demanded))
    items = frozenset().union(*held_outs)
    on_items = [items.intersection(s) for s in supports]
    for sigma in orders:
        tops = _top_two(items, sigma[::-1], on_items)
        pe_halves: dict[ItemSet, tuple[int, ...]] = {}
        for held_out, demanded in parts:
            pe = pe_halves.get(demanded)
            if pe is None:
                pe = pe_halves[demanded] = check_bundles(
                    solve_prepared(reports, clipped[demanded], sigma), m
                )
            yield sigma, held_out, _granted(pe, _mx_grants(held_out, tops))


def _granted(holders: tuple[int, ...], grants: tuple) -> tuple[int, ...]:
    """`holders` with each (agent, item) grant written in at the item; a
    grant of an item that is already held raises.  No grants: `holders`."""
    if not grants:
        return holders
    merged = list(holders)
    for v, item in grants:
        if merged[item] >= 0:
            raise ValidationError(f"item {item} allocated twice")
        merged[item] = v
    return tuple(merged)


def _allocation(holders: tuple[int, ...], n: int) -> Allocation:
    """The `Allocation` of n agents that `holders` describes, checked when built."""
    bundles: list[list[int]] = [[] for _ in range(n)]
    for item, v in enumerate(holders):
        if v >= 0:
            bundles[v].append(item)
    return Allocation(bundles, len(holders))


def run_meps(reports: Sequence[ValuationSpec], m: int, eps) -> OutcomeDistribution:
    """Randomized held-out mechanism on demand-set reports (ε-leveled
    valuations' `floor_reports`), as an exact distribution.

    Enumerates all m^2 held-out outcomes times n! priority orders (atom
    weight 1/(m^2 n!)), and raises CapabilityError before enumerating when
    there are more than MEPS_EXACT_MAX_ATOMS of them, and before n! is
    computed past MEPS_EXACT_MAX_AGENTS agents.
    """
    specs = _check_meps_inputs(reports, m, eps)
    size = _exact_size("meps", len(specs), m)  # before the m^2 lists are built
    return _distribution(specs, m, size, held_out_lists(m))


def _distribution(reports, m: int, size: int, held_outs) -> OutcomeDistribution:
    """The `size` atoms of weight 1/size of the walk `_outcomes` over the
    set-up `reports`, every order of their agents and `held_outs`, as
    columns: no `Atom` is built.

    Builds one validated `Allocation` per distinct holders tuple, shared by
    its atoms, and one weight shared by all.  The walk yields the orders
    outside and the held-out lists inside, and each column is laid out
    outcome-major: atom h·n! + k is realization h under order k (one
    realization per order without a held-out stage).
    """
    n = len(reports)
    allocations: dict[tuple[int, ...], Allocation] = {}  # by holders
    supports = prepare_supports(reports, m)
    orders = tuple(permutations(range(n)))
    walk = []  # in walk order: realization h of order k at k·per_order + h
    for _, _, holders in _outcomes(reports, supports, m, held_outs, orders):
        outcome = allocations.get(holders)
        if outcome is None:
            outcome = allocations[holders] = _allocation(holders, n)
        walk.append(outcome)
    lists = [None] if held_outs is None else held_outs
    per_order = len(lists)
    return OutcomeDistribution._of_columns(
        (Fraction(1, size),) * size,
        tuple(chain.from_iterable(walk[h::per_order] for h in range(per_order))),
        orders * per_order,
        tuple(chain.from_iterable(repeat(x, len(orders)) for x in lists)),
    )


def sample_meps(
    reports: Sequence[ValuationSpec], m: int, eps, seed: int
) -> tuple[Allocation, tuple[int, ...], PriorityOrder]:
    """One seeded draw of the held-out mechanism, with its (X, sigma) trace.

    Draw order is fixed: first item, keep-single test, optional second
    item, then the priority shuffle; identical seeds give identical traces.
    The realization's holders come from `_outcomes`, as in `run_meps`.
    """
    specs = _check_meps_inputs(reports, m, eps)
    rng = random.Random(seed)
    x = rng.randrange(m)
    if rng.randrange(m) > 0:  # probability (m-1)/m; never fires at m = 1
        y = rng.randrange(m - 1)
        if y >= x:
            y += 1
        held_out: tuple[int, ...] = (x, y)
    else:
        held_out = (x,)
    order = list(range(len(specs)))
    rng.shuffle(order)
    sigma = tuple(order)
    supports = prepare_supports(specs, m)
    ((_, _, holders),) = _outcomes(specs, supports, m, [held_out], [sigma])
    return _allocation(holders, len(specs)), held_out, sigma


def expected_utilities(
    dist: OutcomeDistribution, valuations: Sequence[ValuationSpec]
) -> tuple[Fraction, ...]:
    """Exact per-agent expectation Σ_a weight(a)·f_v(A_v) of the true
    valuations over the atoms, each f_v in its native type
    (`valuation.value_functions`)."""
    # every bundle was checked against its universe by Allocation
    values = [value_functions(spec)[0] for spec in valuations]
    atoms = list(zip(dist.weights, dist.allocations))
    return tuple(
        sum((w * value(alloc.bundles[v]) for w, alloc in atoms), Fraction(0))
        for v, value in enumerate(values)
    )


def floor_reports(instance_valuations: Sequence[ValuationSpec]) -> list[ValuationSpec]:
    """Demand-set (floored) reports corresponding to truthful agents."""
    out: list[ValuationSpec] = []
    for spec in instance_valuations:
        if isinstance(spec, EpsLeveled):
            out.append(AdditiveDichotomous(spec.demand()))
        else:
            out.append(spec)
    return out
