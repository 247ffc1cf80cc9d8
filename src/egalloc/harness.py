"""Truthfulness fuzzing, deviation enumeration, and the fixture gallery.

Fixtures F1..F9 re-derive, in exact arithmetic, the concrete quantities
behind the worked examples and impossibility gaps that motivate the
mechanisms; each compares the recomputed quantity against its pinned claim
and fails loudly on any drift.  `fuzz_truthfulness` enumerates deviation spaces against a chosen
mechanism and reports the most profitable deviation, if any.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Callable, Sequence

from .audit import check_envy, maximin_share
from .errors import CapabilityError, ValidationError
from .lorenz import compute_lorenz_dominating, enumerate_optimal, potential
from .matroid import FreeOver, ItemSet, MatroidSpec, Partition, Restricted, Truncated
from .model import Allocation, Instance
from .mechanisms import (
    MEPS_EXACT_MAX_ATOMS,
    _check_meps_inputs,
    _rpe_distribution,
    expected_utilities,
    floor_reports,
    meps_demands,
    run_meps,
    run_pe,
    sanitize_reports,
)
from .valuation import (
    AdditiveDichotomous,
    EpsLeveled,
    MatroidValuation,
    ValuationSpec,
    XosFamily,
    evaluate,
    support,
)

SUBSET_SPACE_MAX_ITEMS = 12


class DeviationSpace:
    """Base class; concrete spaces enumerate candidate reports (truth included)."""


@dataclass(frozen=True)
class AllDemandSubsets(DeviationSpace):
    """Every demand-set report: all 2^m subsets of the item universe."""


@dataclass(frozen=True)
class RestrictedMrfLibrary(DeviationSpace):
    """Restrictions and truncations of the truthful matroid, plus zero.

    These are exactly the report surgeries the truthfulness argument walks
    through, so profitable deviations (if any existed) would show up here
    without enumerating all matroids.
    """


@dataclass(frozen=True)
class ExplicitDeviations(DeviationSpace):
    reports: tuple[ValuationSpec, ...]


def _deviation_reports(
    space: DeviationSpace, instance: Instance, deviator: int
) -> list[ValuationSpec]:
    m = instance.m
    truth = instance.valuations[deviator]
    if isinstance(space, AllDemandSubsets):
        if m > SUBSET_SPACE_MAX_ITEMS:
            raise CapabilityError(
                f"subset space has 2^{m} reports; cap is m <= {SUBSET_SPACE_MAX_ITEMS}"
            )
        items = list(range(m))
        out: list[ValuationSpec] = []
        for k in range(m + 1):
            for sub in combinations(items, k):
                out.append(AdditiveDichotomous(frozenset(sub)))
        return out
    if isinstance(space, RestrictedMrfLibrary):
        if not isinstance(truth, MatroidValuation):
            raise ValidationError("the restricted-MRF library needs a matroid truth")
        base = truth.matroid
        supp = sorted(base.support())
        if len(supp) > SUBSET_SPACE_MAX_ITEMS:
            raise CapabilityError("truth support too large for the restriction library")
        out = [MatroidValuation(FreeOver(frozenset()))]
        for k in range(len(supp) + 1):
            for sub in combinations(supp, k):
                out.append(MatroidValuation(Restricted(base, frozenset(sub))))
        full_rank = base.rank(frozenset(range(m)))
        for t in range(full_rank + 1):
            out.append(MatroidValuation(Truncated(base, t)))
        return out
    if isinstance(space, ExplicitDeviations):
        return list(space.reports)
    raise ValidationError(f"unknown deviation space {type(space).__name__}")


@dataclass(frozen=True)
class FuzzResult:
    mechanism: str
    deviator: int
    truthful: bool
    truthful_utility: Fraction
    best_report: ValuationSpec | None
    best_utility: Fraction

    @property
    def mode(self) -> str:  # pe is deterministic; rpe and meps are randomized
        return "expost" if self.mechanism == "pe" else "expectation"

    @property
    def gain(self) -> Fraction:
        return self.best_utility - self.truthful_utility


def fuzz_truthfulness(
    mechanism: str, instance: Instance, deviator: int, space: DeviationSpace
) -> FuzzResult:
    """Enumerate deviations and compare true utilities against truth-telling.

    Mechanisms: 'pe' (deterministic, ex-post utilities), 'rpe' and 'meps'
    (expected utilities over the exact outcome distribution).  On an
    ε-leveled instance 'pe' means floor-then-PE: reports are demand sets
    but utilities are measured by the true leveled valuations.  'rpe' and
    'meps' build one distribution of n! or m^2·n! atoms per candidate and for
    the truth; past MEPS_EXACT_MAX_ATOMS atoms in all, CapabilityError first.
    """
    n, m = instance.n, instance.m
    if not (0 <= deviator < n):
        raise ValidationError(f"deviator index {deviator} out of range")
    sigma = instance.priority_or_default()
    truth = instance.valuations[deviator]

    if mechanism in ("pe", "rpe"):
        # each report is sanitized once: the other agents' here, each
        # candidate when its utility is computed
        others = floor_reports(instance.valuations)
        del others[deviator]
        other_matroids = sanitize_reports(others, m)

        def with_report(report: ValuationSpec) -> list[MatroidSpec]:
            matroids = list(other_matroids)
            matroids.insert(deviator, sanitize_reports([report], m)[0])
            return matroids

        if mechanism == "pe":

            def utility(report: ValuationSpec) -> Fraction:
                alloc = compute_lorenz_dominating(with_report(report), m, sigma)
                return evaluate(truth, alloc.bundles[deviator], m)

        else:

            def utility(report: ValuationSpec) -> Fraction:
                dist = _rpe_distribution(with_report(report), m)
                return expected_utilities(dist, instance.valuations)[deviator]

    elif mechanism == "meps":
        # ε and the demands are checked before the size cap below, as in run_meps
        base_demands = _check_meps_inputs(meps_demands(instance.valuations), n, m, instance.epsilon)

        def utility(report: ValuationSpec) -> Fraction:
            if not isinstance(report, AdditiveDichotomous):
                raise ValidationError("held-out mechanism reports are demand sets")
            demands = list(base_demands)
            demands[deviator] = report.demand
            dist = run_meps(demands, m, instance.epsilon)
            return expected_utilities(dist, instance.valuations)[deviator]

    else:
        raise ValidationError(f"unknown mechanism {mechanism!r}")

    reports = _deviation_reports(space, instance, deviator)
    if mechanism != "pe":
        atoms = math.factorial(n) * (m * m if mechanism == "meps" else 1)
        total = (len(reports) + 1) * atoms
        if total > MEPS_EXACT_MAX_ATOMS:
            raise CapabilityError(
                f"fuzzing {mechanism} builds {len(reports) + 1} exact distributions of "
                f"{atoms} atoms ({total} in all); the cap is {MEPS_EXACT_MAX_ATOMS}"
            )
    truthful_report = (
        AdditiveDichotomous(support(truth)) if mechanism == "meps" else floor_reports([truth])[0]
    )
    truthful_utility = utility(truthful_report)

    best_report = None
    best_utility = truthful_utility
    for report in reports:
        val = utility(report)
        if val > best_utility:
            best_utility = val
            best_report = report
    return FuzzResult(
        mechanism=mechanism,
        deviator=deviator,
        truthful=best_report is None,
        truthful_utility=truthful_utility,
        best_report=best_report,
        best_utility=best_utility,
    )


# ---------------------------------------------------------------------------
# fixture gallery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixtureResult:
    fixture_id: str
    description: str
    claimed: dict
    computed: dict
    passed: bool


def _result(fid: str, description: str, claimed: dict, computed: dict) -> FixtureResult:
    passed = all(computed.get(k) == v for k, v in claimed.items())
    return FixtureResult(fid, description, claimed, computed, passed)


def fixture_f1() -> FixtureResult:
    """Two items, three agents: a Lorenz-only tie-break rule is manipulable,
    the potential-based rule is not."""
    m = 2
    both = frozenset({0, 1})
    truth = Instance(
        item_names=("x", "y"),
        agent_names=("p1", "p2", "p3"),
        valuations=(
            AdditiveDichotomous(both),
            AdditiveDichotomous(both),
            AdditiveDichotomous(both),
        ),
    )

    def naive_rule(reports: Sequence[ItemSet]) -> list[set[int]]:
        # report-size priority, then index; every reported item is placed;
        # nobody gets both items while another reporter is active
        active = [i for i in range(3) if reports[i]]
        order = sorted(active, key=lambda i: (len(reports[i]), i))
        bundles: list[set[int]] = [set() for _ in range(3)]
        unclaimed = {0, 1}
        cap = 2 if len(active) <= 1 else 1
        for i in order:
            for a in sorted(reports[i] & unclaimed)[:cap]:
                bundles[i].add(a)
                unclaimed.discard(a)
        for a in sorted(unclaimed):
            for i in order:
                if a in reports[i]:
                    bundles[i].add(a)
                    break
        return bundles

    naive_truth = naive_rule([both, both, both])
    naive_dev = naive_rule([both, both, frozenset({0})])
    naive_gain = len(naive_dev[2]) - len(naive_truth[2])

    pe_truth = run_pe(truth.valuations, m)
    pe_dev_reports = [
        AdditiveDichotomous(both),
        AdditiveDichotomous(both),
        AdditiveDichotomous(frozenset({0})),
    ]
    pe_dev = run_pe(pe_dev_reports, m)
    fuzz = fuzz_truthfulness("pe", truth, 2, AllDemandSubsets())

    computed = {
        "naive_gain_for_agent3": naive_gain,
        "pe_utilities_truth": tuple(int(u) for u in pe_truth.utilities(truth.valuations)),
        "pe_utilities_single_report": tuple(
            int(u) for u in pe_dev.utilities(truth.valuations)
        ),
        "pe_total_single_report": pe_dev.total_items(),
        "pe_truthful_for_agent3": fuzz.truthful,
    }
    claimed = {
        "naive_gain_for_agent3": 1,
        "pe_utilities_truth": (1, 1, 0),
        "pe_utilities_single_report": (1, 1, 0),
        "pe_total_single_report": 2,
        "pe_truthful_for_agent3": True,
    }
    return _result(
        "F1",
        "tie-break-only Lorenz rule is manipulable; the potential rule is not",
        claimed,
        computed,
    )


def lorenz_gap_instance() -> Instance:
    """Two agents, six items: half-maximin tightness instance (n = 2)."""
    G = frozenset({0, 1})
    B = frozenset({2, 3, 4, 5})
    f1 = MatroidValuation(Partition(((G, 2), (B, 2))))
    f2 = MatroidValuation(FreeOver(G))
    return Instance(
        item_names=("g1", "g2", "b1", "b2", "b3", "b4"),
        agent_names=("a1", "a2"),
        valuations=(f1, f2),
    )


def fixture_f2() -> FixtureResult:
    """Maximin share 3 vs Lorenz utility 2 for the two-agent gap instance."""
    inst = lorenz_gap_instance()
    share = maximin_share(inst.valuations[0], inst.n, inst.m)
    alloc = run_pe(inst.valuations, inst.m)
    utils = tuple(int(u) for u in alloc.utilities(inst.valuations))
    computed = {
        "maximin_agent1": share,
        "pe_utilities": utils,
        "half_maximin_holds": Fraction(utils[0]) >= share / 2,
    }
    claimed = {
        "maximin_agent1": Fraction(3),
        "pe_utilities": (2, 2),
        "half_maximin_holds": True,
    }
    return _result(
        "F2", "Lorenz utility 2 vs maximin 3: half-maximin is tight-ish at n=2", claimed, computed
    )


def fixture_f3() -> FixtureResult:
    """Two unit-demand agents slightly preferring item H: every
    almost-welfare-maximizing truthful rule is beaten by hiding item L."""
    eps = Fraction(1, 100)
    L, H = 0, 1

    def unit_truth(bundle: frozenset) -> Fraction:
        if H in bundle:
            return 1 + eps
        if L in bundle:
            return Fraction(1)
        return Fraction(0)

    def unit_hider(bundle: frozenset) -> Fraction:
        return 1 + eps if H in bundle else Fraction(0)

    def approx_welfare_max(val0, val1) -> list[tuple[frozenset, frozenset]]:
        allocs = []
        best = Fraction(0)
        for a0 in (frozenset(), frozenset({L}), frozenset({H}), frozenset({L, H})):
            for a1 in (frozenset(), frozenset({L}), frozenset({H}), frozenset({L, H})):
                if a0 & a1:
                    continue
                w = val0(a0) + val1(a1)
                best = max(best, w)
                allocs.append((a0, a1, w))
        threshold = best / (1 + eps)
        return [(a0, a1) for a0, a1, w in allocs if w >= threshold]

    truthful_set = approx_welfare_max(unit_truth, unit_truth)
    splits = {(frozenset({H}), frozenset({L})), (frozenset({L}), frozenset({H}))}
    dev_set = approx_welfare_max(unit_hider, unit_truth)

    rules = {
        "H-to-agent1": {(frozenset({H}), frozenset({L})): Fraction(1)},
        "H-to-agent2": {(frozenset({L}), frozenset({H})): Fraction(1)},
        "uniform": {
            (frozenset({H}), frozenset({L})): Fraction(1, 2),
            (frozenset({L}), frozenset({H})): Fraction(1, 2),
        },
    }
    all_rules_beaten = True
    min_gain = None
    for dist in rules.values():
        pr_h_agent0 = sum(
            (p for (a0, _), p in dist.items() if H in a0), Fraction(0)
        )
        # the disadvantaged agent never holds H with probability 1
        if pr_h_agent0 < 1:
            truthful_e = sum(
                (p * unit_truth(a0) for (a0, _), p in dist.items()), Fraction(0)
            )
        else:
            truthful_e = sum(
                (p * unit_truth(a1) for (_, a1), p in dist.items()), Fraction(0)
            )
        gain = (1 + eps) - truthful_e
        all_rules_beaten &= gain > 0
        min_gain = gain if min_gain is None else min(min_gain, gain)

    computed = {
        "truthful_rules_are_splits": set(truthful_set) == splits,
        "deviation_forces_h": dev_set == [(frozenset({H}), frozenset({L}))],
        "hiding_strictly_gains_under_every_rule": all_rules_beaten,
        "min_gain_positive": min_gain is not None and min_gain > 0,
    }
    claimed = {
        "truthful_rules_are_splits": True,
        "deviation_forces_h": True,
        "hiding_strictly_gains_under_every_rule": True,
        "min_gain_positive": True,
    }
    return _result(
        "F3",
        "unit-demand near-dichotomous agents: welfare approximation forbids truthfulness",
        claimed,
        computed,
    )


def fixture_f4() -> FixtureResult:
    """Adversarial report trace for floor-then-PE on 2 agents, 3 items.

    Replays the seven-profile sequence that rules out deterministic
    truthful, almost-welfare-maximizing, minimally fair mechanisms; for
    floor-then-PE the trace breaks truthfulness: with true values
    (1+eps, 1, 0) the truthful report earns 1 while reporting only the
    first item earns 1+eps.  (Full mechanism-space search is out of scope;
    only this trace is certified.)
    """
    eps = Fraction(1, 100)
    m = 3

    def leveled(vals) -> EpsLeveled:
        return EpsLeveled({i: v for i, v in enumerate(vals)})

    def floor_pe_bundle(r0, r1, agent) -> frozenset:
        reports = [AdditiveDichotomous(r0), AdditiveDichotomous(r1)]
        return run_pe(reports, m).bundles[agent]

    one = Fraction(1)
    # profile A1: both report {a}; A4: truth (1+eps,1,0) vs (1+eps,0,0)
    a1_bundle = floor_pe_bundle(frozenset({0}), frozenset({0}), 0)
    a4_bundle = floor_pe_bundle(frozenset({0, 1}), frozenset({0}), 0)
    truth_val = leveled([1 + eps, one, 0])
    truthful_utility = evaluate(truth_val, a4_bundle, m)
    deviation_utility = evaluate(truth_val, a1_bundle, m)

    # the fairness property survives at the trace's last profile
    a7 = run_pe(
        [AdditiveDichotomous(frozenset({0, 1})), AdditiveDichotomous(frozenset({0, 1}))], m
    )
    fairness_holds = all(len(b) >= 1 for b in a7.bundles)

    computed = {
        "agent1_wins_singletons": a1_bundle == frozenset({0}),
        "violated_property": (
            "truthfulness" if deviation_utility > truthful_utility else "none"
        ),
        "truthful_utility": truthful_utility,
        "deviation_utility": deviation_utility,
        "strict_gain": deviation_utility - truthful_utility,
        "fairness_holds_at_final_profile": fairness_holds,
    }
    claimed = {
        "agent1_wins_singletons": True,
        "violated_property": "truthfulness",
        "truthful_utility": Fraction(1),
        "deviation_utility": 1 + eps,
        "strict_gain": eps,
        "fairness_holds_at_final_profile": True,
    }
    return _result(
        "F4",
        "floor-then-PE fails truthfulness along the impossibility trace",
        claimed,
        computed,
    )


def fixture_f5() -> FixtureResult:
    """XOS welfare/EF1 gap at n=2, k=2: max welfare 8, best EF1 welfare 6."""
    m = 8
    s1 = frozenset(range(6))
    valuations = (XosFamily((s1,)), XosFamily((s1, frozenset({6, 7}))))

    max_welfare = 0
    max_ef1_welfare = 0
    for assignment in product(range(3), repeat=m):
        alloc = Allocation(
            tuple(frozenset(i for i, o in enumerate(assignment) if o == v) for v in (0, 1)), m
        )
        welfare = int(sum(alloc.utilities(valuations)))
        max_welfare = max(max_welfare, welfare)
        if welfare > max_ef1_welfare and check_envy(alloc, valuations, "EF1").holds("EF1"):
            max_ef1_welfare = welfare

    computed = {"max_welfare": max_welfare, "max_ef1_welfare": max_ef1_welfare}
    claimed = {"max_welfare": 8, "max_ef1_welfare": 6}
    return _result(
        "F5", "EF1 costs a near-2x welfare factor for XOS pairs", claimed, computed
    )


def _welfare_max_profiles(v0, v1, m: int) -> tuple[Fraction, set[tuple[Fraction, Fraction]]]:
    """Maximum welfare of two agents over m items, and every utility pair
    (u0, u1) that attains it, read from `enumerate_optimal`.  Its scan
    covers the non-redundant allocations only, which reach every
    welfare-maximal pair: dropping zero-marginal items keeps both values."""
    result = enumerate_optimal(Instance(tuple(map(str, range(m))), ("a0", "a1"), (v0, v1)))
    best = result.max_welfare
    return best, {vec for vec in result.vectors if sum(vec) == best}


def fixture_f6() -> FixtureResult:
    """Two XOS agents, four items: welfare maximization rules out
    truthfulness-in-expectation."""
    m = 4
    t = frozenset({1, 2, 3})
    f_shared = XosFamily((t,))
    f_dev = XosFamily((t, frozenset({0})))

    truth_w, truth_profiles = _welfare_max_profiles(f_shared, f_shared, m)
    dev_w, dev_profiles = _welfare_max_profiles(f_dev, f_shared, m)
    # any distribution over welfare-max outcomes hands some agent >= 3/2
    guarantee = truth_w / 2
    dev_utilities = {u0 for u0, _ in dev_profiles}

    computed = {
        "truth_max_welfare": truth_w,
        "truthful_guarantee": guarantee,
        "deviation_utility_forced": dev_utilities == {Fraction(1)},
        "deviation_below_guarantee": max(dev_utilities) < guarantee,
    }
    claimed = {
        "truth_max_welfare": Fraction(3),
        "truthful_guarantee": Fraction(3, 2),
        "deviation_utility_forced": True,
        "deviation_below_guarantee": True,
    }
    return _result(
        "F6",
        "welfare-maximizing rules for XOS pairs cannot be truthful in expectation",
        claimed,
        computed,
    )


def fixture_f7() -> FixtureResult:
    """Downward-closed constraints beyond matroids: hiding a feasible item wins."""
    m = 5
    full = XosFamily((frozenset({0}), frozenset({1, 2, 3, 4})))
    hidden = XosFamily((frozenset({1, 2, 3, 4}),))

    _, hiding_profiles = _welfare_max_profiles(hidden, hidden, m)
    hiding_guarantee = min(max(p) for p in hiding_profiles)
    _, truthful_profiles = _welfare_max_profiles(full, hidden, m)
    truthful_utilities = {u0 for u0, _ in truthful_profiles}

    computed = {
        "truthful_utility_forced": truthful_utilities == {Fraction(1)},
        "hiding_guarantee": hiding_guarantee,
        "hiding_beats_truth": hiding_guarantee > 1,
    }
    claimed = {
        "truthful_utility_forced": True,
        "hiding_guarantee": Fraction(2),
        "hiding_beats_truth": True,
    }
    return _result(
        "F7",
        "general downward-closed constraints: reporting a feasible singleton backfires",
        claimed,
        computed,
    )


def fixture_f8() -> FixtureResult:
    """Random-priority PE with 8 agents and 12 items: the stated coalition
    deviation strictly gains in exact expectation, so the randomized
    mechanism is neither ex-ante Lorenz dominating nor weakly group
    strategyproof."""
    m = 12
    low = frozenset(range(6))
    high = frozenset(range(12))
    truthful = [low] * 4 + [high] * 4
    deviation = (
        [low] * 4
        + [frozenset(range(9))] * 2
        + [low | frozenset({9, 10, 11})] * 2
    )

    def expected_counts(reports: Sequence[ItemSet]):
        memo: dict[tuple, tuple[int, ...]] = {}
        totals = [0] * 8
        group_diffs = []
        for order in permutations(range(8)):
            key = tuple(reports[a] for a in order)
            profile = memo.get(key)
            if profile is None:
                alloc = run_pe([AdditiveDichotomous(reports[a]) for a in order], m)
                profile = alloc.profile()
                memo[key] = profile
            for pos, agent in enumerate(order):
                totals[agent] += profile[pos]
            group_diffs.append(sum(profile[pos] for pos, a in enumerate(order) if a >= 4))
        total_orders = 40320
        return [Fraction(t, total_orders) for t in totals], group_diffs

    truth_e, truth_groups = expected_counts(truthful)
    dev_e, dev_groups = expected_counts(deviation)
    group_never_worse = all(d >= t for d, t in zip(dev_groups, truth_groups))
    group_sometimes_better = any(d > t for d, t in zip(dev_groups, truth_groups))

    computed = {
        "low_agents_below_three_halves": all(truth_e[v] < Fraction(3, 2) for v in range(4)),
        "high_agents_above_three_halves": all(
            truth_e[v] > Fraction(3, 2) for v in range(4, 8)
        ),
        "group_never_worse_per_order": group_never_worse,
        "group_sometimes_better": group_sometimes_better,
        "every_member_strictly_gains": all(dev_e[v] > truth_e[v] for v in range(4, 8)),
    }
    claimed = {
        "low_agents_below_three_halves": True,
        "high_agents_above_three_halves": True,
        "group_never_worse_per_order": True,
        "group_sometimes_better": True,
        "every_member_strictly_gains": True,
    }
    return _result(
        "F8",
        "randomized-priority PE: coalition deviation gains in exact expectation",
        claimed,
        computed,
    )


def priority_swap_instance() -> Instance:
    """Four agents, six items; one agent sees the last two items as substitutes."""
    f1 = MatroidValuation(
        Partition(((frozenset({0}), 1), (frozenset({4, 5}), 1)))
    )
    return Instance(
        item_names=("a", "b", "c", "d", "e1", "e2"),
        agent_names=("p1", "p2", "p3", "p4"),
        valuations=(
            f1,
            AdditiveDichotomous(frozenset({0, 1})),
            AdditiveDichotomous(frozenset({2, 4, 5})),
            AdditiveDichotomous(frozenset({0, 3, 4, 5})),
        ),
    )


def fixture_f9() -> FixtureResult:
    """Priority-swap behaviour: swapping two agents' priorities does not just
    swap their bundles; a third agent's utility moves."""
    inst = priority_swap_instance()
    pi = (0, 1, 2, 3)
    pi_prime = (3, 1, 2, 0)
    a = run_pe(inst.valuations, inst.m, pi)
    a_prime = run_pe(inst.valuations, inst.m, pi_prime)
    utils = tuple(int(u) for u in a.utilities(inst.valuations))
    utils_prime = tuple(int(u) for u in a_prime.utilities(inst.valuations))
    # the naive swap of agents 1 and 4 inside the pi-allocation
    swapped_profile = (utils[3], utils[1], utils[2], utils[0])
    pot_swap = potential(swapped_profile, pi_prime)
    pot_actual = potential(tuple(int(u) for u in a_prime.profile()), pi_prime)

    computed = {
        "utilities_pi": utils,
        "utilities_pi_prime": utils_prime,
        "swap_profile_potential": pot_swap,
        "actual_potential": pot_actual,
        "swap_is_suboptimal": pot_actual < pot_swap,
    }
    claimed = {
        "utilities_pi": (2, 1, 2, 1),
        "utilities_pi_prime": (1, 2, 1, 2),
        "swap_profile_potential": 302,
        "actual_potential": 294,
        "swap_is_suboptimal": True,
    }
    return _result(
        "F9",
        "priority swap reshuffles a bystander's utility (substitutes at work)",
        claimed,
        computed,
    )


FIXTURES: dict[str, Callable[[], FixtureResult]] = {
    "F1": fixture_f1,
    "F2": fixture_f2,
    "F3": fixture_f3,
    "F4": fixture_f4,
    "F5": fixture_f5,
    "F6": fixture_f6,
    "F7": fixture_f7,
    "F8": fixture_f8,
    "F9": fixture_f9,
}


def run_fixture(fixture_id: str) -> FixtureResult:
    try:
        fn = FIXTURES[fixture_id.upper()]
    except KeyError:
        raise ValidationError(
            f"unknown fixture {fixture_id!r}; known: {', '.join(sorted(FIXTURES))}"
        ) from None
    return fn()
