"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each test prints a PASS line (visible with -s); the shared grid of all
additive demand profiles for n in {2,3}, m in {2,3,4} is built once.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from conftest import (
    all_demand_profiles,
    matroid_instance,
    rand_explicit_matroid,
    rand_structured_matroid,
)
from egalloc.audit import (
    check_envy,
    check_stochastic_ef,
    maximin_share,
    nsw_key,
)
from egalloc.harness import FIXTURES, run_fixture
from egalloc.lorenz import enumerate_optimal
from egalloc.mechanisms import expected_utilities, run_meps, run_pe, run_rpe
from egalloc.model import Instance
from egalloc.valuation import AdditiveDichotomous, EpsLeveled

F = frozenset
GRID = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)]


def _report(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


# ---------------------------------------------------------------------------
# shared grid data
# ---------------------------------------------------------------------------


@dataclass
class GridRecord:
    demands: tuple[frozenset[int], ...]
    pe_bundles: tuple[frozenset[int], ...]
    pe_vector: tuple[int, ...]
    enum_min_potential_vectors: frozenset
    enum_max_welfare: int
    enum_lexmin_sorted: tuple
    enum_min_sumsq: Fraction
    enum_best_nsw: tuple


@pytest.fixture(scope="module")
def grid():
    t0 = time.perf_counter()
    data: dict[tuple[int, int], dict] = {}
    for n, m in GRID:
        records = {}
        for demands in all_demand_profiles(n, m):
            inst = Instance(
                item_names=tuple(f"i{j}" for j in range(m)),
                agent_names=tuple(f"a{j}" for j in range(n)),
                valuations=tuple(AdditiveDichotomous(d) for d in demands),
            )
            pe = run_pe(inst.valuations, m)
            vec = tuple(len(b) for b in pe.bundles)  # non-redundant additive bundles
            res = enumerate_optimal(inst)
            welfare_max = [
                v for v in res.vectors if sum(v) == res.max_welfare
            ]
            records[demands] = GridRecord(
                demands=demands,
                pe_bundles=pe.bundles,
                pe_vector=vec,
                enum_min_potential_vectors=frozenset(res.min_potential_vectors()),
                enum_max_welfare=int(res.max_welfare),
                enum_lexmin_sorted=max(tuple(sorted(v)) for v in res.vectors),
                enum_min_sumsq=min(sum(x * x for x in v) for v in welfare_max),
                enum_best_nsw=max(nsw_key(v) for v in res.vectors),
            )
        data[(n, m)] = records
    data["build_seconds"] = time.perf_counter() - t0
    return data


def _mrf_instances(count: int, seed: int, max_n: int = 3, max_m: int = 5):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, max_n)
        m = rng.randint(1, max_m)
        mats = [rand_structured_matroid(rng, m) for _ in range(n)]
        out.append((mats, m))
    return out


def test_criterion_1_pe_equals_oracle(grid):
    t0 = time.perf_counter()
    checked = 0
    for n, m in GRID:
        for rec in grid[(n, m)].values():
            vecs = rec.enum_min_potential_vectors
            assert len(vecs) == 1, (rec.demands, vecs)
            want = next(iter(vecs))
            assert tuple(Fraction(x) for x in rec.pe_vector) == want, rec.demands
            checked += 1
    for mats, m in _mrf_instances(50, seed=20240101):
        inst = matroid_instance(mats, m)
        pe = run_pe(inst.valuations, m)
        res = enumerate_optimal(inst)
        vecs = res.min_potential_vectors()
        assert len(vecs) == 1
        assert pe.utilities(inst.valuations) == next(iter(vecs))
        checked += 1
    elapsed = grid["build_seconds"] + time.perf_counter() - t0
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
    _report("1", f"(PE == oracle on {checked} instances, {elapsed:.1f}s)")


def test_criterion_2_pe_truthfulness(grid):
    t0 = time.perf_counter()
    checked = 0
    for n, m in GRID:
        records = grid[(n, m)]
        subsets = [
            F(s) for k in range(m + 1) for s in itertools.combinations(range(m), k)
        ]
        for demands, rec in records.items():
            for v in range(n):
                truth = demands[v]
                truthful_utility = len(rec.pe_bundles[v] & truth)
                for lie in subsets:
                    if lie == truth:
                        continue
                    other = list(demands)
                    other[v] = lie
                    dev_rec = records[tuple(other)]
                    got = len(dev_rec.pe_bundles[v] & truth)
                    assert got <= truthful_utility, (demands, v, lie)
                    checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"criterion 2 took {elapsed:.1f}s"
    _report("2", f"({checked} deviations, zero profitable, {elapsed:.1f}s)")


def test_criterion_3_pe_fairness_bundle(grid):
    t0 = time.perf_counter()
    for n, m in GRID:
        for demands, rec in grid[(n, m)].items():
            vec = tuple(Fraction(x) for x in rec.pe_vector)
            assert sum(vec) == rec.enum_max_welfare, demands
            assert tuple(sorted(vec)) == rec.enum_lexmin_sorted, demands
            assert sum(x * x for x in vec) == rec.enum_min_sumsq, demands
            assert nsw_key(vec) == rec.enum_best_nsw, demands
            vals = [AdditiveDichotomous(d) for d in demands]
            from egalloc.model import Allocation

            alloc = Allocation(rec.pe_bundles, m)
            assert check_envy(alloc, vals, "EFX").all_hold, demands
            for v in range(n):
                assert rec.pe_vector[v] >= len(demands[v]) // n, demands
    elapsed = time.perf_counter() - t0
    _report("3", f"(max-welfare, lex-min, min-square, NSW, EFX, maximin; {elapsed:.1f}s)")


def test_criterion_4_half_maximin():
    t0 = time.perf_counter()
    f2 = run_fixture("F2")
    assert f2.passed
    assert f2.computed["maximin_agent1"] == 3
    assert f2.computed["pe_utilities"] == (2, 2)

    rng = random.Random(424242)
    done = 0
    while done < 200:
        n = rng.randint(1, 3)
        m = rng.randint(1, 7)
        mats = [rand_explicit_matroid(rng, m) for _ in range(n)]
        inst = matroid_instance(mats, m)
        alloc = run_pe(inst.valuations, m)
        for v in range(n):
            share = maximin_share(inst.valuations[v], n, m)
            assert Fraction(len(alloc.bundles[v])) >= share / 2, (mats, v)
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"criterion 4 took {elapsed:.1f}s"
    _report("4", f"(fixture F2 + {done} explicit-matroid instances, {elapsed:.1f}s)")


def test_criterion_5_rpe_stochastic_ef(grid):
    t0 = time.perf_counter()
    checked = 0
    for n, m in GRID:
        for demands in grid[(n, m)]:
            vals = [AdditiveDichotomous(d) for d in demands]
            dist = run_rpe(vals, m)
            rep = check_stochastic_ef(dist, vals)
            assert rep.holds("stochastic_ef"), demands
            assert rep.holds("ex_ante_ef") and rep.holds("ex_ante_proportional")
            checked += 1

    # the substitutes instance with four agents
    from egalloc.harness import priority_swap_instance

    inst = priority_swap_instance()
    dist = run_rpe(inst.valuations, inst.m)
    assert check_stochastic_ef(dist, inst.valuations).holds("stochastic_ef")

    # the hand-built rounding is ex-ante EF yet not stochastically EF
    from test_audit import _hand_rounding_distribution

    vals, hand = _hand_rounding_distribution()
    rep = check_stochastic_ef(hand, vals)
    assert rep.holds("ex_ante_ef")
    assert not rep.holds("stochastic_ef")
    w = rep.verdict("stochastic_ef").witness
    assert w.envier == 0 and w.threshold == 2
    elapsed = time.perf_counter() - t0
    _report("5", f"({checked} grid instances + substitutes fixture, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# held-out mechanism criteria (n=2, m=3, eps=1/60)
# ---------------------------------------------------------------------------

EPS = Fraction(1, 60)
M3 = 3
N2 = 2
SCALE = 120  # all item values times 120 are integers
ATOMS = 18


@pytest.fixture(scope="module")
def meps_tables():
    """Exact atoms for every ordered demand-mask pair, plus value tables.

    Atom tuple: (bundle0, bundle1, pe0, pe1, x_tuple, sigma); all bundles are
    item masks.  Each atom has probability exactly 1/18.
    """
    t0 = time.perf_counter()
    masks = list(range(8))

    def mask_set(mask):
        return F(i for i in range(M3) if mask >> i & 1)

    def set_mask(s):
        out = 0
        for a in s:
            out |= 1 << a
        return out

    atoms_by_pair = {}
    from egalloc.mechanisms import held_out_outcomes, run_mx
    from egalloc.lorenz import additive_balanced

    outcomes = held_out_outcomes(M3)
    assert len(outcomes) == 9 and all(w == Fraction(1, 9) for _, w in outcomes)
    for d0 in masks:
        for d1 in masks:
            demands = [mask_set(d0), mask_set(d1)]
            atoms = []
            for x, _ in outcomes:
                xset = F(x)
                for sigma in itertools.permutations(range(N2)):
                    pe = additive_balanced([d - xset for d in demands], M3, sigma)
                    mx = run_mx(
                        x, tuple(reversed(sigma)), [d & xset for d in demands], M3
                    )
                    atoms.append(
                        (
                            set_mask(pe.bundles[0] | mx.bundles[0]),
                            set_mask(pe.bundles[1] | mx.bundles[1]),
                            set_mask(pe.bundles[0]),
                            set_mask(pe.bundles[1]),
                            x,
                            sigma,
                        )
                    )
            assert len(atoms) == ATOMS
            atoms_by_pair[(d0, d1)] = atoms

    # all valuations over 3 items with values in {0, 1, 1+eps/2, 1+eps},
    # scaled by 120 so sums are integers
    item_values = [0, SCALE, SCALE + 1, SCALE + 2]  # 0, 1, 1+eps/2, 1+eps
    valuations = list(itertools.product(item_values, repeat=M3))
    val_tables = []
    demand_masks = []
    for vals in valuations:
        table = [0] * 8
        for mask in range(8):
            table[mask] = sum(vals[i] for i in range(M3) if mask >> i & 1)
        val_tables.append(table)
        demand_masks.append(sum(1 << i for i in range(M3) if vals[i] > 0))

    # expected scaled utility of each side, per (pair, valuation): sum over
    # atoms of the value table at the bundle (expectation times 18*120)
    exp0 = {}
    exp1 = {}
    for pair, atoms in atoms_by_pair.items():
        for w, table in enumerate(val_tables):
            exp0[(pair, w)] = sum(table[a[0]] for a in atoms)
            exp1[(pair, w)] = sum(table[a[1]] for a in atoms)

    return {
        "atoms": atoms_by_pair,
        "tables": val_tables,
        "demand_masks": demand_masks,
        "exp0": exp0,
        "exp1": exp1,
        "build_seconds": time.perf_counter() - t0,
    }


def test_criterion_6_meps_truthful_in_expectation(meps_tables):
    t0 = time.perf_counter()
    tabs = meps_tables
    n_val = len(tabs["tables"])
    checked = 0
    strict_checked = 0
    for w0 in range(n_val):
        d0 = tabs["demand_masks"][w0]
        for w1 in range(n_val):
            d1 = tabs["demand_masks"][w1]
            # deviator 0
            truth = tabs["exp0"][((d0, d1), w0)]
            contested = d0 & d1
            for lie in range(8):
                if lie == d0:
                    continue
                got = tabs["exp0"][((lie, d1), w0)]
                assert got <= truth, (w0, w1, lie)
                if contested:
                    assert got < truth, (w0, w1, lie)
                    strict_checked += 1
                checked += 1
            # deviator 1
            truth = tabs["exp1"][((d0, d1), w1)]
            for lie in range(8):
                if lie == d1:
                    continue
                got = tabs["exp1"][((d0, lie), w1)]
                assert got <= truth, (w0, w1, lie)
                if contested:
                    assert got < truth, (w0, w1, lie)
                    strict_checked += 1
                checked += 1

    # tie the scaled-integer fast path to the public expectation API
    rng = random.Random(99)
    for _ in range(5):
        w0, w1 = rng.randrange(n_val), rng.randrange(n_val)
        vals = [
            EpsLeveled({i: Fraction(tabs_val[i], SCALE) for i in range(M3)})
            for tabs_val in (
                _unscaled(tabs, w0),
                _unscaled(tabs, w1),
            )
        ]
        demands = [tabs["demand_masks"][w0], tabs["demand_masks"][w1]]
        dist = run_meps(
            [F(i for i in range(M3) if d >> i & 1) for d in demands], M3, EPS
        )
        exact = expected_utilities(dist, vals)
        pair = (demands[0], demands[1])
        assert exact[0] == Fraction(tabs["exp0"][(pair, w0)], ATOMS * SCALE)
        assert exact[1] == Fraction(tabs["exp1"][(pair, w1)], ATOMS * SCALE)

    elapsed = meps_tables["build_seconds"] + time.perf_counter() - t0
    assert elapsed < 60, f"criterion 6 took {elapsed:.1f}s"
    _report("6", f"({checked} deviations, {strict_checked} strict, {elapsed:.1f}s)")


def _unscaled(tabs, w):
    table = tabs["tables"][w]
    return [table[1 << i] for i in range(M3)]


def test_criterion_7_meps_expost_guarantees(meps_tables):
    t0 = time.perf_counter()
    pop = [bin(x).count("1") for x in range(8)]
    for (d0, d1), atoms in meps_tables["atoms"].items():
        reported = d0 | d1
        for b0, b1, pe0, pe1, x, sigma in atoms:
            # reasonable: bundles inside reports, every reported item placed
            assert b0 & ~d0 == 0 and b1 & ~d1 == 0
            assert b0 | b1 == reported
            assert b0 & b1 == 0
            # floor-maximin for an agent whose report is her true demand
            assert pop[b0] >= pop[d0] // N2
            assert pop[b1] >= pop[d1] // N2
            # EF1 with respect to the reported floor valuations
            assert pop[b0] >= pop[b1 & d0] - 1
            assert pop[b1] >= pop[b0 & d1] - 1
            # positional guarantee from the main-stage allocation
            x_mask = 0
            for item in x:
                x_mask |= 1 << item
            for agent, (d, pe_mask) in enumerate(((d0, pe0), (d1, pe1))):
                rank = sigma.index(agent) + 1
                need = pop[d & ~x_mask] - rank + 1
                assert pop[pe_mask] >= -(-need // N2), (d0, d1, x, sigma, agent)
    elapsed = time.perf_counter() - t0
    _report("7", f"(all {64 * ATOMS} atoms, {elapsed:.1f}s)")


def test_criterion_8_meps_proportional_in_expectation(meps_tables):
    t0 = time.perf_counter()
    tabs = meps_tables
    n_val = len(tabs["tables"])
    checked = 0
    for w0 in range(n_val):
        d0 = tabs["demand_masks"][w0]
        total0 = tabs["tables"][w0][7]  # value of the grand bundle, scaled
        for w1 in range(n_val):
            d1 = tabs["demand_masks"][w1]
            total1 = tabs["tables"][w1][7]
            # truthful run: both agents are truthful
            assert tabs["exp0"][((d0, d1), w0)] * N2 >= total0 * ATOMS
            assert tabs["exp1"][((d0, d1), w1)] * N2 >= total1 * ATOMS
            checked += 2
            # deviation runs: the non-deviator stays truthful
            for lie in range(8):
                assert tabs["exp1"][((lie, d1), w1)] * N2 >= total1 * ATOMS
                assert tabs["exp0"][((d0, lie), w0)] * N2 >= total0 * ATOMS
                checked += 2
    elapsed = time.perf_counter() - t0
    _report("8", f"({checked} proportionality bounds, {elapsed:.1f}s)")


def test_criterion_9_fixture_gallery():
    t0 = time.perf_counter()
    for fid in sorted(FIXTURES):
        result = run_fixture(fid)
        assert result.passed, (fid, result.claimed, result.computed)
    f5 = run_fixture("F5")
    assert f5.computed["max_welfare"] == 8
    assert f5.computed["max_ef1_welfare"] == 6
    elapsed = time.perf_counter() - t0
    _report("9", f"(F1..F9 exact, {elapsed:.1f}s)")


def test_criterion_10_probability_sanity():
    t0 = time.perf_counter()
    for n, m in [(2, 3), (2, 4), (3, 2)]:
        demands = [F(range(m))] * n
        dist = run_meps(demands, m, Fraction(1, n * m**3 + 1))
        weight = Fraction(1, m * m * math.factorial(n))
        assert len(dist.atoms) == m * m * math.factorial(n)
        assert all(a.weight == weight for a in dist.atoms)
        for item in range(m):
            for v in range(n):
                p = sum(
                    (
                        a.weight
                        for a in dist.atoms
                        if a.held_out == (item,) and a.priority[-1] == v
                    ),
                    Fraction(0),
                )
                assert p == Fraction(1, n * m * m)
    elapsed = time.perf_counter() - t0
    _report("10", f"(atom weights and held-out event probabilities, {elapsed:.1f}s)")
