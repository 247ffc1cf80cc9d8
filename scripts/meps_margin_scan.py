#!/usr/bin/env python3
"""Scan the truthfulness margin of the held-out mechanism as epsilon grows.

For n = 2 agents and m = 3 items, enumerate every leveled valuation pair
with item values in {0, 1, 1+eps/2, 1+eps} and every demand-set deviation,
and record the smallest gap

    E[truthful utility] - E[best deviating utility]

over instances with a contested demanded item.  The mechanism's allocation
depends only on the reported demand sets, so one atom table serves every
epsilon; the guarantee eps < 1/(n*m^3) = 1/54 makes the gap positive, and
the scan shows where the worst-case gap actually crosses zero once epsilon
leaves the guaranteed range.

Usage:
    python scripts/meps_margin_scan.py --denominators 60 55 54 40 30 20 10 6
"""

import argparse
import itertools
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from egalloc.mechanisms import run_meps

N, M = 2, 3
ATOMS = M * M * 2


def atom_table():
    """bundle-mask atoms for every ordered demand-mask pair.

    Atoms depend only on the reported demand sets, so the exact
    distribution at eps = 0 serves every epsilon scanned.
    """
    def to_set(mask):
        return frozenset(i for i in range(M) if mask >> i & 1)

    def to_mask(s):
        out = 0
        for a in s:
            out |= 1 << a
        return out

    table = {}
    for d0 in range(8):
        for d1 in range(8):
            dist = run_meps([to_set(d0), to_set(d1)], M, 0)
            table[(d0, d1)] = [
                (to_mask(atom.allocation.bundles[0]), to_mask(atom.allocation.bundles[1]))
                for atom in dist.atoms
            ]
    return table


def worst_margin(eps: Fraction, atoms):
    levels = [Fraction(0), Fraction(1), 1 + eps / 2, 1 + eps]
    valuations = list(itertools.product(levels, repeat=M))
    tables = []
    demand_masks = []
    for vals in valuations:
        tables.append([sum(vals[i] for i in range(M) if mk >> i & 1) for mk in range(8)])
        demand_masks.append(sum(1 << i for i in range(M) if vals[i] > 0))

    def expectation(pair, table, side):
        return sum(table[a[side]] for a in atoms[pair])

    worst = None
    for w0, table0 in enumerate(tables):
        d0 = demand_masks[w0]
        for w1 in range(len(tables)):
            d1 = demand_masks[w1]
            if not d0 & d1:
                continue  # no contested item: ties are legitimate
            truth = expectation((d0, d1), table0, 0)
            best_lie = max(
                expectation((lie, d1), table0, 0) for lie in range(8) if lie != d0
            )
            gap = Fraction(truth - best_lie, ATOMS)
            if worst is None or gap < worst:
                worst = gap
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--denominators", type=int, nargs="+", default=[120, 60, 55, 54, 40, 30, 20, 10, 6]
    )
    args = parser.parse_args()

    atoms = atom_table()
    bound = Fraction(1, N * M**3)
    print(f"guaranteed range: eps < 1/(n*m^3) = {bound}")
    print(f"{'eps':>8} {'in-range':>9} {'worst margin':>16}")
    for den in args.denominators:
        eps = Fraction(1, den)
        margin = worst_margin(eps, atoms)
        print(f"{str(eps):>8} {str(eps < bound):>9} {str(margin):>16}")


if __name__ == "__main__":
    main()
