#!/usr/bin/env python3
"""Print the held-out mechanism's exact truthfulness threshold ε*(n, m).

The paper's bound ε < 1/(n·m³) is sufficient for truthfulness in
expectation.  For each size of a fixed ladder this prints n, m, the exact
threshold ε* of `meps_reference.truthfulness_threshold` (a truthful demand
report is weakly best for every ε-leveled valuation exactly when ε ≤ ε*),
the bound 1/(n·m³), and the case attaining ε*: the deviator's demand D,
its report R and the others' demands.

Usage:
    python scripts/meps_margin_scan.py
"""

import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from meps_reference import truthfulness_threshold  # noqa: E402

SIZES = ((2, 2), (2, 3), (3, 3), (2, 4))


def _items(items) -> str:
    return "{" + ",".join(map(str, sorted(items))) + "}"


def main():
    print("n m eps* 1/(n*m^3) D R others")
    for n, m in SIZES:
        bound = Fraction(1, n * m**3)
        case = truthfulness_threshold(n, m)
        if case is None:  # no report gains any item's chance
            print(n, m, "none", bound)
            continue
        eps_star, truth, lie, others = case
        print(n, m, eps_star, bound, _items(truth), _items(lie), *map(_items, others))


if __name__ == "__main__":
    main()
