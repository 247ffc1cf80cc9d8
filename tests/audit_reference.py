"""Reference route to the envy verdicts: one mode per sweep, all through `evaluate`.

Each mode visits every (envier, envied) pair in row-major order and builds
every value with `evaluate`, in `Fraction` arithmetic, with no shared
values and no shortcut for pairs without envy.  It shares only `evaluate`
and the report types with the program's one-sweep `check_envy`, so
agreement between the two, witnesses included, is a differential check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from egalloc.audit import EnvyWitness, FairnessReport, Verdict
from egalloc.errors import PreconditionError, ValidationError
from egalloc.model import Allocation
from egalloc.valuation import ValuationSpec, evaluate


def reference_check_envy(
    allocation: Allocation,
    valuations: Sequence[ValuationSpec],
    mode: str = "EFX",
    alpha=1,
) -> FairnessReport:
    """α-EF / α-EF1 / α-EFX verdict for one mode, with an envy witness on failure.

    EF:  f_i(A_i) >= α f_i(A_j) for all pairs.
    EF1: some item of A_j can be removed to kill the (α-scaled) envy.
    EFX: every item of A_j can be.
    """
    if mode not in ("EF", "EF1", "EFX"):
        raise ValidationError(f"unknown envy mode {mode!r}")
    alpha = Fraction(alpha)
    if not (0 < alpha <= 1):
        raise PreconditionError(f"alpha must lie in (0, 1], got {alpha}")
    n = allocation.n
    m = allocation.m
    for i in range(n):
        own = evaluate(valuations[i], allocation.bundles[i], m)
        for j in range(n):
            if i == j:
                continue
            other = allocation.bundles[j]
            if mode == "EF":
                req = alpha * evaluate(valuations[i], other, m)
                if own < req:
                    w = EnvyWitness(i, j, None, own, req)
                    return FairnessReport(((mode, Verdict(False, w)),))
            elif mode == "EF1":
                if not other:
                    continue
                best = min(
                    evaluate(valuations[i], other - {a}, m) for a in sorted(other)
                )
                if own < alpha * best:
                    w = EnvyWitness(i, j, None, own, alpha * best)
                    return FairnessReport(((mode, Verdict(False, w)),))
            else:  # EFX
                for a in sorted(other):
                    req = alpha * evaluate(valuations[i], other - {a}, m)
                    if own < req:
                        w = EnvyWitness(i, j, a, own, req)
                        return FairnessReport(((mode, Verdict(False, w)),))
    return FairnessReport(((mode, Verdict(True)),))
