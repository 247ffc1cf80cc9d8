"""Reference route for `fuzz_truthfulness`.

`reference_fuzz_truthfulness` scores each candidate report the way the
harness once did.  For 'pe' it runs `run_pe` under the instance's priority
and values the deviator's bundle with `evaluate`.  For 'rpe' and 'meps' it
builds the whole exact distribution (`run_rpe` or `run_meps`, every atom a
validated `Allocation` with its `Fraction` weight) and reads the deviator's
entry of `expected_utilities`.  The harness tallies the deviator's bundles
over the same realizations as native sums, PE's one order included, and
divides once, so agreement between the two is a differential check of the
tally: its counts, its merge of the two held-out halves, its sums and its
denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from egalloc.errors import CapabilityError, ValidationError
from egalloc.harness import FuzzResult
from egalloc.mechanisms import (
    MEPS_EXACT_MAX_ATOMS,
    _check_meps_inputs,
    expected_utilities,
    floor_reports,
    run_meps,
    run_pe,
    run_rpe,
)
from egalloc.model import Instance
from egalloc.valuation import ValuationSpec, evaluate


def reference_fuzz_truthfulness(
    mechanism: str,
    instance: Instance,
    deviator: int,
    space: Callable[[Instance, int], Sequence[ValuationSpec]],
) -> FuzzResult:
    """`fuzz_truthfulness`: one PE solve or one exact distribution per candidate."""
    n, m = instance.n, instance.m
    truth = instance.valuations[deviator]

    if mechanism == "pe":

        def utility(report: ValuationSpec) -> Fraction:
            reports = floor_reports(instance.valuations)
            reports[deviator] = report
            alloc = run_pe(reports, m, instance.priority_or_default())
            return evaluate(truth, alloc.bundles[deviator], m)

    elif mechanism in ("rpe", "meps"):
        if mechanism == "meps":  # ε and the demands are checked before the size gate
            _check_meps_inputs(floor_reports(instance.valuations), m, instance.epsilon)

        def utility(report: ValuationSpec) -> Fraction:
            reports = floor_reports(instance.valuations)
            reports[deviator] = report
            if mechanism == "rpe":
                dist = run_rpe(reports, m)
            else:
                dist = run_meps(reports, m, instance.epsilon)
            return expected_utilities(dist, instance.valuations)[deviator]

    else:
        raise ValidationError(f"unknown mechanism {mechanism!r}")

    reports = space(instance, deviator)
    if mechanism != "pe":  # pe's cap is left out: the comparisons stay far below it
        atoms = math.factorial(n) * (m * m if mechanism == "meps" else 1)
        total = (len(reports) + 1) * atoms
        if total > MEPS_EXACT_MAX_ATOMS:
            raise CapabilityError(
                f"fuzzing {mechanism} builds {len(reports) + 1} exact distributions of "
                f"{atoms} atoms ({total} in all); the cap is {MEPS_EXACT_MAX_ATOMS}"
            )
    truthful_utility = utility(floor_reports([truth])[0])

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
