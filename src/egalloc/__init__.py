"""Truthful fair allocation for dichotomous and near-dichotomous valuations.

Exact-arithmetic mechanisms (prioritized egalitarian, its random-priority
variant, and a randomized held-out mechanism for ε-leveled demand reports)
together with exhaustive oracles and fairness auditors.
"""

from types import ModuleType as _ModuleType

from .audit import (
    check_envy,
    check_lorenz_dominating,
    check_maximin_fair,
    check_stochastic_ef,
    efficiency_metrics,
    maximin_share,
)
from .errors import (
    CapabilityError,
    EgallocError,
    ParseError,
    PreconditionError,
    ValidationError,
)
from .harness import (
    AllDemandSubsets,
    ExplicitDeviations,
    FixtureResult,
    FuzzResult,
    RestrictedMrfLibrary,
    fuzz_truthfulness,
    run_fixture,
)
from .intersection import feasible_with_profile, max_common_independent
from .io import emit_instance, parse_allocation, parse_instance
from .lorenz import (
    EnumerationResult,
    LorenzRelation,
    additive_balanced,
    compute_lorenz_dominating,
    enumerate_optimal,
    greedy_welfare,
    lorenz_compare,
    potential,
)
from .matroid import (
    Explicit,
    FreeOver,
    MatroidSpec,
    Partition,
    Restricted,
    Truncated,
    Uniform,
    validate_matroid,
)
from .mechanisms import (
    expected_utilities,
    run_meps,
    run_mx,
    run_pe,
    run_rpe,
    sample_meps,
    sample_rpe,
    sanitize_reports,
)
from .model import Allocation, Atom, Instance, OutcomeDistribution
from .valuation import (
    AdditiveDichotomous,
    EpsLeveled,
    MatroidValuation,
    ValuationSpec,
    XosFamily,
    evaluate,
    floor_round,
    validate,
)

# submodules are package attributes too; exporting them would rebind `io` on a star import
__all__ = [n for n in dir() if n[0] != "_" and not isinstance(globals()[n], _ModuleType)]
__version__ = "0.1.0"
