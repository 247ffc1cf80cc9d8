"""Every documented cap admits its limit and refuses one step past it.

The limits are the README's "Caps and limits" values, written out here so a
change to any cap constant fails this test.
"""

import json

import pytest

from conftest import additive_instance
from egalloc.audit import maximin_share
from egalloc.errors import CapabilityError
from egalloc.harness import ExplicitDeviations, fuzz_truthfulness
from egalloc.io import parse_instance
from egalloc.lorenz import enumerate_optimal
from egalloc.matroid import Explicit, FreeOver, validate_matroid
from egalloc.mechanisms import run_rpe
from egalloc.valuation import AdditiveDichotomous, MatroidValuation

F = frozenset

# a two-item support keeps the brute force cheap at every universe size
SMALL_SUPPORT = MatroidValuation(FreeOver(F({0, 1})))


ONE_AGENT_TEN_ITEMS = additive_instance([F(range(10))])


def explicit_document(k):
    names = [f"i{j}" for j in range(k)]
    agent = {"name": "a", "valuation": {"matroid": {"type": "explicit", "independent": [names]}}}
    return json.dumps({"items": names, "agents": [agent]})


CAPS = {
    "enumeration-agents": (4, lambda n: enumerate_optimal(additive_instance([F({0})] * n))),
    "enumeration-items": (6, lambda m: enumerate_optimal(additive_instance([F(range(m))]))),
    "exact-rpe-agents": (
        6,
        lambda n: run_rpe([AdditiveDichotomous(F({0}))] * n, 1),
    ),
    "maximin-items": (10, lambda m: maximin_share(SMALL_SUPPORT, 2, m)),
    "maximin-agents": (4, lambda n: maximin_share(SMALL_SUPPORT, n, 2)),
    "explicit-validation-items": (12, lambda k: validate_matroid(Explicit(F({F(range(k))})))),
    "explicit-document-items": (12, lambda k: parse_instance(explicit_document(k))),
    # one agent over 10 items: m^2 * n! = 100 atoms for each of the k
    # candidate reports and the truthful one, so k = 99 builds 10,000
    "fuzz-total-atoms": (
        99,
        lambda k: fuzz_truthfulness(
            "meps", ONE_AGENT_TEN_ITEMS, 0, ExplicitDeviations((AdditiveDichotomous(F()),) * k)
        ),
    ),
}


@pytest.mark.parametrize("cap", sorted(CAPS))
def test_cap_admits_its_limit_and_refuses_one_more(cap):
    limit, call = CAPS[cap]
    call(limit)
    with pytest.raises(CapabilityError):
        call(limit + 1)
