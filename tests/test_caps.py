"""Every documented cap admits its limit and refuses one step past it.

The limits are the README's "Caps and limits" values, written out here so a
change to any cap constant fails this test.
"""

import json

import pytest

from conftest import additive_instance, matroid_instance
from egalloc.audit import maximin_share
from egalloc.errors import CapabilityError
from egalloc.harness import all_demand_subsets, fuzz_truthfulness, restricted_mrf_library
from egalloc.io import parse_instance
from egalloc.lorenz import enumerate_optimal
from egalloc.matroid import Explicit, FreeOver, validate_matroid
from egalloc.mechanisms import run_meps, run_rpe
from egalloc.valuation import AdditiveDichotomous, MatroidValuation

F = frozenset

# a two-item support keeps the brute force cheap at every universe size
SMALL_SUPPORT = MatroidValuation(FreeOver(F({0, 1})))


ONE_AGENT_TEN_ITEMS = additive_instance([F(range(10))])

# one agent over 59,999 items, wanting only the last: n + m = 60,000
ONE_AGENT_60K = additive_instance([F({59_998})])


def empty_reports(k):
    return lambda instance, deviator: [AdditiveDichotomous(F())] * k


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
    # one item: m^2 * n! = 5,040 atoms for 7 agents; 8 are refused before n!
    "exact-meps-agents": (7, lambda n: run_meps([AdditiveDichotomous(F({0}))] * n, 1, 0)),
    # four agents: 20^2 * 4! = 9,600 atoms, 21 items 10,584
    "exact-meps-items": (20, lambda m: run_meps([AdditiveDichotomous(F({0}))] * 4, m, 0)),
    "maximin-items": (10, lambda m: maximin_share(SMALL_SUPPORT, 2, m)),
    "maximin-agents": (4, lambda n: maximin_share(SMALL_SUPPORT, n, 2)),
    "explicit-validation-items": (12, lambda k: validate_matroid(Explicit(F({F(range(k))})))),
    "explicit-document-items": (12, lambda k: parse_instance(explicit_document(k))),
    # one agent over 10 items: m^2 * n! = 100 atoms for each of the k
    # candidate reports and the truthful one, so k = 99 builds 10,000
    "fuzz-total-atoms": (
        99,
        lambda k: fuzz_truthfulness("meps", ONE_AGENT_TEN_ITEMS, 0, empty_reports(k)),
    ),
    # no candidate report: one exact distribution, for the truthful report,
    # of n! atoms; RPE's agent cap refuses 7 agents, whose 5,040 atoms are
    # under the atom cap
    "fuzz-rpe-agents": (
        6,
        lambda n: fuzz_truthfulness("rpe", additive_instance([F({0})] * n), 0, empty_reports(0)),
    ),
    # k candidate reports and the truthful one, each a PE solve over
    # 60,000 agents and items: k = 4 makes 300,000
    "fuzz-pe-size": (4, lambda k: fuzz_truthfulness("pe", ONE_AGENT_60K, 0, empty_reports(k))),
    # the deviation spaces: 2^12 = 4,096 demand sets over 12 items, and the
    # restrictions of a truth whose support is 12 items
    "subset-space-items": (12, lambda m: all_demand_subsets(additive_instance([F({m - 1})]), 0)),
    "library-support-items": (
        12,
        lambda k: restricted_mrf_library(matroid_instance([FreeOver(F(range(k)))], k), 0),
    ),
    # no candidate report: the truthful PE solve alone, over one agent and
    # m items, so m = 299,999 makes 300,000
    "fuzz-pe-items": (
        299_999,
        lambda m: fuzz_truthfulness("pe", additive_instance([F({m - 1})]), 0, empty_reports(0)),
    ),
}


@pytest.mark.parametrize("cap", sorted(CAPS))
def test_cap_admits_its_limit_and_refuses_one_more(cap):
    limit, call = CAPS[cap]
    call(limit)
    with pytest.raises(CapabilityError):
        call(limit + 1)
