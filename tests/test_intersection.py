import random

import pytest

from conftest import brute_max_common, rand_matroid
from egalloc.errors import ValidationError
from egalloc.intersection import max_common_independent
from egalloc.matroid import FreeOver

F = frozenset


def test_single_contested_item():
    mats = [FreeOver(F({0})), FreeOver(F({0}))]
    alloc = max_common_independent(mats, 1)
    assert alloc.total_items() == 1


def test_three_agent_two_item_report_profile():
    both = F({0, 1})
    mats = [FreeOver(both), FreeOver(both), FreeOver(F({0}))]
    alloc = max_common_independent(mats, 2)
    assert alloc.total_items() == 2  # every reported item is allocated
    capped = max_common_independent(mats, 2, caps=[1, 1, 0])
    assert capped.total_items() == 2
    assert capped.bundles[2] == F()


def test_caps_validation():
    with pytest.raises(ValidationError):
        max_common_independent([FreeOver(F({0}))], 1, caps=[-1])
    with pytest.raises(ValidationError):
        max_common_independent([FreeOver(F({0}))], 1, caps=[1, 2])


def test_deterministic_output():
    mats = [FreeOver(F({0, 1, 2})), FreeOver(F({0, 1, 2}))]
    a = max_common_independent(mats, 3)
    b = max_common_independent(mats, 3)
    assert a.bundles == b.bundles


def test_matches_brute_force_on_random_instances():
    rng = random.Random(4242)
    for _ in range(120):
        n = rng.randint(1, 3)
        m = rng.randint(1, 5)
        mats = [rand_matroid(rng, m) for _ in range(n)]
        alloc = max_common_independent(mats, m)
        assert alloc.total_items() == brute_max_common(mats, m)
        for v in range(n):
            assert mats[v].is_independent(alloc.bundles[v])  # non-redundant
        caps = [rng.choice([None, rng.randint(0, m)]) for _ in range(n)]
        capped = max_common_independent(mats, m, caps=caps)
        assert capped.total_items() == brute_max_common(mats, m, caps=caps)
        for v in range(n):
            if caps[v] is not None:
                assert len(capped.bundles[v]) <= caps[v]


def test_zero_cap_agent_gets_nothing():
    mats = [FreeOver(F({0, 1})), FreeOver(F({0, 1}))]
    alloc = max_common_independent(mats, 2, caps=[0, None])
    assert alloc.bundles[0] == F()
    assert alloc.total_items() == 2
