import random

import pytest

from conftest import MATROID_TAGS, brute_max_common, rand_matroid, rand_matroid_of_tag
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


def random_inputs(rng):
    """(tags, matroids, m, caps): 120 from `rand_matroid` with up to 3
    agents and no tags, then 120 from `rand_matroid_of_tag` over random
    top-level tags (nested truncations and restrictions included) with up
    to 4 agents and caps of 0, None and random values."""
    for _ in range(120):
        n = rng.randint(1, 3)
        m = rng.randint(1, 5)
        mats = [rand_matroid(rng, m) for _ in range(n)]
        yield (), mats, m, [rng.choice([None, rng.randint(0, m)]) for _ in range(n)]
    for _ in range(120):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        tags = [rng.choice(MATROID_TAGS) for _ in range(n)]
        mats = [rand_matroid_of_tag(rng, tag, m) for tag in tags]
        yield tags, mats, m, [rng.choice([0, None, rng.randint(0, m)]) for _ in range(n)]


def test_matches_brute_force_on_random_instances():
    tags_seen = set()
    for tags, mats, m, caps in random_inputs(random.Random(4242)):
        tags_seen.update(tags)
        alloc = max_common_independent(mats, m)
        assert alloc.total_items() == brute_max_common(mats, m)
        for v in range(len(mats)):
            assert mats[v].is_independent(alloc.bundles[v])  # non-redundant
        capped = max_common_independent(mats, m, caps=caps)
        assert capped.total_items() == brute_max_common(mats, m, caps=caps)
        for v in range(len(mats)):
            assert mats[v].is_independent(capped.bundles[v])
            if caps[v] is not None:
                assert len(capped.bundles[v]) <= caps[v]
    assert tags_seen == set(MATROID_TAGS)


def test_zero_cap_agent_gets_nothing():
    mats = [FreeOver(F({0, 1})), FreeOver(F({0, 1}))]
    alloc = max_common_independent(mats, 2, caps=[0, None])
    assert alloc.bundles[0] == F()
    assert alloc.total_items() == 2
