import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nested_truncations, rand_matroid
from egalloc.errors import ParseError
from egalloc.io import (
    MAX_MATROID_NESTING,
    allocation_document,
    emit_instance,
    instance_document,
    parse_allocation,
    parse_instance,
)
from egalloc.model import Allocation, Instance
from egalloc.valuation import (
    AdditiveDichotomous,
    EpsLeveled,
    MatroidValuation,
    XosFamily,
)

F = frozenset

MINIMAL = """
{
  "items": ["a", "b"],
  "agents": [{"name": "alice", "valuation": {"demand": ["a"]}}]
}
"""


def test_parse_minimal():
    inst = parse_instance(MINIMAL)
    assert inst.n == 1 and inst.m == 2
    assert inst.valuations[0] == AdditiveDichotomous(F({0}))
    assert inst.epsilon == 0
    assert inst.priority_or_default() == (0,)


def test_decimal_string_values_exact():
    doc = {
        "items": ["a"],
        "epsilon": "1/100",
        "agents": [{"name": "x", "valuation": {"values": {"a": "1.0001"}}}],
    }
    inst = parse_instance(json.dumps(doc))
    assert inst.valuations[0] == EpsLeveled({0: Fraction(10001, 10000)})


def test_float_literals_rejected():
    text = '{"items": ["a"], "epsilon": 0.01, "agents": [{"name": "x", "valuation": {"demand": []}}]}'
    with pytest.raises(ParseError):
        parse_instance(text)


def test_missing_epsilon_rejects_noninteger_values():
    doc = {
        "items": ["a"],
        "agents": [{"name": "x", "valuation": {"values": {"a": "1.0001"}}}],
    }
    with pytest.raises(ParseError, match="epsilon"):
        parse_instance(json.dumps(doc))


def test_value_band_validation():
    doc = {
        "items": ["a"],
        "epsilon": "1/100",
        "agents": [{"name": "x", "valuation": {"values": {"a": "1/2"}}}],
    }
    with pytest.raises(ParseError, match="1, 1\\+epsilon"):
        parse_instance(json.dumps(doc))


def test_duplicate_ids_rejected():
    with pytest.raises(ParseError):
        parse_instance('{"items": ["a", "a"], "agents": [{"name": "x", "valuation": {"demand": []}}]}')
    doc = {
        "items": ["a"],
        "agents": [
            {"name": "x", "valuation": {"demand": []}},
            {"name": "x", "valuation": {"demand": []}},
        ],
    }
    with pytest.raises(ParseError):
        parse_instance(json.dumps(doc))


def test_unknown_item_rejected():
    doc = {"items": ["a"], "agents": [{"name": "x", "valuation": {"demand": ["zz"]}}]}
    with pytest.raises(ParseError, match="zz"):
        parse_instance(json.dumps(doc))


def test_bad_priority_rejected():
    doc = {
        "items": ["a"],
        "agents": [{"name": "x", "valuation": {"demand": []}}],
        "priority": ["y"],
    }
    with pytest.raises(ParseError, match="priority"):
        parse_instance(json.dumps(doc))


def test_non_matroid_explicit_family_rejected():
    doc = {
        "items": ["a", "b", "c"],
        "agents": [
            {
                "name": "x",
                "valuation": {
                    "matroid": {"type": "explicit", "independent": [["a"], ["b", "c"]]}
                },
            }
        ],
    }
    with pytest.raises(ParseError, match="exchange"):
        parse_instance(json.dumps(doc))


def test_negative_values_rejected():
    doc = {
        "items": ["a"],
        "agents": [{"name": "x", "valuation": {"values": {"a": "-1"}}}],
    }
    with pytest.raises(ParseError, match="negative"):
        parse_instance(json.dumps(doc))


def _random_instance(seed: int) -> Instance:
    rng = random.Random(seed)
    m = rng.randint(1, 5)
    n = rng.randint(1, 3)
    names = tuple(f"item{j}" for j in range(m))
    eps = Fraction(1, m + 1 + rng.randint(0, 9))
    specs = []
    for _ in range(n):
        kind = rng.choice(["add", "matroid", "eps", "xos"])
        if kind == "add":
            specs.append(AdditiveDichotomous(F(a for a in range(m) if rng.random() < 0.5)))
        elif kind == "matroid":
            spec = rand_matroid(rng, m)
            # explicit families must be genuine matroids to survive parsing
            specs.append(MatroidValuation(spec))
        elif kind == "eps":
            specs.append(
                EpsLeveled(
                    {
                        a: Fraction(0)
                        if rng.random() < 0.4
                        else 1 + eps * Fraction(rng.randint(0, 4), 4)
                        for a in range(m)
                    }
                )
            )
        else:
            specs.append(
                XosFamily(
                    tuple(
                        F(a for a in range(m) if rng.random() < 0.5)
                        for _ in range(rng.randint(1, 3))
                    )
                )
            )
    priority = tuple(rng.sample(range(n), n)) if rng.random() < 0.5 else None
    return Instance(
        item_names=names,
        agent_names=tuple(f"agent{j}" for j in range(n)),
        valuations=tuple(specs),
        epsilon=eps,
        priority=priority,
    )


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_round_trip(seed):
    inst = _random_instance(seed)
    again = parse_instance(emit_instance(inst))
    assert again == inst


def test_round_trip_emits_version_and_strings():
    inst = _random_instance(7)
    doc = instance_document(inst)
    assert doc["version"] == "1"
    assert isinstance(doc["epsilon"], str)
    text = emit_instance(inst)
    assert emit_instance(parse_instance(text)) == text


def test_allocation_round_trip():
    inst = parse_instance(MINIMAL)
    alloc = Allocation((F({0}),), inst.m)
    doc = allocation_document(alloc, inst)
    assert doc == {"allocation": {"alice": ["a"]}, "unallocated": ["b"]}
    back = parse_allocation(json.dumps(doc), inst)
    assert back.bundles == alloc.bundles


def test_allocation_parse_errors():
    inst = parse_instance(MINIMAL)
    with pytest.raises(ParseError):
        parse_allocation('{"allocation": {"bob": []}}', inst)
    with pytest.raises(ParseError):
        parse_allocation('{"nope": 1}', inst)
    with pytest.raises(ParseError):
        parse_allocation('{"allocation": {"alice": ["zz"]}}', inst)


def test_deep_nesting_rejected():
    inst = parse_instance(nested_truncations(MAX_MATROID_NESTING))
    assert inst.valuations[0].matroid.rank(F({0})) == 1
    with pytest.raises(ParseError, match="nesting"):
        parse_instance(nested_truncations(MAX_MATROID_NESTING + 1))
    # past the JSON decoder's own recursion limit
    with pytest.raises(ParseError, match="nests too deeply"):
        parse_instance(nested_truncations(3000))
    with pytest.raises(ParseError, match="nests too deeply"):
        parse_allocation("[" * 3000 + "]" * 3000, inst)
