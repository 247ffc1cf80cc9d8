import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import egalloc.io
from conftest import nested_truncations, rand_matroid, rand_subset, rand_valuation
from egalloc.errors import ParseError, ValidationError
from egalloc.io import (
    MAX_MATROID_NESTING,
    allocation_document,
    distribution_document,
    dumps_document,
    emit_instance,
    instance_document,
    parse_allocation,
    parse_instance,
)
from egalloc.mechanisms import floor_reports, run_meps, run_rpe
from egalloc.model import Allocation, Atom, Instance, OutcomeDistribution
from egalloc.valuation import (
    AdditiveDichotomous,
    EpsLeveled,
    MatroidValuation,
    XosFamily,
)
from io_reference import reference_distribution_document

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


def test_overlapping_partition_blocks_are_a_parse_error():
    doc = {
        "items": ["a", "b"],
        "agents": [{"name": "x", "valuation": {"matroid": {
            "type": "partition",
            "blocks": [{"items": ["a", "b"], "cap": 1}, {"items": ["b"], "cap": 1}],
        }}}],
    }
    with pytest.raises(ParseError, match=r"agents\[0\]\.valuation\.matroid: .*overlap on items \[1\]"):
        parse_instance(json.dumps(doc))


def test_partition_programming_errors_propagate(monkeypatch):
    # only Partition's ValidationError is the document's fault
    def broken(blocks):
        raise RuntimeError("broken Partition")

    monkeypatch.setattr(egalloc.io, "Partition", broken)
    doc = {
        "items": ["a"],
        "agents": [{"name": "x", "valuation": {"matroid": {
            "type": "partition", "blocks": [{"items": ["a"], "cap": 1}],
        }}}],
    }
    with pytest.raises(RuntimeError, match="broken Partition"):
        parse_instance(json.dumps(doc))


_ITEM_LIST_SITES = {
    "agents[0].valuation.demand": lambda ids: {"demand": ids},
    "agents[0].valuation.matroid.blocks[1].items": lambda ids: {
        "matroid": {
            "type": "partition",
            "blocks": [{"items": ["c"], "cap": 1}, {"items": ids, "cap": 1}],
        }
    },
    "agents[0].valuation.matroid.independent[1]": lambda ids: {
        "matroid": {"type": "explicit", "independent": [["c"], ids]}
    },
    "agents[0].valuation.matroid.demand": lambda ids: {
        "matroid": {
            "type": "restricted",
            "inner": {"type": "free", "demand": ["c"]},
            "demand": ids,
        }
    },
    "agents[0].valuation.xos[1]": lambda ids: {"xos": [["c"], ids]},
}

_BAD_ITEM_LISTS = [
    (["a", "zz"], "unknown item id 'zz'"),
    (["a", 0], "unknown item id 0"),
    ([None, "a"], "unknown item id None"),
    (["a", ["b"]], "unknown item id ['b']"),
    (["b", "a", "b"], "duplicate item id 'b'"),
    (["a", "a", "zz"], "duplicate item id 'a'"),
]


@pytest.mark.parametrize("ids, message", _BAD_ITEM_LISTS)
def test_item_list_errors_name_the_first_bad_id(ids, message):
    for where, valuation in _ITEM_LIST_SITES.items():
        doc = {"items": ["a", "b", "c"], "agents": [{"name": "x", "valuation": valuation(ids)}]}
        with pytest.raises(ParseError) as exc:
            parse_instance(json.dumps(doc))
        assert str(exc.value) == f"{where}: {message}"
    inst = parse_instance(MINIMAL.replace('"b"]', '"b", "c"]'))
    with pytest.raises(ParseError) as exc:
        parse_allocation(json.dumps({"allocation": {"alice": ids}}), inst)
    assert str(exc.value) == f"allocation['alice']: {message}"


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


def _shape_doc(valuation=None, **fields):
    """A one-agent instance over a and b with `fields` replaced and, if
    given, the agent's valuation."""
    agent = {"name": "x", "valuation": {"demand": ["a"]} if valuation is None else valuation}
    return json.dumps({"items": ["a", "b"], "agents": [agent], **fields})


def _matroid_doc(spec):
    return _shape_doc({"matroid": spec})


def _parse_allocation(text):
    return parse_allocation(text, parse_instance(MINIMAL))


_MATROID = "agents[0].valuation.matroid: "

# id -> (parser, document text, the message's location and first words);
# each is refused with a ParseError whose message starts with the location
_DOCUMENT_SHAPE_ERRORS = {
    "root-not-object": (parse_instance, "[]", "document root must be an object"),
    "version-2": (parse_instance, _shape_doc(version="2"), "unsupported document version '2'"),
    "non-string-items": (
        parse_instance,
        _shape_doc(items=["a", 1]),
        "'items' must be a list of strings",
    ),
    "negative-epsilon": (parse_instance, _shape_doc(epsilon="-1/2"), "epsilon must be >= 0"),
    "empty-agents": (parse_instance, _shape_doc(agents=[]), "'agents' must be a nonempty list"),
    "agent-without-valuation": (
        parse_instance,
        _shape_doc(agents=[{"name": "x"}]),
        "agents[0]: needs 'name' and 'valuation'",
    ),
    "non-string-agent-name": (
        parse_instance,
        _shape_doc(agents=[{"name": 1, "valuation": {"demand": []}}]),
        "agents[0].name: expected a string",
    ),
    "two-key-valuation": (
        parse_instance,
        _shape_doc({"demand": ["a"], "xos": [["a"]]}),
        "agents[0].valuation: valuation must be exactly one of",
    ),
    "unknown-valuation-kind": (
        parse_instance,
        _shape_doc({"budget": 1}),
        "agents[0].valuation: unknown valuation kind 'budget'",
    ),
    "matroid-without-type": (
        parse_instance,
        _matroid_doc({"demand": ["a"]}),
        _MATROID + "matroid spec needs a 'type' field",
    ),
    "unknown-matroid-type": (
        parse_instance,
        _matroid_doc({"type": "graphic"}),
        _MATROID + "unknown matroid type 'graphic'",
    ),
    "uniform-without-cap": (
        parse_instance,
        _matroid_doc({"type": "uniform", "demand": ["a"]}),
        _MATROID + "uniform matroid needs 'cap'",
    ),
    "partition-without-blocks": (
        parse_instance,
        _matroid_doc({"type": "partition"}),
        _MATROID + "partition matroid needs nonempty 'blocks'",
    ),
    "block-not-object": (
        parse_instance,
        _matroid_doc({"type": "partition", "blocks": [["a"]]}),
        "agents[0].valuation.matroid.blocks[0]: expected an object",
    ),
    "empty-explicit-family": (
        parse_instance,
        _matroid_doc({"type": "explicit", "independent": []}),
        _MATROID + "explicit matroid needs nonempty 'independent'",
    ),
    "values-not-object": (
        parse_instance,
        _shape_doc({"values": ["a"]}),
        "agents[0].valuation.values: expected an object",
    ),
    "empty-xos-family": (
        parse_instance,
        _shape_doc({"xos": []}),
        "agents[0].valuation.xos: expected a nonempty list",
    ),
    "demand-not-list": (
        parse_instance,
        _shape_doc({"demand": "a"}),
        "agents[0].valuation.demand: expected a list of item ids",
    ),
    "priority-not-strings": (
        parse_instance,
        _shape_doc(priority=[0]),
        "'priority' must be a list of agent names",
    ),
    "priority-not-a-permutation": (
        parse_instance,
        _shape_doc(priority=["y"]),
        "'priority' must be a permutation of the agent names",
    ),
    "duplicate-items": (
        parse_instance,
        json.dumps({"items": ["a", "a"], "agents": [{"name": "x", "valuation": {"demand": []}}]}),
        "'items' contains duplicates",
    ),
    "duplicate-agent-names": (
        parse_instance,
        _shape_doc(agents=[{"name": "x", "valuation": {"demand": []}}] * 2),
        "agents[1].name: duplicate agent name 'x'",
    ),
    "uniform-negative-cap": (
        parse_instance,
        _matroid_doc({"type": "uniform", "demand": ["a"], "cap": -1}),
        "agents[0].valuation.matroid.cap: expected a non-negative integer",
    ),
    "block-bool-cap": (
        parse_instance,
        _matroid_doc({"type": "partition", "blocks": [{"items": ["a"], "cap": True}]}),
        "agents[0].valuation.matroid.blocks[0].cap: expected a non-negative integer",
    ),
    "truncation-without-limit": (
        parse_instance,
        _matroid_doc({"type": "truncated", "inner": {"type": "free", "demand": ["a"]}}),
        "agents[0].valuation.matroid.limit: expected a non-negative integer",
    ),
    "values-unknown-item": (
        parse_instance,
        _shape_doc({"values": {"z": "1"}}),
        "agents[0].valuation.values: unknown item id 'z'",
    ),
    "not-json": (parse_instance, "{items: []}", "not valid JSON: "),
    "allocation-not-object": (
        _parse_allocation,
        '{"allocation": ["a"]}',
        "'allocation' must map agent names to item lists",
    ),
}


@pytest.mark.parametrize(
    "parse, text, prefix",
    list(_DOCUMENT_SHAPE_ERRORS.values()),
    ids=list(_DOCUMENT_SHAPE_ERRORS),
)
def test_document_shape_errors_name_their_location(parse, text, prefix):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value).startswith(prefix)


# Instance's own refusals, which only an instance built in code reaches:
# parsing refuses a document's duplicate names, empty agent list and
# negative epsilon first (rows above)
_INSTANCE_ERRORS = {
    "duplicate-item-names": (dict(item_names=("a", "a")), "item names must be unique"),
    "duplicate-agent-names": (
        dict(agent_names=("x", "x"), valuations=(AdditiveDichotomous(F({0})),) * 2),
        "agent names must be unique",
    ),
    "valuation-count": (dict(valuations=()), "one valuation per agent required"),
    "no-agents": (dict(agent_names=(), valuations=()), "at least one agent required"),
    "negative-epsilon": (dict(epsilon=-1), "epsilon must be >= 0"),
}


@pytest.mark.parametrize(
    "fields, message", list(_INSTANCE_ERRORS.values()), ids=list(_INSTANCE_ERRORS)
)
def test_instance_refusals(fields, message):
    one_agent = dict(
        item_names=("a",), agent_names=("x",), valuations=(AdditiveDichotomous(F({0})),)
    )
    with pytest.raises(ValidationError, match=f"^{message}$"):
        Instance(**{**one_agent, **fields})


def test_deep_nesting_rejected():
    inst = parse_instance(nested_truncations(MAX_MATROID_NESTING))
    assert inst.valuations[0].matroid.rank(F({0})) == 1
    with pytest.raises(ParseError, match="nesting"):
        parse_instance(nested_truncations(MAX_MATROID_NESTING + 1))
    # past the JSON decoder's own recursion limit on every supported Python
    with pytest.raises(ParseError, match="nests too deeply"):
        parse_instance(nested_truncations(100_000))
    with pytest.raises(ParseError, match="nests too deeply"):
        parse_allocation("[" * 100_000, inst)
    # Python 3.13 decodes 3,000 levels, so these stop at the matroid-nesting
    # cap or at the missing allocation object instead
    with pytest.raises(ParseError):
        parse_instance(nested_truncations(3000))
    with pytest.raises(ParseError):
        parse_allocation("[" * 3000 + "]" * 3000, inst)


# every code point, lone surrogates included, and the characters JSON escapes
_SPECIAL = ['"', "\\", "\x00", "\x1f", "\x7f", "\ud800", "\udfff", "é", "\u2028", "😀"]
_chars = st.characters(min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=())
_strings = st.one_of(
    st.text(_chars, max_size=8),
    st.lists(st.sampled_from(_SPECIAL)).map("".join),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    _strings,
)
_documents = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(_strings, max_size=5),
        st.dictionaries(_strings, inner, max_size=5),
    ),
    max_leaves=40,
)


@given(_documents)
@example({"": [[], {}, [[]], {"a": {}}, ()], "b": ({"c": [None, True, False, -(10**30)]},)})
@settings(max_examples=400, deadline=None)
def test_dumps_document_is_json_dumps_indent_2(doc):
    assert dumps_document(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "doc",
    [1.5, [0.0], {"a": {"b": 2.0}}, {1: "a"}, {"a": {None: 1}}, [{True: 1}], {"a": {1, 2}}],
    ids=["float", "float-in-list", "nested-float", "int-key", "none-key", "bool-key", "set"],
)
def test_dumps_document_refuses_what_is_outside_its_grammar(doc):
    with pytest.raises(TypeError):
        dumps_document(doc)


def test_emit_instance_is_json_dumps_indent_2():
    inst = _random_instance(7)
    assert emit_instance(inst) == json.dumps(instance_document(inst), indent=2) + "\n"


#: Name stems the writer must quote as `json.dumps` does; a suffix keeps names unique.
_NAME_STEMS = ['a"b', "c\\d", "é", "😀", "\u2028", "\x00", "\t", "名", "", "plain"]


def _named_instance(rng, n, m, kind) -> Instance:
    """n agents over m items with names from `_NAME_STEMS`; `kind` is a
    `rand_valuation` kind, and additive demands are sometimes empty."""
    valuations = []
    for _ in range(n):
        if kind == "additive":
            valuations.append(AdditiveDichotomous(rand_subset(rng, m, rng.choice([0, 0.4, 1]))))
        else:
            valuations.append(rand_valuation(rng, kind, m))
    return Instance(
        item_names=tuple(f"{rng.choice(_NAME_STEMS)}{j}" for j in range(m)),
        agent_names=tuple(f"{rng.choice(_NAME_STEMS)}{j}" for j in range(n)),
        valuations=tuple(valuations),
    )


def _writer_cases(rng):
    """(mechanism, distribution, instance): exact rpe distributions over
    additive, ε-leveled and matroid reports (m = 0 and m = 1 among them),
    exact meps distributions over additive and ε-leveled reports, hand-built
    mixtures of both with several distinct weights, one exact distribution
    of each at the benchmark's sizes, and mixtures that hold equal weights,
    orders, held-out lists and allocations as distinct objects."""
    for k in range(180):
        kind = ("additive", "leveled", "matroid")[k % 3]
        m = k % 7 if k < 120 else rng.randint(0, 5)
        inst = _named_instance(rng, rng.randint(1, 4), m, kind)
        yield "rpe", run_rpe(floor_reports(inst.valuations), m), inst
    for k in range(120):
        kind = ("additive", "leveled")[k % 2]
        m = 1 + k % 4
        inst = _named_instance(rng, rng.randint(1, 3), m, kind)
        yield "meps", run_meps(floor_reports(inst.valuations), m, 0), inst
    for _ in range(30):
        m = rng.randint(1, 3)
        inst = _named_instance(rng, rng.randint(1, 3), m, "additive")
        rpe = run_rpe(inst.valuations, m).atoms
        meps = run_meps(floor_reports(inst.valuations), m, 0).atoms
        share = Fraction(1, rng.randint(2, 5))  # of the rpe atoms
        atoms = [Atom(a.weight * share, a.allocation, a.priority) for a in rpe]
        atoms += [Atom(a.weight * (1 - share), a.allocation, a.priority, a.held_out) for a in meps]
        rng.shuffle(atoms)
        yield 'mixed "rpe"\\meps', OutcomeDistribution(tuple(atoms)), inst
    # the benchmark's exact sizes, 720 and 1,536 atoms, whose walks share
    # one weight, held-out lists and allocations as objects
    inst = _named_instance(rng, 6, 12, "additive")
    yield "rpe", run_rpe(inst.valuations, 12), inst
    inst = _named_instance(rng, 4, 8, "additive")
    yield "meps", run_meps(floor_reports(inst.valuations), 8, 0), inst
    for _ in range(10):
        # one mixture with every equal weight, order, held-out list and
        # allocation a distinct object, beside the shared ones of its walks
        m = rng.randint(1, 3)
        inst = _named_instance(rng, rng.randint(1, 3), m, "additive")
        rpe = run_rpe(inst.valuations, m).atoms
        atoms = [Atom(a.weight / 2, a.allocation, a.priority) for a in rpe]
        for a in run_meps(floor_reports(inst.valuations), m, 0).atoms:
            atoms.append(Atom(a.weight / 4, a.allocation, a.priority, a.held_out))
            atoms.append(
                Atom(
                    Fraction(a.weight.numerator, 4 * a.weight.denominator),
                    Allocation(a.allocation.bundles, m),
                    tuple(list(a.priority)),
                    tuple(list(a.held_out)),
                )
            )
        atoms = atoms[::2] + atoms[1::2]
        yield "mixed", OutcomeDistribution(tuple(atoms)), inst


def test_distribution_writer_matches_reference():
    rng = random.Random(1818)
    seen = {"cases": 0, "m=0": 0, "m=1": 0, "empty bundle": 0, "none unallocated": 0}
    seen.update({"mixed": 0, "leveled": 0, "matroid": 0, "equal weights apart": 0})
    seen["720+ atoms"] = 0
    for mechanism, dist, inst in _writer_cases(rng):
        want = json.dumps(
            {"mechanism": mechanism, **reference_distribution_document(dist, inst)}, indent=2
        )
        assert distribution_document(dist, inst, mechanism) == want, (mechanism, dist, inst)
        allocations = [atom.allocation for atom in dist.atoms]
        seen["cases"] += 1
        seen["m=0"] += inst.m == 0
        seen["m=1"] += inst.m == 1
        seen["empty bundle"] += any(F() in a.bundles for a in allocations)
        seen["none unallocated"] += any(not a.unallocated for a in allocations)
        seen["mixed"] += len({a.weight for a in dist.atoms}) > 1
        seen["equal weights apart"] += len({id(a.weight) for a in dist.atoms}) > len(
            {a.weight for a in dist.atoms}
        )
        seen["720+ atoms"] += len(dist.atoms) >= 720
        seen["leveled"] += isinstance(inst.valuations[0], EpsLeveled)
        seen["matroid"] += isinstance(inst.valuations[0], MatroidValuation)
    assert seen.pop("720+ atoms") >= 2, seen
    assert seen["cases"] >= 300 and min(seen.values()) >= 10, seen
