"""Instance and result documents: JSON in, JSON out, rationals as strings.

Rational values are serialized exactly ("7/3", "2", "1.0001" parses to
10001/10000); JSON floats are rejected everywhere since mechanism
comparisons need exact arithmetic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from typing import Mapping, Sequence

from .errors import ParseError, ValidationError
from .matroid import (
    Explicit,
    FreeOver,
    MatroidSpec,
    Partition,
    Restricted,
    Truncated,
    Uniform,
    check_explicit_cap,
    validate_matroid,
)
from .model import Allocation, Instance, OutcomeDistribution, PriorityOrder
from .valuation import (
    AdditiveDichotomous,
    EpsLeveled,
    MatroidValuation,
    ValuationSpec,
    XosFamily,
    as_value,
)

DOCUMENT_VERSION = "1"

#: Deepest nesting of truncated/restricted matroids a document may use.
MAX_MATROID_NESTING = 32


def _rational(raw, where: str) -> Fraction:
    """`valuation.as_value`, with the document location in its error."""
    try:
        return as_value(raw)
    except ValidationError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _item_list(raw, item_index: Mapping[str, int], where: str) -> frozenset[int]:
    if not isinstance(raw, list):
        raise ParseError(f"{where}: expected a list of item ids")
    try:
        out = frozenset(map(item_index.__getitem__, raw))
        if len(out) == len(raw):
            return out
    except (KeyError, TypeError):  # an unknown or unhashable id
        pass
    # some id is unknown or repeated: find the first, for the message
    out = set()
    for name in raw:
        if not isinstance(name, str) or name not in item_index:
            raise ParseError(f"{where}: unknown item id {name!r}")
        if item_index[name] in out:
            raise ParseError(f"{where}: duplicate item id {name!r}")
        out.add(item_index[name])
    return frozenset(out)


def _count(raw, where: str) -> int:
    """A cap or limit: a JSON integer >= 0 (not a bool)."""
    if not isinstance(raw, int) or isinstance(raw, bool) or raw < 0:
        raise ParseError(f"{where}: expected a non-negative integer")
    return raw


def _parse_matroid(raw, item_index, where: str, depth: int = 0) -> MatroidSpec:
    if depth > MAX_MATROID_NESTING:
        raise ParseError(f"{where}: matroid nesting deeper than {MAX_MATROID_NESTING}")
    if not isinstance(raw, dict) or "type" not in raw:
        raise ParseError(f"{where}: matroid spec needs a 'type' field")
    kind = raw["type"]
    if kind == "free":
        return FreeOver(_item_list(raw.get("demand", []), item_index, f"{where}.demand"))
    if kind == "uniform":
        if "cap" not in raw:
            raise ParseError(f"{where}: uniform matroid needs 'cap'")
        cap = _count(raw["cap"], f"{where}.cap")
        return Uniform(_item_list(raw.get("demand", []), item_index, f"{where}.demand"), cap)
    if kind == "partition":
        blocks = raw.get("blocks")
        if not isinstance(blocks, list) or not blocks:
            raise ParseError(f"{where}: partition matroid needs nonempty 'blocks'")
        parsed = []
        for i, blk in enumerate(blocks):
            if not isinstance(blk, dict):
                raise ParseError(f"{where}.blocks[{i}]: expected an object")
            cap = _count(blk.get("cap"), f"{where}.blocks[{i}].cap")
            items = _item_list(blk.get("items", []), item_index, f"{where}.blocks[{i}].items")
            parsed.append((items, cap))
        try:
            return Partition(tuple(parsed))
        except ValidationError as exc:
            raise ParseError(f"{where}: {exc}") from None
    if kind == "explicit":
        fam = raw.get("independent")
        if not isinstance(fam, list) or not fam:
            raise ParseError(f"{where}: explicit matroid needs nonempty 'independent'")
        sets = tuple(
            _item_list(t, item_index, f"{where}.independent[{i}]") for i, t in enumerate(fam)
        )
        check_explicit_cap(sets)
        return Explicit(frozenset(sets))
    if kind == "truncated":
        limit = _count(raw.get("limit"), f"{where}.limit")
        inner = _parse_matroid(raw.get("inner"), item_index, f"{where}.inner", depth + 1)
        return Truncated(inner, limit)
    if kind == "restricted":
        return Restricted(
            _parse_matroid(raw.get("inner"), item_index, f"{where}.inner", depth + 1),
            _item_list(raw.get("demand", []), item_index, f"{where}.demand"),
        )
    raise ParseError(f"{where}: unknown matroid type {kind!r}")


def _parse_valuation(raw, item_index, eps: Fraction, where: str) -> ValuationSpec:
    if not isinstance(raw, dict) or len(raw) != 1:
        raise ParseError(
            f"{where}: valuation must be exactly one of "
            "{'demand': [...]}, {'matroid': {...}}, {'values': {...}}, {'xos': [[...]]}"
        )
    (kind, body), = raw.items()
    if kind == "demand":
        return AdditiveDichotomous(_item_list(body, item_index, f"{where}.demand"))
    if kind == "matroid":
        return MatroidValuation(_parse_matroid(body, item_index, f"{where}.matroid"))
    if kind == "values":
        if not isinstance(body, dict):
            raise ParseError(f"{where}.values: expected an object of item -> rational")
        values = {}
        for name, raw_val in body.items():
            if name not in item_index:
                raise ParseError(f"{where}.values: unknown item id {name!r}")
            val = _rational(raw_val, f"{where}.values[{name!r}]")
            if val < 0:
                raise ParseError(f"{where}.values[{name!r}]: negative values are rejected")
            if val != 0 and not (1 <= val <= 1 + eps):
                raise ParseError(
                    f"{where}.values[{name!r}]: item values must be 0 or inside "
                    f"[1, 1+epsilon]; epsilon here is {eps} "
                    "(set the document's 'epsilon' to widen the band)"
                )
            values[item_index[name]] = val
        return EpsLeveled(values)
    if kind == "xos":
        if not isinstance(body, list) or not body:
            raise ParseError(f"{where}.xos: expected a nonempty list of item lists")
        return XosFamily(
            tuple(_item_list(t, item_index, f"{where}.xos[{i}]") for i, t in enumerate(body))
        )
    raise ParseError(f"{where}: unknown valuation kind {kind!r}")


def _load_json(text: str):
    """`json.loads` with floats, malformed JSON and deep nesting as ParseErrors."""
    try:
        return json.loads(text, parse_float=_reject_float)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ParseError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("document nests too deeply to decode") from None


def _reject_float(raw: str):
    raise ParseError(
        f"float literal {raw!r} in document; write rationals as strings (e.g. \"{raw}\")"
    )


def parse_instance(text: str) -> Instance:
    """Parse and validate an instance document."""
    return instance_from_document(_load_json(text))


def priority_indices(order: Sequence[str], agent_index: dict[str, int]) -> PriorityOrder | None:
    """The agents' indices in `order` through the name -> index map, or None
    unless `order` names every agent exactly once."""
    priority = tuple(agent_index.get(name, -1) for name in order)
    return priority if sorted(priority) == list(range(len(agent_index))) else None


def instance_from_document(doc) -> Instance:
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    version = doc.get("version", DOCUMENT_VERSION)
    if str(version) != DOCUMENT_VERSION:
        raise ParseError(f"unsupported document version {version!r}")
    items = doc.get("items")
    if not isinstance(items, list) or not all(isinstance(x, str) for x in items):
        raise ParseError("'items' must be a list of strings")
    if len(set(items)) != len(items):
        raise ParseError("'items' contains duplicates")
    item_index = {name: i for i, name in enumerate(items)}
    eps = _rational(doc.get("epsilon", 0), "epsilon")
    if eps < 0:
        raise ParseError("epsilon must be >= 0")

    agents_raw = doc.get("agents")
    if not isinstance(agents_raw, list) or not agents_raw:
        raise ParseError("'agents' must be a nonempty list")
    agent_index: dict[str, int] = {}  # name -> index, in document order
    specs = []
    for i, agent in enumerate(agents_raw):
        if not isinstance(agent, dict) or "name" not in agent or "valuation" not in agent:
            raise ParseError(f"agents[{i}]: needs 'name' and 'valuation'")
        name = agent["name"]
        if not isinstance(name, str):
            raise ParseError(f"agents[{i}].name: expected a string")
        if name in agent_index:
            raise ParseError(f"agents[{i}].name: duplicate agent name {name!r}")
        agent_index[name] = i
        specs.append(
            _parse_valuation(agent["valuation"], item_index, eps, f"agents[{i}].valuation")
        )

    priority = None
    if "priority" in doc and doc["priority"] is not None:
        pr = doc["priority"]
        if not isinstance(pr, list) or not all(isinstance(x, str) for x in pr):
            raise ParseError("'priority' must be a list of agent names")
        priority = priority_indices(pr, agent_index)
        if priority is None:
            raise ParseError("'priority' must be a permutation of the agent names")

    inst = Instance(
        item_names=tuple(items),
        agent_names=tuple(agent_index),
        valuations=tuple(specs),
        epsilon=eps,
        priority=priority,
    )
    # parsing mapped every id into 0..m-1 and kept each value in its band;
    # what is left is the exchange axiom of explicit families
    for i, spec in enumerate(specs):
        v = validate_matroid(spec.matroid) if isinstance(spec, MatroidValuation) else None
        if v is not None:
            raise ParseError(
                f"agents[{i}].valuation: invalid ({v.constraint} fails, witness {v.witness})"
            )
    return inst


def _frac_str(x: Fraction) -> str:
    return str(Fraction(x))


def _matroid_document(spec: MatroidSpec, names: Sequence[str]):
    def items(s):
        return [names[a] for a in sorted(s)]

    if isinstance(spec, FreeOver):
        return {"type": "free", "demand": items(spec.demand)}
    if isinstance(spec, Uniform):
        return {"type": "uniform", "demand": items(spec.demand), "cap": spec.cap}
    if isinstance(spec, Partition):
        return {
            "type": "partition",
            "blocks": [{"items": items(b), "cap": c} for b, c in spec.blocks],
        }
    if isinstance(spec, Explicit):
        return {
            "type": "explicit",
            "independent": sorted((items(t) for t in spec.family), key=lambda x: (len(x), x)),
        }
    if isinstance(spec, Truncated):
        return {"type": "truncated", "inner": _matroid_document(spec.inner, names), "limit": spec.limit}
    if isinstance(spec, Restricted):
        return {
            "type": "restricted",
            "inner": _matroid_document(spec.inner, names),
            "demand": items(spec.demand),
        }
    raise ParseError(f"cannot serialize matroid {type(spec).__name__}")


def _valuation_document(spec: ValuationSpec, names: Sequence[str]):
    if isinstance(spec, AdditiveDichotomous):
        return {"demand": [names[a] for a in sorted(spec.demand)]}
    if isinstance(spec, MatroidValuation):
        return {"matroid": _matroid_document(spec.matroid, names)}
    if isinstance(spec, EpsLeveled):
        return {"values": {names[a]: _frac_str(v) for a, v in spec.values}}
    if isinstance(spec, XosFamily):
        return {"xos": [[names[a] for a in sorted(t)] for t in spec.family]}
    raise ParseError(f"cannot serialize valuation {type(spec).__name__}")


def instance_document(inst: Instance) -> dict:
    doc = {
        "version": DOCUMENT_VERSION,
        "items": list(inst.item_names),
        "epsilon": _frac_str(inst.epsilon),
        "agents": [
            {"name": name, "valuation": _valuation_document(spec, inst.item_names)}
            for name, spec in zip(inst.agent_names, inst.valuations)
        ],
    }
    if inst.priority is not None:
        doc["priority"] = [inst.agent_names[a] for a in inst.priority]
    return doc


def emit_instance(inst: Instance) -> str:
    return dumps_document(instance_document(inst)) + "\n"


def dumps_document(doc) -> str:
    """The bytes `json.dumps` writes with `indent=2`, for documents of dicts
    with `str` keys, lists, tuples, `str`, `int`, `bool` and `None`; any
    other type raises TypeError.  `json.dumps` with an indent runs the
    pure-Python encoder; this writer builds each container with one `join`,
    quoting strings with the `json` module's own C function."""
    return _dumps(doc, "\n")


def _dumps(obj, newline: str) -> str:
    if isinstance(obj, dict):  # _quote raises TypeError on a key that is not a str
        if not obj:
            return "{}"
        inner, items = newline + "  ", obj.items()
        body = f",{inner}".join(
            [f"{_quote(k)}: {_quote(v) if type(v) is str else _dumps(v, inner)}" for k, v in items]
        )
        return f"{{{inner}{body}{newline}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        try:
            body = f",{inner}".join(map(_quote, obj))
        except TypeError:  # not a list of strings
            body = f",{inner}".join([_dumps(v, inner) for v in obj])
        return f"[{inner}{body}{newline}]"
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def allocation_document(alloc: Allocation, inst: Instance) -> dict:
    return {
        "allocation": {
            name: [inst.item_names[a] for a in sorted(bundle)]
            for name, bundle in zip(inst.agent_names, alloc.bundles)
        },
        "unallocated": [inst.item_names[a] for a in sorted(alloc.unallocated)],
    }


def parse_allocation(text: str, inst: Instance) -> Allocation:
    """Accepts a bare allocation document or any result document carrying one."""
    doc = _load_json(text)
    if not isinstance(doc, dict) or "allocation" not in doc:
        raise ParseError("allocation document needs an 'allocation' object")
    body = doc["allocation"]
    if not isinstance(body, dict):
        raise ParseError("'allocation' must map agent names to item lists")
    item_index = {name: i for i, name in enumerate(inst.item_names)}
    agent_index = {name: i for i, name in enumerate(inst.agent_names)}
    bundles = [frozenset()] * inst.n
    for name, raw_items in body.items():
        if name not in agent_index:
            raise ParseError(f"allocation mentions unknown agent {name!r}")
        bundles[agent_index[name]] = _item_list(raw_items, item_index, f"allocation[{name!r}]")
    return Allocation(tuple(bundles), inst.m)


def distribution_document(dist: OutcomeDistribution, inst: Instance, mechanism: str) -> str:
    """The text `dumps_document` writes for the `distribution` document:
    "mechanism", "atoms" (each with "weight", "priority", "held_out" when
    the atom has one, "allocation" and "unallocated") and "atom_count".

    The atoms of an exact walk share their weight, priority, held-out list
    and allocation as objects, so each field is rendered once per distinct
    object (`_by_identity`) and no `Fraction` or `Allocation` is hashed per
    atom.  Bundles alone are memoized by value, since equal bundles recur
    across the allocations of a walk.  A priority fragment joins the
    agents' quoted names."""
    items = inst.item_names
    atom_end, field, entry = "\n    ", "\n      ", "\n        "  # depths 2, 3 and 4
    names = list(map(_quote, inst.agent_names))

    def weight(w: Fraction) -> str:
        return f'"weight": {_quote(_frac_str(w))},{field}'

    def priority(p) -> str:
        body = f"[{entry}{f',{entry}'.join(map(names.__getitem__, p))}{field}]" if p else "[]"
        return f'"priority": {body},{field}'

    def held_out(x) -> str:
        return "" if x is None else f'"held_out": {_dumps([items[a] for a in x], field)},{field}'

    bundle = cache(lambda name, b: f"{name}: {_dumps([items[a] for a in sorted(b)], entry)}")

    def allocation(alloc: Allocation) -> str:
        body = f",{entry}".join(map(bundle, names, alloc.bundles))
        body = f"{{{entry}{body}{field}}}" if body else "{}"
        unallocated = _dumps([items[a] for a in sorted(alloc.unallocated)], field)
        return f'"allocation": {body},{field}"unallocated": {unallocated}{atom_end}}}'

    head = f'{{\n  "mechanism": {_quote(mechanism)},\n  "atoms": '
    count = len(dist.weights)
    # five parts per atom: the atom's opening and its four fields, the last
    # closing it; one join writes the whole document
    parts = [f",{atom_end}{{{field}"] * (5 * count)
    parts[0] = f"{head}[{atom_end}{{{field}"
    parts[1::5] = _by_identity(dist.weights, weight)
    parts[2::5] = _by_identity(dist.priorities, priority)
    parts[3::5] = _by_identity(dist.held_outs, held_out)
    parts[4::5] = _by_identity(dist.allocations, allocation)
    parts.append(f'\n  ],\n  "atom_count": {count}\n}}')
    return "".join(parts)


def _by_identity(values: Sequence, render) -> list[str]:
    """`render(v)` for each of `values`, called once per distinct object.
    Every value is alive for the whole call, so no id is reused."""
    ids = list(map(id, values))
    rendered = dict(zip(ids, values))
    for key, value in rendered.items():
        rendered[key] = render(value)
    return list(map(rendered.__getitem__, ids))
