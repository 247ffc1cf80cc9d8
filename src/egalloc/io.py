"""Instance and result documents: JSON in, JSON out, rationals as strings.

Rational values are serialized exactly ("7/3", "2", "1.0001" parses to
10001/10000); JSON floats are rejected everywhere since mechanism
comparisons need exact arithmetic.
"""

from __future__ import annotations

import json
from fractions import Fraction
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
)
from .model import Allocation, Atom, Instance, OutcomeDistribution
from .valuation import (
    AdditiveDichotomous,
    EpsLeveled,
    MatroidValuation,
    ValuationSpec,
    XosFamily,
    as_value,
    validate,
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
        except Exception as exc:
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
    names = []
    specs = []
    for i, agent in enumerate(agents_raw):
        if not isinstance(agent, dict) or "name" not in agent or "valuation" not in agent:
            raise ParseError(f"agents[{i}]: needs 'name' and 'valuation'")
        name = agent["name"]
        if not isinstance(name, str):
            raise ParseError(f"agents[{i}].name: expected a string")
        if name in names:
            raise ParseError(f"agents[{i}].name: duplicate agent name {name!r}")
        names.append(name)
        specs.append(
            _parse_valuation(agent["valuation"], item_index, eps, f"agents[{i}].valuation")
        )

    priority = None
    if "priority" in doc and doc["priority"] is not None:
        pr = doc["priority"]
        if not isinstance(pr, list) or not all(isinstance(x, str) for x in pr):
            raise ParseError("'priority' must be a list of agent names")
        if sorted(pr) != sorted(names):
            raise ParseError("'priority' must be a permutation of the agent names")
        priority = tuple(names.index(x) for x in pr)

    inst = Instance(
        item_names=tuple(items),
        agent_names=tuple(names),
        valuations=tuple(specs),
        epsilon=eps,
        priority=priority,
    )
    for i, spec in enumerate(inst.valuations):
        v = validate(spec, eps, inst.m)
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
    return json.dumps(instance_document(inst), indent=2, sort_keys=False) + "\n"


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
    bundles = [frozenset()] * inst.n
    for name, raw_items in body.items():
        if name not in inst.agent_names:
            raise ParseError(f"allocation mentions unknown agent {name!r}")
        idx = inst.agent_names.index(name)
        bundles[idx] = _item_list(raw_items, item_index, f"allocation[{name!r}]")
    return Allocation(tuple(bundles), inst.m)


def atom_document(atom: Atom, inst: Instance) -> dict:
    doc = {
        "weight": _frac_str(atom.weight),
        "priority": [inst.agent_names[a] for a in atom.priority],
    }
    if atom.held_out is not None:
        doc["held_out"] = [inst.item_names[a] for a in atom.held_out]
    doc.update(allocation_document(atom.allocation, inst))
    return doc


def distribution_document(dist: OutcomeDistribution, inst: Instance) -> dict:
    return {
        "atoms": [atom_document(atom, inst) for atom in dist.atoms],
        "atom_count": len(dist.atoms),
    }
