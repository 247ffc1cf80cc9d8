"""Output checker for benchmark ops; runs outside the timed region.

Each answer is judged against the instance document the program read
(`Op.instance`), with the checker's own independence tests and its own
maximum-welfare routine, so a change to the program's matroid or
intersection code cannot make a wrong answer agree with itself.

Reference-free invariants are checked on every op.  For the seeds listed
in `reference.json` the profile-level values (potential, sorted utilities,
exact expected utilities, fuzz and enumeration summaries) of the first ops
of each pool must also match the values recorded at the seed commit.  They
do not depend on which items an agent holds, only on how many, so a new
engine that breaks ties differently still matches.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

#: Ops per pool, from the start, whose profile values are recorded.
REFERENCE_OPS = 24

Independence = Callable[[frozenset], bool]


def _oracle(spec: dict, index: dict[str, int]) -> Independence:
    """Independence test for a matroid document, over item indices."""
    kind = spec["type"]

    def items(names) -> frozenset[int]:
        return frozenset(index[x] for x in names)

    if kind == "free":
        demand = items(spec["demand"])
        return lambda s: s <= demand
    if kind == "uniform":
        demand, cap = items(spec["demand"]), spec["cap"]
        return lambda s: s <= demand and len(s) <= cap
    if kind == "partition":
        blocks = [(items(b["items"]), b["cap"]) for b in spec["blocks"]]
        covered = frozenset().union(*(b for b, _ in blocks))
        return lambda s: s <= covered and all(len(s & b) <= cap for b, cap in blocks)
    if kind == "explicit":
        # the document lists the maximal sets; the family is their downward closure
        maximal = [items(t) for t in spec["independent"]]
        return lambda s: any(s <= t for t in maximal)
    if kind == "truncated":
        inner, limit = _oracle(spec["inner"], index), spec["limit"]
        return lambda s: len(s) <= limit and inner(s)
    if kind == "restricted":
        inner, demand = _oracle(spec["inner"], index), items(spec["demand"])
        return lambda s: s <= demand and inner(s)
    raise ValueError(f"unknown matroid type {kind!r}")


@dataclass(frozen=True)
class Reports:
    """The agents' reports in an instance document, read by the checker."""

    items: list[str]
    agents: list[str]
    priority: list[str]
    independent: list[Independence]
    #: Each agent's demand set when every report is additive, else None.
    demands: list[frozenset[int]] | None

    @classmethod
    def read(cls, instance: dict) -> Reports:
        items = instance["items"]
        index = {name: i for i, name in enumerate(items)}
        agents = [a["name"] for a in instance["agents"]]
        specs = [a["valuation"] for a in instance["agents"]]
        demands = None
        if all("demand" in v for v in specs):
            demands = [frozenset(index[x] for x in v["demand"]) for v in specs]
            independent = [d.__ge__ for d in demands]
        else:
            independent = [_oracle(v["matroid"], index) for v in specs]
        return cls(items, agents, instance.get("priority", agents), independent, demands)


def _max_partition(independent: list[Independence], items) -> int:
    """Most items that can be shared out with every agent's share independent.

    Matroid partitioning: each item in turn is added along a shortest
    exchange path, or left out if there is none.  The union of the agents'
    matroids is a matroid, so an item left out once stays out.
    """
    bundles = [frozenset() for _ in independent]
    owner: dict[int, int] = {}
    for x in items:
        parent: dict[int, int | None] = {x: None}
        queue = deque([x])
        end = None
        while queue and end is None:
            y = queue.popleft()
            for i, indep in enumerate(independent):
                if owner.get(y) == i:
                    continue
                if indep(bundles[i] | {y}):
                    end = (y, i)
                    break
                for z in bundles[i]:
                    if z not in parent and indep((bundles[i] - {z}) | {y}):
                        parent[z] = y
                        queue.append(z)
        if end is None:
            continue
        # y joins agent i; each item before it on the path takes the place
        # of the one after it
        y, i = end
        moves = [(y, i)]
        while parent[y] is not None:
            moves.append((parent[y], owner[y]))
            y = parent[y]
        for item, _ in moves:
            if item in owner:
                bundles[owner[item]] -= {item}
        for item, agent in moves:
            bundles[agent] |= {item}
            owner[item] = agent
    return len(owner)


def max_welfare(reports: Reports) -> int:
    """Maximum welfare: |∪ demands| for additive reports, else matroid partitioning."""
    if reports.demands is not None:
        return len(frozenset().union(*reports.demands))
    return _max_partition(reports.independent, range(len(reports.items)))


def _bundles(alloc_doc, unallocated, reports, problems) -> list[frozenset[int]] | None:
    """Bundles as item indices; None (with a problem noted) unless they partition the items."""
    item_index = {name: i for i, name in enumerate(reports.items)}
    if sorted(alloc_doc) != sorted(reports.agents):
        problems.append("allocation does not name every agent once")
        return None
    seen: list[str] = list(unallocated)
    bundles = []
    for name in reports.agents:
        seen += alloc_doc[name]
        bundles.append(frozenset(item_index[x] for x in alloc_doc[name] if x in item_index))
    if sorted(seen) != sorted(reports.items):
        problems.append("bundles and unallocated items do not partition the items")
        return None
    for indep, bundle in zip(reports.independent, bundles):
        if not indep(bundle):
            problems.append(f"bundle {sorted(bundle)} is not independent in its report")
            return None
    return bundles


def _potential(sizes, priority) -> int:
    n = len(sizes)
    return sum((n * sizes[agent] + pos + 1) ** 2 for pos, agent in enumerate(priority))


def _check_solve(op, doc, problems):
    reports = Reports.read(op.instance)
    if doc.get("mechanism") != op.mech:
        problems.append(f"mechanism {doc.get('mechanism')!r} != {op.mech!r}")
    if op.seed is not None and doc.get("seed") != op.seed:
        problems.append("document seed differs from the requested seed")
    names = doc["priority"]
    if sorted(names) != sorted(reports.agents):
        problems.append("priority is not a permutation of the agents")
        return None
    if op.mech == "pe" and names != reports.priority:
        problems.append("pe did not use the instance priority")
    bundles = _bundles(doc["allocation"], doc["unallocated"], reports, problems)
    if bundles is None:
        return None
    sizes = [len(b) for b in bundles]
    utilities = {name: str(s) for name, s in zip(reports.agents, sizes)}
    if doc["utilities"] != utilities:
        problems.append("utilities differ from the bundle sizes")
    if doc["sorted_utilities"] != [str(s) for s in sorted(sizes)]:
        problems.append("sorted_utilities differ from the bundle sizes")
    best = max_welfare(reports)
    if int(doc["welfare"]) != sum(sizes) or sum(sizes) != best:
        problems.append(f"welfare {doc['welfare']} is not the maximum {best}")
    order = [reports.agents.index(x) for x in names]
    if int(doc["potential"]) != _potential(sizes, order):
        problems.append("potential does not match the profile and priority")
    verdict = "EF1" if op.mech == "meps" else "EFX"
    if doc["audit"][verdict]["holds"] is not True:
        problems.append(f"the document's own {verdict} verdict fails")
    if op.mech == "meps" and len(doc.get("held_out", ())) not in (1, 2):
        problems.append("held_out must list one or two items")
    return {"potential": doc["potential"], "sorted_utilities": doc["sorted_utilities"]}


def _check_distribution(op, doc, problems):
    reports = Reports.read(op.instance)
    n, m = len(reports.agents), len(reports.items)
    atoms = doc["atoms"]
    want = math.factorial(n) * (m * m if op.mech == "meps" else 1)
    if doc["atom_count"] != want or len(atoms) != want:
        problems.append(f"{len(atoms)} atoms (count {doc['atom_count']}), expected {want}")
    total = Fraction(0)
    expected = [Fraction(0)] * n
    welfare = max_welfare(reports)
    for atom in atoms:
        weight = Fraction(atom["weight"])
        total += weight
        bundles = _bundles(atom["allocation"], atom["unallocated"], reports, problems)
        if bundles is None:
            return None
        if sum(len(b) for b in bundles) != welfare:
            problems.append("an atom is not welfare-maximal")
            return None
        for v, b in enumerate(bundles):
            expected[v] += weight * len(b)
    if total != 1:
        problems.append(f"atom weights sum to {total}")
    return {"expected_utilities": [str(x) for x in expected]}


def _check_fuzz(op, doc, problems):
    if doc.get("truthful") is not True:
        problems.append("fuzz found a profitable deviation")
    return {"truthful_utility": doc.get("truthful_utility")}


def _check_enumerate(op, doc, problems):
    welfare = max_welfare(Reports.read(op.instance))
    if doc["allocation_count"] < 1 or Fraction(doc["max_welfare"]) != welfare:
        problems.append(f"max_welfare {doc['max_welfare']} is not {welfare}")
    vectors = doc["min_potential_vectors"]
    if not vectors or any(sum(Fraction(u) for u in vec) != welfare for vec in vectors):
        problems.append("min-potential vectors missing or not welfare-maximal")
    keys = ("allocation_count", "max_welfare", "pareto_count", "min_potential",
            "min_potential_vectors", "lorenz_dominating_vectors")
    return {k: doc[k] for k in keys}


_CHECKS = {
    "solve": _check_solve,
    "distribution": _check_distribution,
    "fuzz": _check_fuzz,
    "enumerate": _check_enumerate,
}


def digest(values) -> str:
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()[:16]


def check_op(op, rc, stdout: str, reference: str | None = None) -> tuple[list[str], str | None]:
    """(problems, digest of the profile values) for one op's exit code and stdout."""
    if rc != 0:
        return [f"exit code {rc}"], None
    problems: list[str] = []
    try:
        doc = json.loads(stdout)
        values = _CHECKS[op.command](op, doc, problems)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed document: {exc!r}"], None
    got = None if values is None else digest(values)
    if reference is not None and got != reference:
        problems.append(f"profile values {got} differ from the recorded {reference}")
    return problems, got
