"""Command-line surface.

Subcommands: solve, audit, distribution, fuzz, fixture, enumerate.
Exit codes: 0 ok / property holds; 1 property fails (witness printed);
2 usage or validation error; 3 capability cap exceeded, which includes a
RecursionError or MemoryError escaping a subcommand.
Documents go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import io as docio
from .audit import check_envy, check_maximin_fair, efficiency_metrics
from .errors import CapabilityError, EgallocError, ValidationError
from .harness import (
    AllDemandSubsets,
    RestrictedMrfLibrary,
    fuzz_truthfulness,
    run_fixture,
)
from .lorenz import enumerate_optimal
from .mechanisms import (
    floor_reports,
    meps_demands,
    run_meps,
    run_pe,
    run_rpe,
    sample_meps,
    sample_rpe,
)
from .model import Allocation, Instance
from .valuation import as_value

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_USAGE = 2
EXIT_CAPABILITY = 3


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def _load_instance(path: str) -> Instance:
    return docio.parse_instance(_read_text(path))


def _parse_priority_flag(flag: str | None, inst: Instance):
    if flag is None:
        return inst.priority_or_default()
    names = [x for x in flag.split(",") if x]
    if sorted(names) != sorted(inst.agent_names):
        raise ValidationError("--priority must list every agent name exactly once")
    return tuple(inst.agent_names.index(x) for x in names)


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, frozenset):
        return sorted(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _result_document(inst: Instance, alloc: Allocation, sigma, mechanism: str) -> dict:
    metrics = efficiency_metrics(alloc, inst.valuations, sigma)
    envy = check_envy(alloc, inst.valuations, ("EF", "EF1", "EFX"))
    audit = {mode: _jsonable(verdict) for mode, verdict in envy.entries}
    doc = {
        "mechanism": mechanism,
        "priority": [inst.agent_names[a] for a in sigma],
        **docio.allocation_document(alloc, inst),
        "utilities": {name: str(u) for name, u in zip(inst.agent_names, metrics.utilities)},
        "sorted_utilities": [str(u) for u in metrics.sorted_vector],
        "potential": str(metrics.potential),
        "welfare": str(metrics.welfare),
        "nash_welfare": str(metrics.nsw),
        "audit": audit,
    }
    return doc


def _cmd_solve(args) -> int:
    inst = _load_instance(args.infile)
    sigma = _parse_priority_flag(args.priority, inst)
    mech = args.mech
    if mech == "pe":
        alloc = run_pe(floor_reports(inst.valuations), inst.m, sigma)
        _emit(_result_document(inst, alloc, sigma, "pe"))
        return EXIT_OK
    if mech == "rpe":
        alloc, sigma = sample_rpe(floor_reports(inst.valuations), inst.m, seed=args.seed)
        doc = _result_document(inst, alloc, sigma, "rpe")
        doc["seed"] = args.seed
        _emit(doc)
        return EXIT_OK
    if mech == "meps":
        alloc, held_out, sigma = sample_meps(
            meps_demands(inst.valuations), inst.m, inst.epsilon, seed=args.seed
        )
        doc = _result_document(inst, alloc, sigma, "meps")
        doc["seed"] = args.seed
        doc["held_out"] = [inst.item_names[a] for a in held_out]
        _emit(doc)
        return EXIT_OK
    raise ValidationError(f"unknown mechanism {mech!r}")


def _cmd_audit(args) -> int:
    inst = _load_instance(args.infile)
    alloc = docio.parse_allocation(_read_text(args.alloc), inst)
    alpha = as_value(args.alpha or 1)
    envy = check_envy(alloc, inst.valuations, ("EF", "EF1", "EFX"), alpha)
    entries = {mode: _jsonable(verdict) for mode, verdict in envy.entries}
    ok = envy.holds("EF1") and envy.holds("EFX")
    try:
        mm = check_maximin_fair(alloc, inst.valuations, alpha)
        entries["maximin"] = _jsonable(mm.entries[0][1])
        if not mm.all_hold:
            ok = False
    except CapabilityError as exc:
        entries["maximin"] = {"holds": None, "skipped": str(exc)}
    sigma = inst.priority_or_default()
    metrics = efficiency_metrics(alloc, inst.valuations, sigma)
    _emit(
        {
            "alpha": str(alpha),
            "properties": entries,
            "welfare": str(metrics.welfare),
            "nash_welfare": str(metrics.nsw),
            "sum_squares": str(metrics.sum_squares),
            "sorted_utilities": [str(u) for u in metrics.sorted_vector],
            "potential": str(metrics.potential),
        }
    )
    return EXIT_OK if ok else EXIT_PROPERTY_FAILS


def _cmd_distribution(args) -> int:
    inst = _load_instance(args.infile)
    if args.mech == "rpe":
        dist = run_rpe(floor_reports(inst.valuations), inst.m)
    else:
        dist = run_meps(meps_demands(inst.valuations), inst.m, inst.epsilon)
    _emit({"mechanism": args.mech, **docio.distribution_document(dist, inst)})
    return EXIT_OK


def _cmd_fuzz(args) -> int:
    inst = _load_instance(args.infile)
    if args.deviator not in inst.agent_names:
        raise ValidationError(f"unknown agent {args.deviator!r}")
    deviator = inst.agent_names.index(args.deviator)
    if args.expectation == (args.mech == "pe"):  # pe is deterministic; rpe and meps are not
        need = "refuses" if args.expectation else "requires"
        raise ValidationError(f"fuzz --mech {args.mech} {need} --expectation")
    space = RestrictedMrfLibrary() if args.space == "library" else AllDemandSubsets()
    result = fuzz_truthfulness(args.mech, inst, deviator, space)
    doc = {
        "mechanism": result.mechanism,
        "deviator": args.deviator,
        "mode": result.mode,
        "truthful": result.truthful,
        "truthful_utility": str(result.truthful_utility),
    }
    if not result.truthful:
        doc["witness"] = {
            "report": docio._valuation_document(result.best_report, inst.item_names),
            "utility": str(result.best_utility),
            "gain": str(result.gain),
        }
    _emit(doc)
    return EXIT_OK if result.truthful else EXIT_PROPERTY_FAILS


def _cmd_fixture(args) -> int:
    result = run_fixture(args.id)
    _emit(
        {
            "fixture": result.fixture_id,
            "description": result.description,
            "passed": result.passed,
            "claimed": _jsonable(result.claimed),
            "computed": _jsonable(result.computed),
        }
    )
    return EXIT_OK if result.passed else EXIT_PROPERTY_FAILS


def _cmd_enumerate(args) -> int:
    inst = _load_instance(args.infile)
    result = enumerate_optimal(inst)
    doc = {
        "allocation_count": len(result.allocations),
        "max_welfare": str(result.max_welfare),
        "pareto_count": len(result.pareto),
        "lorenz_dominating_vectors": sorted(
            {tuple(str(u) for u in sorted(result.vectors[i])) for i in result.lorenz_dominating}
        ),
        "min_potential": str(result.min_potential_value),
        "min_potential_vectors": sorted(
            {tuple(str(u) for u in result.vectors[i]) for i in result.min_potential}
        ),
    }
    doc["lorenz_dominating_vectors"] = [list(v) for v in doc["lorenz_dominating_vectors"]]
    doc["min_potential_vectors"] = [list(v) for v in doc["min_potential_vectors"]]
    _emit(doc)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one argparse tree of the process, built on first use.

    Each subcommand's default `command_fn` is the *name* of its handler,
    which `main` looks up in this module at call time, so a parser built
    earlier never holds a stale function.
    """
    parser = argparse.ArgumentParser(
        prog="egalloc",
        description="Truthful fair allocation for dichotomous and near-dichotomous valuations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a mechanism on an instance")
    solve.add_argument("--mech", required=True, choices=["pe", "rpe", "meps"])
    solve.add_argument("--in", dest="infile", required=True)
    solve.add_argument("--seed", type=int, default=0, help="PRNG seed for rpe and meps")
    solve.add_argument("--priority", help="comma-separated agent names, highest first")
    solve.set_defaults(command_fn="_cmd_solve")

    audit = sub.add_parser("audit", help="audit an allocation against an instance")
    audit.add_argument("--in", dest="infile", required=True)
    audit.add_argument("--alloc", required=True)
    audit.add_argument("--alpha", help="approximation factor p/q in (0,1]")
    audit.set_defaults(command_fn="_cmd_audit")

    dist = sub.add_parser("distribution", help="exact outcome distribution")
    dist.add_argument("--mech", required=True, choices=["rpe", "meps"])
    dist.add_argument("--in", dest="infile", required=True)
    dist.set_defaults(command_fn="_cmd_distribution")

    fuzz = sub.add_parser("fuzz", help="search deviating reports for an agent")
    fuzz.add_argument("--mech", required=True, choices=["pe", "rpe", "meps"])
    fuzz.add_argument("--in", dest="infile", required=True)
    fuzz.add_argument("--deviator", required=True, help="agent name")
    fuzz.add_argument("--space", choices=["subsets", "library"], default="subsets")
    fuzz.add_argument("--expectation", action="store_true")
    fuzz.set_defaults(command_fn="_cmd_fuzz")

    fixture = sub.add_parser("fixture", help="run a pinned fixture F1..F9")
    fixture.add_argument("--id", required=True)
    fixture.set_defaults(command_fn="_cmd_fixture")

    enum = sub.add_parser("enumerate", help="exhaustive oracle sets (small instances)")
    enum.add_argument("--in", dest="infile", required=True)
    enum.set_defaults(command_fn="_cmd_enumerate")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return globals()[args.command_fn](args)
    except CapabilityError as exc:
        print(f"capability cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except (RecursionError, MemoryError) as exc:
        # input that outgrows the stack or the heap past every explicit cap
        detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        print(f"capability cap exceeded: {detail}".splitlines()[0], file=sys.stderr)
        return EXIT_CAPABILITY
    except (EgallocError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
