import ast
import types
from pathlib import Path

import egalloc

SRC = Path(__file__).resolve().parents[1] / "src" / "egalloc"


def test_star_import_exports_no_module():
    assert not [n for n in egalloc.__all__ if isinstance(getattr(egalloc, n), types.ModuleType)]
    namespace = {}
    exec("import io\nfrom egalloc import *", namespace)
    assert namespace["io"] is __import__("io")


def test_every_exported_name_resolves():
    for name in egalloc.__all__:
        assert getattr(egalloc, name) is not None


def test_deleted_oracles_are_gone():
    # removed with no caller outside their own tests; see README "Removed names"
    deleted = ("greedy_welfare", "feasible_with_profile", "lorenz_compare", "LorenzRelation")
    for module in (egalloc, egalloc.lorenz, egalloc.intersection):
        assert [name for name in deleted if hasattr(module, name)] == [], module.__name__
    assert not hasattr(egalloc.lorenz, "max_common_independent")
    assert not hasattr(egalloc.lorenz.EnumerationResult, "min_potential_vectors")
    # the validators return their first Violation, or None
    assert not hasattr(egalloc.matroid, "ValidationReport")
    # second routes to one job: parsing validates, floor_reports floors, and
    # a deviation space is a function (instance, deviator) -> reports
    gone = {
        egalloc.valuation: ("validate", "floor_round"),
        egalloc.harness: (
            "DeviationSpace", "AllDemandSubsets", "RestrictedMrfLibrary", "ExplicitDeviations",
            "_deviation_reports",
        ),
        # test-only oracles, now in tests/matroid_reference.py and audit_reference.py,
        # or checked there against enumerate_optimal(inst).lorenz_dominating
        egalloc.matroid: ("brute_force_rank",),
        egalloc.audit: ("nsw_key", "check_stochastic_ef", "check_lorenz_dominating", "TailWitness"),
        # every exact mechanism realizes through the one walk, `_outcomes`, as
        # holders tuples that `_granted` merges with the grants; and every
        # mechanism takes reports, each held-out one set up by `_demand_spec`
        egalloc.mechanisms: (
            "_checked_solve", "_shared_solve", "_meps_outcomes", "_frozen",
            "_merged", "_merged_bundle", "_checked_demand", "meps_demands",
        ),
    }
    for module, names in gone.items():
        assert [name for name in names if hasattr(module, name)] == [], module.__name__
        assert [name for name in names if name in egalloc.__all__] == []


def test_no_module_imports_a_name_it_does_not_use():
    # __init__.py imports to re-export; every other module imports to use
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        assert sorted(imported - used) == [], path.name


def test_the_welfare_oracle_stays_apart_from_the_engine():
    # the descent in tests/lorenz_reference.py checks the Yankee Swap engine
    # against intersection.max_common_independent; an oracle that reached the
    # engine would check it against itself
    tree = ast.parse((SRC / "intersection.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((getattr(node, "module", None) or "").split("."))
            names.update(part for alias in node.names for part in alias.name.split("."))
    engine = {
        "lorenz", "mechanisms", "harness",
        "can_add", "swap_filter", "swap_key", "solve_prepared", "compute_lorenz_dominating",
    }
    assert sorted(names & engine) == []
