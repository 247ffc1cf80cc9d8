import types

import egalloc


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
    # the validators return their first Violation, or None
    assert not hasattr(egalloc.matroid, "ValidationReport")
