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
