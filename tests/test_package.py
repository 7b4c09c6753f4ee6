"""The package namespace: every exported name resolves, no submodule is shadowed."""
import importlib
import pkgutil

import subsidy_fairdiv


def test_all_names_are_unique_and_resolve():
    names = subsidy_fairdiv.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(subsidy_fairdiv, name), name


def test_submodules_are_not_shadowed():
    for info in pkgutil.iter_modules(subsidy_fairdiv.__path__):
        module = importlib.import_module(f"subsidy_fairdiv.{info.name}")
        assert getattr(subsidy_fairdiv, info.name) is module, info.name
