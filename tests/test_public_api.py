"""The public names: every module's __all__ and the package's re-exports."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import padic_spectra

SUBMODULES = (
    importlib.import_module(f"padic_spectra.{info.name}")
    for info in pkgutil.iter_modules(padic_spectra.__path__)
)
MODULES = [module for module in SUBMODULES if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__.split(".")[-1])
def test_every_name_in_all_resolves(module):
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_package_reexport_is_public_in_its_module():
    reexports = 0
    for node in ast.parse(inspect.getsource(padic_spectra)).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"padic_spectra.{node.module}")
            for alias in node.names:
                assert getattr(padic_spectra, alias.name) is getattr(module, alias.name)
                assert alias.name in module.__all__, (node.module, alias.name)
                reexports += 1
    assert reexports > 40
