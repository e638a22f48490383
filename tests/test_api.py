"""The public surface: every name a module lists in __all__ must exist."""

import importlib
import pkgutil

import pytest

import fqzeta

# __main__ runs the CLI on import
MODULES = sorted(
    name
    for _, name, _ in pkgutil.iter_modules(fqzeta.__path__)
    if name != "__main__"
)
PUBLIC_MODULES = [
    name
    for name in MODULES
    if hasattr(importlib.import_module(f"fqzeta.{name}"), "__all__")
]


def test_public_modules_found():
    assert {"compose", "digitlab", "fqpoly", "mzv", "powersum", "verify"} <= set(
        PUBLIC_MODULES
    )


@pytest.mark.parametrize("module", PUBLIC_MODULES)
def test_star_import(module):
    namespace: dict = {}
    exec(f"from fqzeta.{module} import *", namespace)
    exported = importlib.import_module(f"fqzeta.{module}").__all__
    assert len(set(exported)) == len(exported)
    assert set(exported) <= set(namespace)
