"""Package surface: every name a module exports exists."""

from __future__ import annotations

import importlib

import pytest

import su2eth


@pytest.mark.parametrize("name", su2eth._SUBMODULES)
def test_every_exported_name_exists(name):
    # a stale __all__ entry breaks `from su2eth.<name> import *` only at use;
    # modules without __all__ (the CLI) export their public names implicitly
    module = importlib.import_module(f"su2eth.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"su2eth.{name}.__all__ names missing attributes {missing}"
