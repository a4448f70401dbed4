"""Package surface: every name a module exports exists, and the bare package
loads no numerical stack, so the CLI can pin BLAS threads first."""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import su2eth

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(su2eth.__path__)])
def test_every_exported_name_exists(name):
    # a stale __all__ entry breaks `from su2eth.<name> import *` only at use;
    # modules without __all__ (the CLI) export their public names implicitly
    module = importlib.import_module(f"su2eth.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"su2eth.{name}.__all__ names missing attributes {missing}"


def test_package_loads_no_numpy_and_the_cli_pins_blas_threads():
    script = (
        "import json, os, sys\n"
        "import su2eth\n"
        "bare = 'numpy' in sys.modules\n"
        "import su2eth.cli\n"
        f"print(json.dumps([bare, [os.environ.get(v) for v in {BLAS_THREAD_VARS!r}]]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.path.dirname(su2eth.__path__[0])
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          check=True)
    bare, pinned = json.loads(done.stdout)
    assert not bare, "import su2eth loaded numpy"
    assert pinned == ["1"] * len(BLAS_THREAD_VARS)
