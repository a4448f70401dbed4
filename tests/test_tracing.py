"""The benchmark's per-layer tracer still finds the pipeline's call sites.

perfbench/tracing.py patches names on su2eth.pipeline, cache, analysis and
oracle and reads `.records` of the element tables; a refactor that renames
or drops one of them would otherwise break `--trace 1` without a failure.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

import su2eth
from su2eth import pipeline

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_tracer_fills_the_layer_table(tmp_path, tracing):
    # the warm-analysis commands at small sizes, spectrum solved in process
    base = pipeline.RunConfig(L_list=(6, 8), lam=3.0, cache_dir=str(tmp_path / "cache"))
    plan = [
        ("spectrum", pipeline.run_spectrum, dataclasses.replace(base, workers=1)),
        ("diag_eth", pipeline.run_diag_eth,
         dataclasses.replace(base, spins=(0, 1, 2), observables=("A", "B", "C"))),
        ("offdiag_eth", pipeline.run_offdiag_eth,
         dataclasses.replace(base, spins=(0, 1, 2), spin_pairs=((0, 2),),
                             observables=("B", "C"))),
    ]
    tracer = tracing.Tracer()
    with tracing.installed(tracer, su2eth):
        for name, run, config in plan:
            with tracer.command(f"pipeline.run_{name}"):
                run(dataclasses.replace(config, out_dir=str(tmp_path / name)))
    table = tracing.layer_table(tracer.spans, 1)
    assert table["spectral.matrix_elements.calls"] > 0
    assert table["analysis.build_offdiagonal_ensemble.calls"] > 0
    assert 0.0 < table["analysis.build_offdiagonal_ensemble.kept_ratio"] < 1.0
    assert table["cache.load_spectrum.calls"] > 0
    assert table["pipeline.run_offdiag_eth.wall_s"] > 0.0
