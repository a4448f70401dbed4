"""The output sweep in tools/: one tree per build, which the comparator reads."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

_TOOLS = Path(__file__).resolve().parents[1] / "tools"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _TOOLS / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

_RUNS = {
    "spectrum": {"spectrum_summary.json"},
    "diag-eth": {"diag.csv", "spin_means.csv", "fluct.csv", "predictions.csv", "diag_fits.json"},
    "diag-eth-all-k": {"diag.csv", "spin_means.csv", "fluct.csv", "predictions.csv",
                       "diag_fits.json"},
    "offdiag-eth": {"gamma.csv", "specfun.csv", "specfun_reduced.csv", "lowfreq.csv",
                    "fits.json"},
    "offdiag-eth-abc": {"gamma.csv", "specfun.csv", "specfun_reduced.csv", "lowfreq.csv",
                        "fits.json"},
    "offdiag-eth-all-k": {"gamma.csv", "specfun.csv", "specfun_reduced.csv", "lowfreq.csv",
                          "fits.json"},
    "oracle-check": {"oracle_check.json"},
}


def _sweep(out: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(_TOOLS / "sweep_outputs.py"), str(out),
                           "--L", "6", "--L", "8"], capture_output=True, text=True, timeout=600)


def test_two_sweeps_write_every_command_at_both_couplings_and_agree(tmp_path):
    for tree in ("a", "b"):  # each fills its own cache, so the summaries count the same builds
        done = _sweep(tmp_path / tree)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "14 runs written" in done.stdout
        assert list((tmp_path / tree / "cache").glob("L8_*_lam3.eig"))
    for lam in ("lam3", "lam0"):
        for run, files in _RUNS.items():
            written = {p.name for p in (tmp_path / "a" / lam / run).iterdir()}
            assert written == files | {"manifest.jsonl"}, (lam, run)
    assert len(compare_outputs._outputs(tmp_path / "a")) == 2 * sum(map(len, _RUNS.values()))
    assert compare_outputs.compare_trees(tmp_path / "a", tmp_path / "b") == []
