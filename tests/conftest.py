"""Shared pytest plumbing for the suite.

test_acceptance.py registers a verdict for each numbered criterion; the
terminal-summary hook below prints one PASS/FAIL line per criterion so a
run can be audited without digging through the full pytest output, and
then the line count of the package source, the measure of its size.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

# pin BLAS before anything loads numpy (pytest itself does not): the tests
# that run sectors in forked workers would otherwise oversubscribe the cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_CRITERIA: dict[int, tuple[str, bool]] = {}


def record_criterion(number: int, description: str, passed: bool) -> None:
    """Record (or overwrite) the verdict for one acceptance criterion."""
    _CRITERIA[number] = (description, bool(passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERIA:
        terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERIA):
        description, ok = _CRITERIA[number]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number:02d}: {verdict}  {description}")
    # counted like `wc -l src/su2eth/*.py`
    source = Path(__file__).resolve().parents[1] / "src" / "su2eth"
    lines = sum(path.read_bytes().count(b"\n") for path in source.glob("*.py"))
    terminalreporter.write_line(f"src/su2eth: {lines} lines")


@pytest.fixture
def eigensolves(monkeypatch):
    """Sectors of the dense eigensolves the pipeline starts during one test.

    Wraps pipeline.diagonalize_block, which ensure_spectrum calls through
    the module global. It counts the solves of this process only: with
    workers == 1 every command works its sectors in-process, but with
    workers > 1 spectrum and oracle-check solve in forked worker processes,
    whose calls never reach this list.
    """
    from su2eth import pipeline

    calls = []
    original = pipeline.diagonalize_block

    def counted(block):
        calls.append(block.sector)
        return original(block)

    monkeypatch.setattr(pipeline, "diagonalize_block", counted)
    return calls
