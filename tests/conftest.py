"""Shared pytest plumbing for the suite.

test_acceptance.py registers a verdict for each numbered criterion; the
terminal-summary hook below prints one PASS/FAIL line per criterion so a
run can be audited without digging through the full pytest output.
"""

from __future__ import annotations

import pytest

_CRITERIA: dict[int, tuple[str, bool]] = {}


def record_criterion(number: int, description: str, passed: bool) -> None:
    """Record (or overwrite) the verdict for one acceptance criterion."""
    _CRITERIA[number] = (description, bool(passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERIA):
        description, ok = _CRITERIA[number]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number:02d}: {verdict}  {description}")


@pytest.fixture
def eigensolves(monkeypatch):
    """Sectors of the dense eigensolves the pipeline starts during one test.

    Wraps pipeline.diagonalize_block, which ensure_spectrum calls through
    the module global. It counts the solves of this process only: with
    workers == 1 run_spectrum solves in-process, but with workers > 1 it
    solves in forked worker processes, whose calls never reach this list.
    """
    from su2eth import pipeline

    calls = []
    original = pipeline.diagonalize_block

    def counted(block):
        calls.append(block.sector)
        return original(block)

    monkeypatch.setattr(pipeline, "diagonalize_block", counted)
    return calls
