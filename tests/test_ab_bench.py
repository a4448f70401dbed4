"""Smoke test of tools/ab_bench.py on a stub perfbench/run.py in a throwaway repository."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"

# prints a fixed report whose metrics come from values.json beside it, and logs each call
STUB = '''
import argparse, json, pathlib
here = pathlib.Path(__file__).resolve().parent
p = argparse.ArgumentParser()
for flag in ("--workload", "--seconds", "--trace", "--seed"):
    p.add_argument(flag)
a = p.parse_args()
values = json.loads((here / "values.json").read_text())
with open(here.parents[2] / "calls.log", "a") as fh:  # the --scratch directory
    fh.write(f"{values['side']} {a.workload} {a.seconds} {a.trace} {a.seed}\\n")
metrics = {k: {"value": v, "unit": "s"} for k, v in values["metrics"].items()}
print("table")
print("REPORT " + json.dumps({"workload": a.workload, "env": {"side": values["side"]}}))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}))
'''


def _git(repo: Path, *args: str) -> None:
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                   check=True, capture_output=True)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_ab_bench_alternates_pairs_and_states_each_metric(tmp_path):
    repo = tmp_path / "repo"
    (repo / "tools").mkdir(parents=True)
    (repo / "perfbench").mkdir()
    (repo / "src" / "su2eth").mkdir(parents=True)
    shutil.copy(TOOL, repo / "tools" / "ab_bench.py")
    (repo / "perfbench" / "run.py").write_text(STUB)
    (repo / "src" / "su2eth" / "x.py").write_text("a = 1\nb = 2\n")
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}))
    values = repo / "perfbench" / "values.json"
    values.write_text(json.dumps({"side": "parent", "metrics": {"wall_s": 1.0, "peak_rss_mb": 80.0}}))
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    # the working tree: faster, with more memory, and an untracked file
    values.write_text(json.dumps({"side": "change", "metrics": {"wall_s": 0.8, "peak_rss_mb": 90.0}}))
    (repo / "src" / "su2eth" / "y.py").write_text("c = 3\n")

    out = tmp_path / "BENCH.json"
    proc = subprocess.run([sys.executable, "tools/ab_bench.py", "--parent", "HEAD", "--pairs", "2",
                           "--seconds", "1", "--seed", "5", "--workload", "warm-analysis",
                           "--out", str(out), "--scratch", str(tmp_path)],
                          cwd=repo, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # the parent first in the odd pair, the change first in the even one, one seed per pair
    calls = (tmp_path / "calls.log").read_text().split("\n")
    assert [c for c in calls if c] == [
        "parent warm-analysis 1 0 5", "change warm-analysis 1 0 5",
        "change warm-analysis 1 0 6", "parent warm-analysis 1 0 6"]
    bench = json.loads(out.read_text())
    wall, rss = (bench["statistics"]["warm-analysis"][m] for m in ("wall_s", "peak_rss_mb"))
    assert (wall["parent"]["median"], wall["change"]["median"]) == (1.0, 0.8)
    assert (wall["wins"], wall["pairs"], wall["within_bound"]) == (2, 2, True)
    assert wall["gap"] == pytest.approx(0.2) and wall["parent_iqr"] == 0.0
    assert (rss["wins"], rss["within_bound"]) == (0, False)
    assert rss["gap"] == pytest.approx(-10.0)
    assert bench["change_reports"]["warm-analysis"][0]["env"] == {"side": "change"}
    assert bench["env"] == {"side": "change"} and bench["src_su2eth_lines"] == 3
    assert "WORSE" in proc.stdout and "2/2" in proc.stdout
    # neither checkout was touched, and the scratch trees are gone
    assert not list(tmp_path.glob("ab_bench-*"))
    assert json.loads(values.read_text())["side"] == "change"
