"""Alternating A/B runs of perfbench/run.py: a parent revision against the working tree.

    python tools/ab_bench.py --parent HEAD --pairs 10 --seconds 26 \\
        --workload warm-analysis --workload cold-pool --out BENCH_36.json

Both sides are exported with `git archive` into a scratch directory (the
working tree through a temporary index, so untracked files that are not
ignored come along), so neither checkout is touched. For each workload,
pair i runs `perfbench/run.py --workload W --seconds S --trace 0 --seed
<seed + i>` once on each side, the parent first in odd pairs (1, 3, ...)
and the change first in even ones. Each run's last stdout line (the result
JSON) gives the gated metrics, and its `REPORT` line the full report.

For each gated metric of BENCHMARK.json it prints the median [quartiles]
of each side, the pairs the change wins (ties count for neither), the
medians' gap against the parent's quartile distance, and whether the
change's median stays within the metric's bound of the parent's. --out
writes all of it as JSON, with the change's reports, the environment of
its first report and the line count of the change's src/su2eth.

Exits 0 when every run passed its checks, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def export(revision: str | None, dest: Path) -> Path:
    """The tree of revision, or of the working tree for None, unpacked into dest."""
    dest.mkdir(parents=True)
    if revision is None:
        with tempfile.TemporaryDirectory() as tmp:
            env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
            subprocess.run(["git", "add", "-A"], cwd=ROOT, env=env, check=True)
            revision = subprocess.run(["git", "write-tree"], cwd=ROOT, env=env, check=True,
                                      capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", revision], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_once(tree: Path, workload: str, seconds: int, seed: int) -> dict:
    """One perfbench run: {"correct", "metrics": {name: value}, "report"}."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seconds", str(seconds), "--trace", "0", "--seed", str(seed)],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    reports = [ln[len("REPORT "):] for ln in lines if ln.startswith("REPORT ")]
    if not lines or not reports:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{tree.name} {workload}: no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    return {"correct": bool(result["correct"]),
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "report": json.loads(reports[-1])}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), as perfbench computes them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric's pair statistics; runs are in pair order on both sides."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    return {
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3, "runs": parent},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3, "runs": change},
        "wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "gap": sign * (p_med - c_med),
        "parent_iqr": p_q3 - p_q1,
        "within_bound": sign * (c_med - p_med) <= bound * abs(p_med),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=26)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", type=Path, help="JSON file for the statistics and reports")
    parser.add_argument("--scratch", type=Path, help="where the trees go (default: a temp dir)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be at least 1")

    gated = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if args.scratch:
        args.scratch.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=args.scratch, prefix="ab_bench-"))
    try:
        trees = {"parent": export(args.parent, scratch / "parent"),
                 "change": export(None, scratch / "change")}
        runs = {(w, side): [] for w in args.workload for side in SIDES}
        for workload in args.workload:
            for i in range(1, args.pairs + 1):
                order = SIDES if i % 2 else SIDES[::-1]
                for side in order:
                    runs[workload, side].append(
                        run_once(trees[side], workload, args.seconds, args.seed + i - 1))
                print(f"{workload} pair {i}: " + ", ".join(
                    f"{side} wall_s {runs[workload, side][-1]['metrics'].get('wall_s', 0):.4g}"
                    for side in order), flush=True)
        src_lines = sum(len(p.read_text().splitlines())
                        for p in (trees["change"] / "src" / "su2eth").glob("*.py"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    stats, correct = {}, all(r["correct"] for side in runs.values() for r in side)
    print(f"{'workload':<16}{'metric':<14}{'parent median [q1, q3]':>30}"
          f"{'change median [q1, q3]':>30}{'wins':>8}{'gap/IQR':>10}{'bound':>8}")
    for workload in args.workload:
        stats[workload] = {}
        for metric in gated:
            name = metric["name"]
            values = {side: [r["metrics"][name] for r in runs[workload, side]] for side in SIDES}
            s = compare(values["parent"], values["change"], metric["better"], metric["bound"])
            stats[workload][name] = s
            cells = ["%.4g [%.4g, %.4g]" % (s[side]["median"], s[side]["q1"], s[side]["q3"])
                     for side in SIDES]
            ratio = s["gap"] / s["parent_iqr"] if s["parent_iqr"] else float("inf")
            print(f"{workload:<16}{name:<14}{cells[0]:>30}{cells[1]:>30}"
                  f"{'%d/%d' % (s['wins'], s['pairs']):>8}{ratio:>10.2f}"
                  f"{'ok' if s['within_bound'] else 'WORSE':>8}")
    if args.out:
        reports = {w: [r["report"] for r in runs[w, "change"]] for w in args.workload}
        first = reports[args.workload[0]][0]
        payload = {"parent": args.parent, "pairs": args.pairs, "seconds": args.seconds,
                   "first_seed": args.seed, "correct": correct, "statistics": stats,
                   "change_reports": reports, "env": first.get("env"),
                   "src_su2eth_lines": src_lines}
        args.out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
