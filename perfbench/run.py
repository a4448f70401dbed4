"""su2eth benchmark: cold spectrum sweeps (serial and pooled) and a warm ETH analysis.

    python3 perfbench/run.py --workload cold-serial --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seconds 26 --trace 1

One workload per call. Set-up is timed several times, each in a fresh
interpreter (prepare.py). Then the workload's pipeline commands run once per
iteration, each iteration in a fresh interpreter (iterate.py), until
--seconds have passed. The cache audit runs last, outside the timed region.
--trace 1 runs one untraced iteration and then traced ones, and reports the
per-layer table instead of the end-to-end metrics. `--workload all` runs
every workload in its own process and prints one table.

The last line of stdout is the result JSON; the line before it, prefixed
`REPORT `, holds quartiles, sample counts, checks and the run environment.
This process never loads numpy. Scratch files go to `.perfbench_work/`
beside `perfbench/`. See NOTES.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# set-up repeats at least SETUP_MIN_REPS times and until SETUP_MIN_S have passed
SETUP_MIN_REPS = 2
SETUP_MIN_S = 4.0
CHILD_TIMEOUT_S = 170

# gated in BENCHMARK.json: non-zero and steady on every workload
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "cache_mb": "MB"}
# printed for every workload, not gated: the command times add up to wall_s
# and are zero or a fraction of a second on some workload
REPORTED = {**END_TO_END, "spectrum_s": "s", "diag_eth_s": "s", "offdiag_eth_s": "s",
            "failed_frac": "1"}


def layer_unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith((".bytes", ".bytes_computed")):
        return "B"
    if metric.endswith(".flops_computed"):
        return "flop"
    if metric.endswith(("_ratio", "_per_sector", "_utilisation")):
        return "1"
    return "count"


def _stats(values, unit: str) -> dict:
    values = [float(v) for v in values]
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": statistics.median(values), "unit": unit, "n": len(values),
            "q1": q1, "q3": q3}


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _child(script: str, *args: str) -> None:
    """Run a helper in a fresh interpreter and wait for it; raise if it failed."""
    proc = subprocess.run([sys.executable, str(HERE / script), *args],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{script} exited with {proc.returncode}")


class Run:
    """One workload: set-up, timed iterations, audit, all in child processes."""

    def __init__(self, args, inherited: dict):
        self.args = args
        self.inherited = inherited
        self.workload = args.workload
        self.work = WORK / f"{args.workload}-{os.getpid()}"
        self.cache_dir = self.work / "cache"
        self.tally = checks.Tally()

    def setup(self) -> list[float]:
        """Time fresh set-ups; the last one's cache serves the run."""
        times = []
        while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_S:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            fill = [] if self.workload in workloads.COLD else [
                str(self.cache_dir), str(self.work / "setup-out")]
            t0 = time.perf_counter()
            _child("prepare.py", str(SRC), *fill)
            times.append(time.perf_counter() - t0)
        return times

    def _spec(self, mode: str, **extra) -> dict:
        return {"mode": mode, "src": str(SRC), "workload": self.workload,
                "cache": str(self.cache_dir), "result": str(self.work / "result.json"),
                "inherited": self.inherited, **extra}

    def _iterate(self, index: int, trace: bool) -> dict:
        if self.workload in workloads.COLD:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        out = self.work / f"iter{index}"
        spec = self._spec("iterate", out=str(out), trace=trace, index=index)
        _child("iterate.py", json.dumps(spec))
        result = json.loads(Path(spec["result"]).read_text())
        shutil.rmtree(out, ignore_errors=True)
        self.tally.merge(result["tally"])
        return result

    def _audit(self) -> float:
        """Audit the cache, one child per coupling, both at once; returns the
        worst moment deviation."""
        specs = [self._spec("audit", lam=lam, result=str(self.work / f"audit{i}.json"))
                 for i, lam in enumerate(workloads.COUPLINGS)]
        procs = [subprocess.Popen([sys.executable, str(HERE / "iterate.py"), json.dumps(spec)],
                                  stdout=subprocess.DEVNULL) for spec in specs]
        try:
            codes = [proc.wait(timeout=CHILD_TIMEOUT_S) for proc in procs]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if any(codes):
            raise RuntimeError(f"cache audit exited with {codes}")
        audits = [json.loads(Path(spec["result"]).read_text()) for spec in specs]
        for audit in audits:
            self.tally.merge(audit["tally"])
        return max(a["worst_moment_deviation"] for a in audits)

    def measure(self):
        """Untraced iterations, or one untraced then traced ones.

        Whole iterations run until --seconds have passed; at least one.
        """
        plain, traced = [], []
        if self.args.trace:
            plain.append(self._iterate(0, False))
        timed = traced if self.args.trace else plain
        start = time.perf_counter()
        while True:
            timed.append(self._iterate(len(plain) + len(traced), bool(self.args.trace)))
            if time.perf_counter() - start >= self.args.seconds:
                return plain, traced

    def execute(self) -> dict:
        setup_times = self.setup()
        plain, traced = self.measure()
        cache_mb = _dir_bytes(self.cache_dir) / 1e6

        worst = self._audit()
        env = (plain + traced)[0]["env"]
        digests = [r["digests"] for r in plain + traced]
        # keyed on the source: only runs of the same code must agree
        reference = WORK / "digests" / f"{self.workload}-{env['src_sha256']}.json"
        checks.check_digests(self.tally, digests, reference)
        if self.tally.failed == 0:
            checks.save_reference(digests[0], reference)

        stats = {
            "setup_s": _stats(setup_times, "s"),
            "wall_s": _stats([r["wall"] for r in plain], "s"),
            **{m: _stats([r["times"][m] for r in plain], "s")
               for m in workloads.COMMAND_METRICS},
            "peak_rss_mb": _stats([r["peak_rss_mb"] for r in plain], "MB"),
            "cache_mb": _stats([cache_mb], "MB"),
            "failed_frac": _stats([self.tally.failed_frac], "1"),
        }
        report = {
            "workload": self.workload, "seed": self.args.seed, "seconds": self.args.seconds,
            "trace": self.args.trace,
            "iterations": {"untraced": len(plain), "traced": len(traced)},
            "stats": stats,
            "checks": {"attempted": self.tally.attempted, "failed": self.tally.failed,
                       "misses": self.tally.misses,
                       "worst_moment_deviation": worst},
            "env": env,
        }
        if traced:
            layers = {name: statistics.median(r["layers"][name] for r in traced)
                      for name in traced[0]["layers"]}
            layers["bench.trace_overhead_s"] = (
                statistics.median(r["wall"] for r in traced) - stats["wall_s"]["value"])
            report["per_layer"] = layers
        return report


def result_line(report: dict) -> dict:
    if report["trace"]:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in report["per_layer"].items()}
    else:
        metrics = {name: {"value": report["stats"][name]["value"], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": report["checks"]["failed"] == 0,
            "attempted": report["checks"]["attempted"],
            "failed": report["checks"]["failed"], "metrics": metrics}


def print_table(reports: list[dict]) -> None:
    print(f"{'metric':<50}{'unit':<7}" + "".join(f"{r['workload']:>24}" for r in reports))
    for metric, unit in REPORTED.items():
        cells = [r["stats"][metric] for r in reports]
        print(f"{metric:<50}{unit:<7}"
              + "".join(f"{c['value']:>14.4g} n={c['n']:<3}{'':>4}" for c in cells))
        if any(c["n"] > 1 for c in cells):
            print(f"{'  quartiles':<57}"
                  + "".join(f"{'[%.4g, %.4g]' % (c['q1'], c['q3']):>24}" for c in cells))
    if all("per_layer" in r for r in reports):
        for metric in reports[0]["per_layer"]:
            print(f"{metric:<50}{layer_unit(metric):<7}"
                  + "".join(f"{r['per_layer'][metric]:>24.6g}" for r in reports))
    for r in reports:
        c = r["checks"]
        print(f"checks {r['workload']}: {c['attempted']} attempted, {c['failed']} failed, "
              f"worst moment deviation {c['worst_moment_deviation']:.2e}")
        for miss in c["misses"]:
            print(f"  MISS {miss}")


def run_all(args) -> int:
    """Every workload in its own process, printed as one table."""
    reports, status = [], 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("REPORT ")]
        if not lines:
            print(f"{workload}: no report (exit {proc.returncode})")
            return proc.returncode or 1
        reports.append(json.loads(lines[-1][len("REPORT "):]))
    print_table(reports)
    print("ENV " + json.dumps(reports[0]["env"], sort_keys=True))
    print(json.dumps({
        "correct": all(r["checks"]["failed"] == 0 for r in reports),
        "attempted": sum(r["checks"]["attempted"] for r in reports),
        "failed": sum(r["checks"]["failed"] for r in reports),
        "workloads": {r["workload"]: result_line(r)["metrics"] for r in reports},
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: no workload draws anything random")
    parser.add_argument("--seconds", type=int, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "su2eth" / "pipeline.py").is_file():
        print(f"no su2eth sources under {SRC}", file=sys.stderr)
        return 2

    # The sector pool supplies the parallelism, so each worker gets one BLAS
    # thread, as the CLI arranges; calling the pipeline directly skips the CLI.
    # Every child inherits the pin before it loads numpy.
    inherited = {v: os.environ.get(v) for v in checks.PINNED_VARS}
    for var in checks.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # glibc gives each sector-pool thread its own malloc arena, which made the
    # peak RSS of identical warm iterations bimodal (about 335 or 400 MB) with
    # thread timing; one arena repeats it within 1% and leaves times unchanged
    os.environ["MALLOC_ARENA_MAX"] = "1"
    if args.workload == "all":
        return run_all(args)

    run = Run(args, inherited)
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    try:
        report = run.execute()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    print_table([report])
    print("REPORT " + json.dumps(report, sort_keys=True))
    result = result_line(report)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
