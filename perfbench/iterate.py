"""One timed iteration of a workload, or the cache audit, in a fresh interpreter.

    python3 perfbench/iterate.py '<spec json>'

spec keys: mode ("iterate" or "audit"), src, workload, cache, result, and
out, trace, index for an iteration or lam for an audit. The result is
written as JSON to spec["result"]. run.py starts this once per iteration,
so every iteration's peak RSS is its own, and pins the BLAS thread counts
and malloc arenas in the environment it passes down.
"""

import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import checks
import tracing
import workloads

def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def iterate(su2eth, spec: dict) -> dict:
    """Run the workload's commands once; timings, peak RSS, checks, output digests."""
    tally = checks.Tally()
    tracer = tracing.Tracer() if spec["trace"] else None
    out = Path(spec["out"])
    plan = workloads.commands(su2eth.pipeline, spec["workload"], Path(spec["cache"]), out)
    times = dict.fromkeys(workloads.COMMAND_METRICS, 0.0)
    summaries = []
    with tracing.installed(tracer, su2eth) if tracer else nullcontext():
        for name, fn, config in plan:
            ok = True
            t0 = time.perf_counter()
            try:
                with tracer.command(f"pipeline.run_{name}") if tracer else nullcontext():
                    result = fn(config)
            except Exception:
                traceback.print_exc()
                ok = False
            times[f"{name}_s"] += time.perf_counter() - t0
            tally.check(ok, f"iteration {spec['index']}: {name} at lam={config.lam:g} raised")
            if ok and name == "spectrum":
                summaries.append((config.lam, result))
    peak = _peak_rss_mb()
    for lam, summary in summaries:
        checks.check_summary(tally, su2eth, spec["workload"], lam, summary)
    report = {"times": times, "wall": sum(times.values()), "peak_rss_mb": peak,
              "digests": checks.output_digests(out), "tally": vars(tally)}
    if tracer is not None:
        report["layers"] = tracing.layer_table(
            tracer.spans, workloads.spectrum_workers(spec["workload"]))
    if spec["index"] == 0:
        report["env"] = checks.environment(Path(spec["src"]).parent, spec["inherited"],
                                           workloads.nproc())
    return report


def audit(su2eth, spec: dict) -> dict:
    tally = checks.Tally()
    worst = checks.audit_cache(tally, su2eth, Path(spec["cache"]), spec["lam"])
    return {"tally": vars(tally), "worst_moment_deviation": worst}


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import su2eth
    # load the modules the commands and wrappers use before anything is timed
    from su2eth import analysis, basis, cache, oracle, pipeline  # noqa: F401

    report = (iterate if spec["mode"] == "iterate" else audit)(su2eth, spec)
    Path(spec["result"]).write_text(json.dumps(report))


if __name__ == "__main__":
    main()
