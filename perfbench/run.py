"""The signedpaths benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload count --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each workload (see ``workloads.py``) is
a closed loop: one client, one process at a time, ``--jobs`` left at 1.  A
run makes passes over the workload's job list while at least half of the
next pass is expected to fit in ``--seconds``; every command of a pass runs in a
fresh interpreter (``worker.py``), so the package's histogram cache starts
cold.  Every job's output is checked against ``reference.py``; a nonzero
exit or a wrong output is a failed job.

With ``--trace 0`` the end-to-end metrics are medians over passes of

* ``wall_s``      -- time to run the pass's whole job list;
* ``max_job_s``   -- time of the slowest job (the one with the largest median);
* ``peak_rss_mb`` -- the largest peak resident memory of the pass's interpreters;

and ``setup_s``, the median over the run's interpreters of the time to
import ``signedpaths.cli``.  Times are scaled to a reference host speed
(``calibrate.py``).  With ``--trace 1`` untraced and traced passes
alternate; the per-layer metrics (``tracer.py``) are medians over the
traced passes.  Human-readable lines go first; the last line of stdout is
the JSON result.  Job spans and per-function aggregates are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import COMPUTED, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 170


def run_unit(workload: str, seed: int, index: int, unit: int, trace: bool, quick: bool) -> dict:
    """Run one unit of a pass in a fresh worker interpreter; returns its record."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--pass-index", str(index), "--unit", str(unit),
            "--trace", str(int(trace))] + (["--quick"] if quick else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_pass(workload: str, seed: int, index: int, trace: bool, quick: bool) -> dict:
    """Run every unit of one pass and combine their records."""
    units = [run_unit(workload, seed, index, unit, trace, quick)
             for unit in range(len(workloads.units(workload, seed, index, quick)))]
    jobs = [job for u in units for job in u["jobs"]]
    return {
        "id": f"p{index}",
        "import_s": [u["import_s"] for u in units],
        "backend": units[0]["backend"],
        "wall_s": sum(job["scaled_s"] for job in jobs),
        "raw_wall_s": sum(job["seconds"] for job in jobs),
        "peak_rss_mb": max(u["peak_rss_mb"] for u in units),
        "jobs": jobs,
        "work": merge([u["work"] for u in units]),
        "work_s": merge([u["work_s"] for u in units]),
        "trace": merge([u["trace"] for u in units]) if trace else None,
    }


def merge(records: list[dict]) -> dict:
    """Sum numbers, lists of numbers and nested dicts of several workers' records."""
    def add(into: dict, other: dict) -> None:
        for key, value in other.items():
            if isinstance(value, dict):
                add(into.setdefault(key, {}), value)
            elif isinstance(value, list):
                into[key] = [a + b for a, b in zip(into.get(key, [0] * len(value)), value)]
            else:
                into[key] = into.get(key, 0) + value

    merged: dict = {}
    for record in records:
        add(merged, record)
    return merged


def slowest_job(passes: list[dict]) -> list[float]:
    """Times of the job whose median over the passes is the largest."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for job in p["jobs"]:
            times.setdefault(job["argv"], []).append(job["scaled_s"])
    return max(times.values(), key=statistics.median)


def describe(name: str, values: list[float], unit: str) -> str:
    """Median, the highest percentile with ten samples beyond it, and the count."""
    line = f"{name}: median {statistics.median(values):.6g} {unit}"
    if len(values) >= 11:
        percentile = 100 * (len(values) - 10) // len(values)
        line += f", p{percentile} {sorted(values)[len(values) - 11]:.6g} {unit}"
    return line + f" (n={len(values)})"


def git_sha() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    name = head[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def metric_unit(name: str) -> str:
    if name in COMPUTED:
        return "count-computed"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def trace_metrics(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Per-layer metrics: medians over traced passes, plus the tracing cost."""
    per_pass = [layer_metrics(p["trace"], p["work"], p["work_s"]) for p in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["cli.import_s"] = statistics.median(s for p in traced for s in p["import_s"])
    # raw seconds: a traced job cannot take calibration slices while it runs
    traced_wall = statistics.median(p["raw_wall_s"] for p in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(p["raw_wall_s"] for p in plain)
    # job time no layer's self time accounts for: the harness and wrapper entry
    metrics["trace.unattributed_s"] = statistics.median(
        sum(j["seconds"] - sum(j["self_s"].values()) for j in p["jobs"]) for p in traced)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="signedpaths benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small ranks, for self-tests")
    args = parser.parse_args()
    if not (SRC / "signedpaths" / "cli.py").is_file():
        print(f"error: no signedpaths source under {SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    plain, traced = [], []
    while True:
        # with --trace 1, untraced and traced passes alternate
        is_traced = bool(args.trace) and len(traced) < len(plain)
        began = time.perf_counter()
        (traced if is_traced else plain).append(
            run_pass(args.workload, args.seed, len(plain) + len(traced), is_traced, args.quick))
        now = time.perf_counter()
        # start another pass only if at least half of it fits in --seconds
        if plain and (traced or not args.trace) and now - start + (now - began) / 2 > args.seconds:
            break

    passes = plain + traced
    jobs = [job for p in passes for job in p["jobs"]]
    failures = [job for job in jobs if job["problem"] is not None]
    record = {
        "workload": args.workload, "seed": args.seed, "quick": args.quick,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "kernel_backend": passes[0]["backend"],
    }
    print("run: " + json.dumps(record))
    for job in failures[:10]:
        print(f"FAILED {job['argv'][:100]}: {job['problem']}")
    print(f"fail_ratio: {len(failures) / len(jobs):.6g} ({len(failures)}/{len(jobs)} jobs)")

    if args.trace:
        metrics = trace_metrics(plain, traced)
        units = {name: metric_unit(name) for name in metrics}
        for name, value in metrics.items():
            print(f"{name}: {value:.6g} {units[name]}")
    else:
        samples = {
            "wall_s": [p["wall_s"] for p in plain],
            "max_job_s": slowest_job(plain),
            "setup_s": [s for p in plain for s in p["import_s"]],
            "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        }
        units = {"wall_s": "s", "max_job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        metrics = {name: statistics.median(values) for name, values in samples.items()}
        for name, values in samples.items():
            print(describe(name, values, units[name]))
        renders = [j["scaled_s"] * 1000 for p in plain for j in p["jobs"] if j["render"]]
        if renders:
            print(describe("render_ms", renders, "ms"))
        print(describe("raw wall_s", [p["raw_wall_s"] for p in plain], "s"))

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "run"
    (out_dir / f"{kind}_{args.workload}_seed{args.seed}.json").write_text(json.dumps({
        "run": record,
        "spans": [{"id": p["id"], "parent": None, "traced": p["trace"] is not None,
                   "wall_s": p["wall_s"], "raw_wall_s": p["raw_wall_s"]} for p in passes] + jobs,
        "functions": [p["trace"] for p in traced],
        "metrics": metrics,
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
