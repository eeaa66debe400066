"""Run one unit of a pass in this fresh interpreter and print its record.

Started by ``run.py`` once per unit (see ``workloads.units``), so the
package's import and its histogram cache start cold, as they do for a CLI
user.  Each job is an argv given to ``signedpaths.cli.run`` in-process; its
stdout is captured and checked.  The last line of output is a JSON record.

    python3 perfbench/worker.py --workload count --seed 1 --pass-index 0 --unit 0

``import signedpaths.cli`` is timed before anything else is loaded, so the
standard-library modules it needs are not already imported.
"""

import os
import sys
import time

from calibrate import BRACKET_SLICES, SpeedMeter, scale

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
_meter = SpeedMeter()
_meter.bracket()
_start = time.perf_counter()
with _meter:
    import signedpaths.cli as cli  # noqa: E402
_seconds = time.perf_counter() - _start - sum(_meter.slices[BRACKET_SLICES:])
_meter.bracket()
IMPORT_S = scale(_seconds, _meter.slices)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402

# Take calibration slices between jobs once this much job time has gone by.
CALIBRATION_EVERY_S = 0.2


def run_unit(workload: str, seed: int, pass_index: int, unit: int, trace: bool, quick: bool) -> dict:
    """Run one unit's jobs and return their records (see ``run.py``)."""
    if not os.path.abspath(cli.__file__).startswith(os.path.join(SRC, "")):
        raise SystemExit(f"signedpaths was imported from {cli.__file__}, not {SRC}")
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer.install()
    # traced jobs take no slices while they run: they would land in the
    # traced self times, so traced times stay raw (see run.trace_metrics)
    meter = SpeedMeter()
    meter.bracket()
    records, work, work_s = [], {}, {}
    segment, first_slice = [], 0  # records and slices since the last bracket
    job_list = workloads.units(workload, seed, pass_index, quick)[unit]
    for index, job in enumerate(job_list):
        out, err = io.StringIO(), io.StringIO()
        before = tracer.self_by_layer() if tracer else None
        sampled = len(meter.slices)
        problem = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                (contextlib.nullcontext() if tracer else meter):
            try:
                rc = cli.run(list(job.argv))
            except Exception as exc:  # a crash is a failed job, not a failed pass
                rc, problem = None, f"raised {exc!r}"
        end = time.perf_counter()
        seconds = end - start - sum(meter.slices[sampled:])
        if problem is None:
            problem = job.check(rc, out.getvalue())
        if problem is None:
            for key, value in job.work.items():
                work[key] = work.get(key, 0) + value
                work_s[key] = work_s.get(key, 0.0) + seconds
        else:
            problem += f" (stderr: {err.getvalue()[:200]!r})"
        record = {
            "id": f"p{pass_index}.u{unit}.j{index}",
            "parent": f"p{pass_index}",
            "argv": " ".join(job.argv),
            "render": job.is_render,
            "start": start,
            "end": end,
            "seconds": seconds,
            "problem": problem,
        }
        if tracer:
            after = tracer.self_by_layer()
            record["self_s"] = {layer: after[layer] - before[layer] for layer in after}
        records.append(record)
        segment.append(record)
        if sum(r["seconds"] for r in segment) >= CALIBRATION_EVERY_S or index == len(job_list) - 1:
            meter.bracket()
            for r in segment:
                r["scaled_s"] = scale(r["seconds"], meter.slices[first_slice:])
            segment, first_slice = [], len(meter.slices) - BRACKET_SLICES
    return {
        "import_s": IMPORT_S,
        "backend": getattr(sys.modules.get("signedpaths.kernels"), "BACKEND", None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": records,
        "work": work,
        "work_s": work_s,
        "trace": tracer.raw() if tracer else None,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--unit", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    print(json.dumps(run_unit(args.workload, args.seed, args.pass_index, args.unit,
                              bool(args.trace), args.quick)))


if __name__ == "__main__":
    main()
