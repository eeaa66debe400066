"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py

The checks must reject wrong outputs, the reference drawings must match the
program's, and the quick mode must run every workload end to end.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference as ref
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _verify_output(name: str, max_n: int, corrupt=None) -> str:
    reports = []
    for n in range(ref.MIN_N[name], max_n + 1):
        rows = [dict(index=i, lhs=lhs, rhs=rhs, holds=True, **({} if b is None else {"brute": b}))
                for i, lhs, rhs, b in ref.identity_rows(name, n)]
        if corrupt and n == max_n:
            corrupt(rows)
        reports.append({"identity": name, "n": n, "holds": True, "rows": rows})
    return json.dumps({"identity": name, "holds": True, "reports": reports}, indent=2) + "\n"


def test_verify_check_accepts_reference_rows():
    for name in ref.MIN_N:
        assert ref.check_verify(name, 5)(0, _verify_output(name, 5)) is None


def test_verify_check_rejects_corrupted_histogram():
    def bump(rows):
        rows[2]["lhs"] += 1
        rows[2]["rhs"] += 1

    assert ref.check_verify("stembridge", 5)(0, _verify_output("stembridge", 5, bump))
    assert ref.check_verify("stembridge", 5)(1, _verify_output("stembridge", 5))
    assert ref.check_eulerian("D", 8)(0, "1 5528 208732 1265704 2201030 1265704 208732 5528 1\n") is None
    assert ref.check_eulerian("D", 8)(0, "1 5528 208732 1265704 2201031 1265704 208732 5528 1\n")


def test_bijection_check_rejects_wrong_roundtrip_count():
    check = ref.check_bijection("psi", 6)
    assert check(0, "psi at n=6: 92160 round trips verified\n") is None
    assert check(0, "psi at n=6: 92159 round trips verified\n")
    assert check(1, "psi at n=6: 92160 round trips verified\n")


def test_reference_rows_match_known_values():
    assert ref.eulerian_a(4) == [1, 11, 11, 1]
    assert ref.eulerian_b(3) == [1, 23, 23, 1]
    assert ref.eulerian_d(3) == [1, 11, 11, 1]
    assert sum(ref.eulerian_d(8)) == ref.group_order("D", 8)


def _run_cli(argv):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from signedpaths import cli
    finally:
        sys.path.pop(0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.run(argv)
    return rc, out.getvalue()


def test_render_reference_matches_the_program():
    for window in workloads.render_windows(seed=3, quick=True)[:10] + [(-2, 3, 1, 6, -4, -7, 5)]:
        rc, out = _run_cli(["render", "--perm", ",".join(map(str, window))])
        assert ref.check_render(window)(rc, out) is None


def _bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_mode_runs_every_workload(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        rc, out = _bench("--workload", workload, "--seed", "7", "--seconds", "0",
                         "--trace", str(trace), "--quick")
        assert rc == 0, out
        result = json.loads(out.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[section]}


def test_kernel_calls_do_not_depend_on_the_seed():
    calls = []
    for seed in ("1", "2"):
        rc, out = _bench("--workload", "count", "--seed", seed, "--seconds", "0",
                         "--trace", "1", "--quick")
        assert rc == 0, out
        calls.append(json.loads(out.splitlines()[-1])["metrics"]["kernels.calls"]["value"])
    assert calls[0] == calls[1] > 0


def test_fails_without_the_program_source():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        rc, out = _bench("--workload", "count", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert rc != 0
    assert not out.strip()
