"""The benchmark's workloads: seeded lists of CLI jobs with their checks.

Each workload is a closed loop of ``signedpaths`` command lines run one
after another by a single client.  The seed fixes the ``render`` windows of
``audit`` and, together with the pass index, the order of the jobs; the job
set of ``count`` and ``poset`` does not depend on it.  Every job carries a
check of its output from ``reference.py``.

Why these three:

* ``count`` -- the seven identities at their top rank plus a brute-force
  type D row.  Nearly all of its time is in the counting kernels and it
  builds no objects, so a kernel change shows here and nowhere else.
* ``audit`` -- exhaustive bijection round trips plus many small ``render``
  requests.  It makes no kernel calls; its time is in the object layers
  (sgnperm, pathrep, barred, threshold) and in per-request CLI overhead.
* ``poset`` -- weak-order and threshold-pair posets: the N^2 build beside
  lattice, cover and join-irreducible queries, fed by enumerate_tg for TG.

``quick`` shrinks every rank so a whole workload runs in about a second;
the self-tests use it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import reference as ref

WORKLOADS = ("count", "audit", "poset")

# Full and quick ranks: identity -> top n, and the per-workload sizes.
_IDENTITY_N = {
    False: {"alternating": 9, "eulBeven": 8, "eulBodd": 8, "stembridge": 8,
            "B_n1": 8, "D_n1": 8, "main": 40},
    True: {"alternating": 5, "eulBeven": 4, "eulBodd": 4, "stembridge": 4,
           "B_n1": 4, "D_n1": 4, "main": 10},
}
_EULERIAN_D_N = {False: 8, True: 4}
_AUDIT_N = {False: {"psi": 6, "theta": 6, "chi": 6, "tgdo": 5, "bijtgsbps": 5},
            True: {"psi": 3, "theta": 3, "chi": 3, "tgdo": 3, "bijtgsbps": 3}}
_RENDERS = {False: (500, 8, 12), True: (20, 3, 5)}  # count, smallest n, largest n
_POSET_N = {False: (5, 5, 4, 4), True: (3, 3, 3, 3)}  # D lattice, TG covers, iso, B joinirr


@dataclass(frozen=True)
class Job:
    """One CLI invocation, its output check, and the work it completes."""

    argv: tuple[str, ...]
    check: Callable[[int, str], "str | None"]
    work: dict[str, int] = field(default_factory=dict)

    @property
    def is_render(self) -> bool:
        return self.argv[0] == "render"


def _count(quick: bool) -> list[Job]:
    jobs = [
        Job(("verify", "--identity", name, "--max-n", str(n), "--format", "json"),
            ref.check_verify(name, n))
        for name, n in _IDENTITY_N[quick].items()
    ]
    n = _EULERIAN_D_N[quick]
    jobs.append(Job(("eulerian", "--kind", "D", "--n", str(n), "--method", "bruteforce"),
                    ref.check_eulerian("D", n)))
    return jobs


def render_windows(seed: int, quick: bool) -> list[tuple[int, ...]]:
    """The seeded signed-permutation windows ``audit`` renders."""
    rng = random.Random(f"render:{seed}")
    count, lo, hi = _RENDERS[quick]
    windows = []
    for _ in range(count):
        n = rng.randint(lo, hi)
        windows.append(tuple(rng.choice((-1, 1)) * x for x in rng.sample(range(1, n + 1), n)))
    return windows


def _audit(seed: int, quick: bool) -> list[Job]:
    jobs = []
    for audit, n in _AUDIT_N[quick].items():
        work = {"barred.roundtrips": ref.roundtrips(audit, n)} if audit in ("psi", "theta") else {}
        jobs.append(Job(("bijection", "--check", audit, "--n", str(n)),
                        ref.check_bijection(audit, n), work))
    for window in render_windows(seed, quick):
        jobs.append(Job(("render", "--perm", ",".join(map(str, window))),
                        ref.check_render(window)))
    return jobs


def _poset(quick: bool) -> list[Job]:
    d, tg, iso, b = _POSET_N[quick]
    return [
        Job(("poset", "--kind", "D", "--n", str(d), "--check", "lattice"), ref.check_lattice("D", d)),
        Job(("poset", "--kind", "TG", "--n", str(tg), "--check", "covers"), ref.check_tg_covers(tg)),
        Job(("poset", "--kind", "D", "--n", str(iso), "--check", "iso"), ref.check_iso(iso)),
        Job(("poset", "--kind", "B", "--n", str(b), "--check", "joinirr"), ref.check_joinirr_b(b)),
    ]


def units(workload: str, seed: int, pass_index: int, quick: bool = False) -> list[list[Job]]:
    """The jobs of one pass, grouped by the interpreter they run in, in seeded order.

    Every command gets a fresh interpreter, as it would from a shell, so no
    job inherits another's histogram cache and a job's time does not depend
    on the order.  The ``render`` requests of ``audit`` are one stream of
    small requests to a single interpreter.
    """
    if workload == "count":
        job_list = _count(quick)
    elif workload == "audit":
        job_list = _audit(seed, quick)
    elif workload == "poset":
        job_list = _poset(quick)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    renders = [job for job in job_list if job.is_render]
    out = [[job] for job in job_list if not job.is_render] + ([renders] if renders else [])
    random.Random(f"order:{workload}:{seed}:{pass_index}").shuffle(out)
    return out
