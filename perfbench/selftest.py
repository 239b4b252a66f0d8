"""Self-tests of the benchmark: its references catch wrong answers, and each
workload runs end to end on a cut-down job list.

    python3 -m pytest perfbench/selftest.py

The file name keeps it out of the repository's default test collection;
the smoke runs start the benchmark as a user does, from the root of
the checkout.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import cli_cold  # noqa: E402
import inputs  # noqa: E402
import refs  # noqa: E402
import rounds  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from fracperim.functional import perimeter  # noqa: E402
from fracperim.grid import (  # noqa: E402
    CellSet,
    DomainWindow,
    EmptyExterior,
    HalfSpaceExterior,
    full_window,
)
from fracperim.minimize import (  # noqa: E402
    MinimizationProblem,
    brute_force_minimum,
)

WRONG = 1e-6  # relative error of the planted wrong answers


# ---------------------------------------------------------------------------
# Direct pair sum.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ladder_case():
    rng = np.random.default_rng(7)
    spec = inputs.square_spec(12)
    E = CellSet(spec, inputs.noise_set(rng, 12), EmptyExterior())
    mask = np.zeros((12, 12), dtype=bool)
    mask[2:-2, 2:-2] = True
    window = DomainWindow(spec, mask, inputs.LADDER_POLICY)
    table = worker.table_for(spec, 0.5, inputs.LADDER_POLICY, {})
    return E, window, table


def test_direct_pair_sum_matches_perimeter(ladder_case):
    E, window, table = ladder_case
    direct = refs.direct_perimeter(E, window, table)
    assert refs.rel_gap(perimeter(E, window, table).total, direct) <= worker.IDENTITY_TOL


def test_direct_pair_sum_rejects_wrong_answers(ladder_case):
    E, window, table = ladder_case
    p = perimeter(E, window, table).total
    assert refs.rel_gap(p * (1 + WRONG), refs.direct_perimeter(E, window, table)) \
        > worker.IDENTITY_TOL
    flipped = E.inside.copy()
    flipped[5, 5] = not flipped[5, 5]
    other = CellSet(E.spec, flipped, EmptyExterior())
    assert refs.rel_gap(p, refs.direct_perimeter(other, window, table)) \
        > worker.IDENTITY_TOL


def test_direct_pair_sum_needs_empty_exterior(ladder_case):
    E, window, table = ladder_case
    half = CellSet(E.spec, E.inside, HalfSpaceExterior(0, 0.5))
    with pytest.raises(ValueError):
        refs.direct_perimeter(half, window, table)


# ---------------------------------------------------------------------------
# HiGHS LP minimum.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_problem():
    job = inputs.minimize_jobs(3)[0]  # 6^2 grid, at most 16 free cells
    table = worker.table_for(job.window.spec, job.s, job.window.complement_policy, {})
    return job, table


def test_lp_agrees_with_exhaustive_search(small_problem):
    job, table = small_problem
    _, best = brute_force_minimum(MinimizationProblem(job.window, job.exterior_data, table))
    lp = refs.lp_minimum(job.window, job.exterior_data, table)
    assert abs(lp - best) <= worker.ENERGY_TOL * (1 + abs(best))


def test_minimize_check_passes_the_solver(small_problem):
    job, table = small_problem
    out = worker.run_minimize(job, table, rounds.CallClock(0))
    assert worker.verify_minimize(job, table, out) == []


def test_minimize_check_rejects_wrong_answers(small_problem):
    job, table = small_problem
    out = worker.run_minimize(job, table, rounds.CallClock(0))
    rep = out["report"]
    wrong = dict(out, report=dataclasses.replace(rep, energy=rep.energy * (1 + WRONG)))
    assert any("LP minimum" in p for p in worker.verify_minimize(job, table, wrong))

    # one free cell flipped, with the energy the program gives the flipped set
    inside = rep.minimizer.inside.copy()
    i, j = np.argwhere(job.window.omega)[0]
    inside[i, j] = not inside[i, j]
    flipped = CellSet(rep.minimizer.spec, inside, rep.minimizer.exterior)
    energy = perimeter(flipped, job.window, table).total
    wrong = dict(out, report=dataclasses.replace(rep, minimizer=flipped, energy=energy))
    assert worker.verify_minimize(job, table, wrong)

    # a cell outside the window flipped
    inside = rep.minimizer.inside.copy()
    i, j = np.argwhere(~job.window.omega)[0]
    inside[i, j] = not inside[i, j]
    moved = CellSet(rep.minimizer.spec, inside, rep.minimizer.exterior)
    wrong = dict(out, report=dataclasses.replace(rep, minimizer=moved))
    assert any("outside the window" in p
               for p in worker.verify_minimize(job, table, wrong))

    best_set, best = out["oracle"]
    wrong = dict(out, oracle=(best_set, best * (1 + WRONG)))
    assert any("oracle" in p for p in worker.verify_minimize(job, table, wrong))


# ---------------------------------------------------------------------------
# Angular strip reference.
# ---------------------------------------------------------------------------


def _strip_csv(s: float, measured) -> str:
    rows = "".join(f"{s},{d},{m!r},1e9\n" for d, m in zip(inputs.STRIP_DELTAS, measured))
    return f"# command=strip-scan\ns,delta,measured,bound\n{rows}"


def test_strip_reference_is_converged():
    coarse = refs.strip_reference(0.5, 0.125, nodes=100)
    assert refs.rel_gap(coarse, refs.strip_reference(0.5, 0.125)) < 1e-5


def test_strip_check_passes_the_program():
    from fracperim.functional import interaction
    from fracperim.grid import GridSpec, sublevel_window
    from fracperim.kernel import KernelParams, build_table

    n = 32  # the grid strip-scan uses for delta = 1/4 at 8 strip cells
    spec = GridSpec(2, (0.0, 0.0), (n, n), 1.0 / n)
    win = full_window(spec)
    core = sublevel_window(win, -0.25).omega
    table = build_table(spec, KernelParams(0.5, 2), max_offset=n - 1)
    measured = interaction(core, win.omega & ~core, table)
    assert refs.rel_gap(measured, refs.strip_reference(0.5, 0.25)) <= cli_cold.STRIP_TOL


def test_strip_check_rejects_wrong_rows():
    right = [refs.strip_reference(0.5, d) for d in inputs.STRIP_DELTAS]
    checks = cli_cold.Checks()
    assert checks.strip_scan(_strip_csv(0.5, right)) == []
    for factor in (1 + 3e-3, 1 - 3e-3):
        wrong = right[:2] + [right[2] * factor]
        bad = cli_cold.Checks().strip_scan(_strip_csv(0.5, wrong))
        assert len(bad) == 1 and "from the reference" in bad[0]


def test_compute_check_compares_ball_and_complement():
    job = inputs.CliJob("compute", ())
    checks = cli_cold.Checks()
    assert checks.verify(0, job, '{"total": 5.0}') == []
    assert checks.verify(1, job, '{"total": 5.0}') == []
    checks = cli_cold.Checks()
    checks.verify(0, job, '{"total": 5.0}')
    assert checks.verify(1, job, f'{{"total": {5.0 * (1 + WRONG)!r}}}')


# ---------------------------------------------------------------------------
# Job loop and speed probe.
# ---------------------------------------------------------------------------


def test_loop_counts_failures_and_checks_every_new_output():
    outputs = {0: [1, 1, 2], 1: [7, 7, 7]}  # job 0 changes in round 3

    def call(i, job, clock):
        if job == "raises":
            clock("boom", lambda: 1 / 0)
        return clock("call", outputs[i].pop, 0)

    verified = []

    def verify(i, job, out):
        verified.append((i, out))
        return ["wrong"] if out == 2 else []

    loop = rounds.Loop([0, 1, "raises"], call, lambda out: out, verify)
    for _ in range(3):
        loop.round()
    assert verified == []  # nothing is checked while the rounds run
    loop.check_outputs()
    res = loop.result()
    assert (res["attempted"], res["failed"], res["rounds"]) == (9, 3, 3)
    assert verified == [(0, 1), (1, 7), (0, 2)]  # repeats are not re-verified
    assert res["problems"] == ["job 0: wrong"] and not res["correct"]
    assert res["metrics"]["jobs_per_s"] > 0


def test_probe_runs_its_share_after_each_interval():
    probe = speed.Probe(duty=0.5)
    probe.after(0.0)
    assert probe.units == 1  # at least one unit, even after nothing
    probe.after(0.2)
    assert probe.seconds >= 0.1
    assert probe.scaled(2.0) == pytest.approx(2.0 * probe.speed())
    assert 0.05 < probe.speed() < 5.0


# ---------------------------------------------------------------------------
# Smoke runs: each workload with a cut-down job list, started from the root.
# ---------------------------------------------------------------------------


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload,jobs", [("evaluate", 1), ("minimize", 1),
                                           ("cli_cold", 1)])
def test_smoke_end_to_end(workload, jobs):
    res = _run("--workload", workload, "--seed", "0", "--seconds", "0",
               "--trace", "0", "--jobs", str(jobs))
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["attempted"] >= jobs and out["failed"] == 0
    assert set(out["metrics"]) == {"jobs_per_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_smoke_traced_run_adds_up():
    res = _run("--workload", "minimize", "--seed", "0", "--seconds", "0",
               "--trace", "1", "--jobs", "1")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["minimize.solver_iterations"] == 2000
    assert metrics["minimize.free_cells"] == inputs.minimize_jobs(0)[0].n_free
    partition = sum(v for k, v in metrics.items()
                    if tracing.LAYER_METRICS[k] == "s" and k not in tracing.INCLUSIVE)
    assert abs(partition - metrics["trace.wall_s"]) < 1e-6
    assert 0 < metrics["trace.overhead_pct"] < 5


def test_refuses_to_run_without_the_program(tmp_path):
    res = _run("--workload", "evaluate", "--seed", "0", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0 and res.stdout == ""
