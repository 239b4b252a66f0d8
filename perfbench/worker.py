"""The in-process workloads, ``evaluate`` and ``minimize``.

One process imports the program, builds every interaction table the job
list uses (the set-up), then runs the job list in whole rounds
(``rounds.py``).  ``run.py`` starts this file with the moment it spawned
it, so that set-up counts from before the interpreter starts.  The speed
probe runs after the import and after every table build, and set-up is
reported as seconds at the reference speed (``speed.py``).  The peak
resident set is read when the rounds end, before the outputs are checked
against the references.

With ``--trace 1`` the set-up and one round run traced instead.
"""

from __future__ import annotations

import time

T0 = time.monotonic()  # before any import: set-up starts here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer  # noqa: E402

ENERGY_TOL = 1e-9  # minimizer energies, relative to 1 + |E|
IDENTITY_TOL = 1e-10  # exact identities and pair sums, relative
LADDER_GAP = 0.05  # last rung against the target perimeter, as in A4


# ---------------------------------------------------------------------------
# Tables.
# ---------------------------------------------------------------------------


def table_for(spec, s: float, policy, cache: dict, mark=lambda: None):
    """Table whose reach covers the policy's padded universe, built once;
    ``mark`` is called after each build."""
    import numpy as np

    from fracperim import functional, kernel

    key = (spec, s, policy)
    if key not in cache:
        # size the table from the padded universe without a probe build
        stub = kernel.InteractionTable(spec, kernel.KernelParams(s, spec.dim), 0,
                                       np.zeros((1,) * spec.dim))
        reach = max(functional.PairEngine(spec, policy, stub).padded_spec.extent) - 1
        cache[key] = kernel.build_table(spec, kernel.KernelParams(s, spec.dim), reach)
        mark()
    return cache[key]


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def setup_evaluate(seed: int, limit: int | None, mark):
    import inputs

    jobs = inputs.evaluate_jobs(seed)[:limit]
    cache: dict = {}
    tables = [(table_for(j.E.spec, j.s, j.window.complement_policy, cache, mark),
               table_for(j.ladder_set.spec, j.s, inputs.LADDER_POLICY, cache, mark))
              for j in jobs]
    return jobs, tables


def run_evaluate(job, tables, clock) -> dict:
    from fracperim import approx, functional

    big, ladder = tables
    return {
        "P": clock("perimeter", functional.perimeter, job.E, job.window, big),
        "Pc": clock("perimeter_c", functional.perimeter, job.E.complement(),
                    job.window, big),
        "P_inner": clock("perimeter_inner", functional.perimeter, job.E, job.inner, big),
        "decomposition": clock("decomposition", functional.decomposition_check,
                               job.E, job.inner, job.window, big),
        "coarea": clock("coarea", functional.coarea_check, job.field,
                        job.ladder_full, ladder),
        "ladder": clock("ladder", approx.approximate_set, job.ladder_set,
                        job.ladder_window, job.schedule, ladder),
        "lipschitz": clock("lipschitz", approx.approximate_set_lipschitz,
                           job.ladder_set, job.ladder_full, job.schedule, ladder),
    }


def _steps_digest(steps) -> list:
    return [(st.eps, st.threshold, st.breakdown.total, st.boundary_in_neighborhood,
             st.approximant.inside.tobytes()) for st in steps]


def digest_evaluate(out: dict) -> dict:
    return {
        "P": out["P"].total, "Pc": out["Pc"].total, "P_inner": out["P_inner"].total,
        "decomposition": out["decomposition"], "coarea": out["coarea"],
        "ladder": _steps_digest(out["ladder"]),
        "lipschitz": _steps_digest(out["lipschitz"]),
    }


def verify_evaluate(job, tables, out: dict) -> list[str]:
    import refs

    big, ladder = tables
    bad = []
    p, pc, pin = out["P"].total, out["Pc"].total, out["P_inner"].total
    if refs.rel_gap(pc, p) > IDENTITY_TOL:
        bad.append(f"complement invariance: {pc!r} vs {p!r}")
    if out["decomposition"] > IDENTITY_TOL * p:
        bad.append(f"decomposition residual {out['decomposition']!r} for P = {p!r}")
    lhs, rhs = out["coarea"]
    if refs.rel_gap(rhs, lhs) > IDENTITY_TOL:
        bad.append(f"coarea: {lhs!r} vs {rhs!r}")
    # equality holds when E lies inside the inner box: allow rounding
    if pin > p * (1.0 + IDENTITY_TOL):
        bad.append(f"window monotonicity: P(inner) {pin!r} > P(outer) {p!r}")
    for key, window in (("ladder", job.ladder_window), ("lipschitz", job.ladder_full)):
        target = refs.direct_perimeter(job.ladder_set, window, ladder)
        for k, st in enumerate(out[key]):
            direct = refs.direct_perimeter(st.approximant, window, ladder)
            if refs.rel_gap(st.breakdown.total, direct) > IDENTITY_TOL:
                bad.append(f"{key} rung {k}: perimeter {st.breakdown.total!r}, "
                           f"direct pair sum {direct!r}")
            if not st.boundary_in_neighborhood:
                bad.append(f"{key} rung {k}: boundary not within eps")
        last = out[key][-1].breakdown.total
        if refs.rel_gap(last, target) > LADDER_GAP:
            bad.append(f"{key}: last rung {last!r} vs target {target!r}")
    return bad


# ---------------------------------------------------------------------------
# minimize
# ---------------------------------------------------------------------------


def setup_minimize(seed: int, limit: int | None, mark):
    import inputs

    jobs = inputs.minimize_jobs(seed)[:limit]
    cache: dict = {}
    tables = [table_for(j.window.spec, j.s, j.window.complement_policy, cache, mark)
              for j in jobs]
    return jobs, tables


def run_minimize(job, table, clock) -> dict:
    from fracperim import minimize

    problem = minimize.MinimizationProblem(job.window, job.exterior_data, table)
    # the solver at its full iteration budget, not at its default: the
    # default stall rule (tol=1e-9 over 50 iterations) stops early with a
    # non-minimal set on some inputs only, so counting those as failed
    # would make the failed share depend on the seed (README)
    out = {"report": clock("solve", minimize.solve_and_threshold, problem, tol=0.0)}
    if job.oracle:
        best_set, best = clock("oracle", minimize.brute_force_minimum, problem)
        out["oracle"] = (best_set, best)
        out["equivalence"] = clock("equivalence", minimize.check_minimality_equivalence,
                                   best_set, job.window, table)
    return out


def digest_minimize(out: dict) -> dict:
    rep = out["report"]
    d = {"report": (rep.energy, rep.relaxed_energy, rep.threshold, rep.iterations,
                    rep.minimizer.inside.tobytes())}
    if "oracle" in out:
        best_set, best = out["oracle"]
        d["oracle"] = (best, best_set.inside.tobytes(), repr(out["equivalence"]))
    return d


def verify_minimize(job, table, out: dict) -> list[str]:
    import numpy as np

    import refs

    bad = []
    lp = refs.lp_minimum(job.window, job.exterior_data, table)
    tol = ENERGY_TOL * (1.0 + abs(lp))
    rep = out["report"]
    if abs(rep.energy - lp) > tol:
        bad.append(f"solver energy {rep.energy!r}, LP minimum {lp!r}")
    outside = ~job.window.omega
    if not (np.array_equal(rep.minimizer.inside[outside],
                           job.exterior_data.inside[outside])
            and rep.minimizer.exterior == job.exterior_data.exterior):
        bad.append("minimizer differs from the exterior data outside the window")
    if rep.energy > rep.relaxed_energy + ENERGY_TOL * (1.0 + abs(rep.relaxed_energy)):
        bad.append(f"energy {rep.energy!r} above relaxed {rep.relaxed_energy!r}")
    if job.oracle:
        _, best = out["oracle"]
        if abs(best - lp) > tol:
            bad.append(f"oracle minimum {best!r}, LP minimum {lp!r}")
        if not out["equivalence"].global_ok:
            bad.append(f"oracle set not globally minimal: {out['equivalence']}")
    return bad


WORKLOADS = {
    "evaluate": (setup_evaluate, run_evaluate, digest_evaluate, verify_evaluate),
    "minimize": (setup_minimize, run_minimize, digest_minimize, verify_minimize),
}


# ---------------------------------------------------------------------------
# Main.
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=None)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it spawned this")
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    root = tracer.open("bench.run", start=T0) if tracer else None
    with tracer.span("cli.import") if tracer else contextlib.nullcontext():
        import fracperim  # noqa: F401  (the program's import is set-up)
    import rounds  # after the program's, so that NumPy counts as its import
    import speed

    watch = None if tracer else speed.Stopwatch(args.spawned_at)
    mark = watch.mark if watch else (lambda: None)
    mark()
    with tracer.span("bench.setup") if tracer else contextlib.nullcontext():
        if tracer:
            tracer.install()
        setup, run, digest, verify = WORKLOADS[args.workload]
        jobs, tables = setup(args.seed, args.jobs, mark)
    mark()

    loop = rounds.Loop(jobs, lambda i, job, clock: run(job, tables[i], clock), digest,
                       lambda i, job, out: verify(job, tables[i], out), tracer)
    if tracer:
        loop.round()
        tracer.close(root)
        tracer.uninstall()
    else:
        loop.run(args.seconds)
    # the program's peak, before the references add their own memory
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop.check_outputs()
    result = loop.result()
    if tracer:
        result["metrics"] = tracer.layer_metrics(root)
        if args.spans:
            tracer.dump(args.spans)
    else:
        result["metrics"]["setup_s"] = watch.scaled()
        result["metrics"]["peak_rss_mb"] = peak_rss_mb
        result["setup_unscaled_s"] = watch.seconds
    for line in loop.problems + loop.errors:
        print(line, file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
