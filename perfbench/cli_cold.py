"""The ``cli_cold`` workload: every job is one fresh CLI process.

Each job runs ``python -m fracperim.cli <subcommand> ...`` as a user
would, one process at a time, so every call pays the import, the
near-field quadrature of its s, its table builds and its signed
distances afresh.  The job loop (``rounds.py``) runs in the parent, and
a job's one timed call is its child's wall time.  Set-up is the median
of several cold ``import fracperim.cli`` in fresh interpreters, each
scaled by the speed probe run right after it.  The traced run starts the
children through ``launcher.py`` instead, which records spans inside
each child; they are grafted under the parent's span for that child.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys

import inputs
import refs
import rounds
import speed
import tracing

COLD_IMPORTS = 5  # set-up: the median of this many cold imports
IMPORT_PROBE_S = 0.5  # probe seconds before and after each cold import
STRIP_TOL = 2e-3  # strip rows against the angular reference, relative (A3)
COMPUTE_TOL = 1e-10  # ball against its complement, relative
DAVILA_FLOOR = 5e-4  # allowed growth of |1 - ratio| under refinement (A9)
DAVILA_TOL = 0.15  # |1 - ratio| at s = 0.9 on the finest grid (A9)

HERE = os.path.dirname(os.path.abspath(__file__))


def _rows(text: str) -> list[list[float]]:
    """Data rows of a CSV output: no '#' lines, no header."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [[float(v) for v in ln.split(",")] for ln in lines[1:]]


class Checks:
    """Output checks per subcommand; references are computed once."""

    def __init__(self):
        self.strip_refs: dict = {}
        self.totals: dict[int, float] = {}  # of the two compute jobs

    def verify(self, i: int, job: inputs.CliJob, text: str) -> list[str]:
        bad = getattr(self, job.name)(text)
        if job.name == "compute" and not bad:
            # the ball and its complement, checked when the second has run
            self.totals[i] = json.loads(text)["total"]
            a, b = (list(self.totals.values()) + [None])[:2]
            if b is not None and refs.rel_gap(b, a) > COMPUTE_TOL:
                bad.append(f"ball and complement totals differ: {a!r}, {b!r}")
        return bad

    def compute(self, text: str) -> list[str]:
        total = json.loads(text)["total"]
        return [] if math.isfinite(total) and total > 0 else [f"total {total!r}"]

    def strip_scan(self, text: str) -> list[str]:
        rows = _rows(text)
        bad = [] if len(rows) == len(inputs.STRIP_DELTAS) else [f"{len(rows)} rows"]
        for s, delta, measured, _ in rows:
            key = (s, delta)
            if key not in self.strip_refs:
                self.strip_refs[key] = refs.strip_reference(s, delta)
            gap = refs.rel_gap(measured, self.strip_refs[key])
            if gap > STRIP_TOL:
                bad.append(f"strip s={s} delta={delta}: {measured!r} is {gap:.2e} "
                           f"from the reference {self.strip_refs[key]!r}")
        return bad

    def cylinder_scan(self, text: str) -> list[str]:
        rows = _rows(text)
        values = [v for _, _, v in rows]
        bad = [] if len(rows) == len(inputs.CYLINDER_T) else [f"{len(rows)} rows"]
        if not all(a < b for a, b in zip(values, values[1:])):
            bad.append(f"cylinder values do not increase in T: {values}")
        return bad

    def davila_scan(self, text: str) -> list[str]:
        rows = _rows(text)
        bad = [] if len(rows) == 2 * len(inputs.DAVILA_S) else [f"{len(rows)} rows"]
        for s in inputs.DAVILA_S:
            # rows of one s, coarse grid first
            gaps = [abs(1.0 - r[4]) for r in sorted((r for r in rows if r[0] == s),
                                                     key=lambda r: -r[1])]
            if any(b > a + DAVILA_FLOOR for a, b in zip(gaps, gaps[1:])):
                bad.append(f"davila s={s}: |1 - ratio| grows under refinement {gaps}")
            if s == 0.9 and not gaps[-1] <= DAVILA_TOL:
                bad.append(f"davila s=0.9: |1 - ratio| = {gaps[-1]!r}")
        return bad

    def minimize(self, text: str) -> list[str]:
        res = json.loads(text)
        return [] if res.get("oracle_ok") is True else [f"oracle_ok missing: {res}"]


def _cold_import(env: dict, spawn, out_dir: str) -> tuple[float, float]:
    """One cold import between two probes: (seconds, scaled seconds).

    A probe after the import alone tracked it poorly: three imports of
    one run took 1.52-1.57 s, and their probes read speeds 0.63-0.91.
    """
    probe = speed.Probe()
    probe.run(IMPORT_PROBE_S)
    code, start, end, _ = spawn([sys.executable, "-c", "import fracperim.cli"],
                                env, os.path.join(out_dir, "cli-import.out"))
    probe.run(IMPORT_PROBE_S)
    if code != 0:
        raise SystemExit(f"import fracperim.cli exited with code {code}")
    return end - start, probe.scaled(end - start)


class Children:
    """Runs job i as one child process and returns its standard output."""

    def __init__(self, env: dict, spawn, out_dir: str, tracer: tracing.Tracer | None):
        self.env, self.spawn, self.out_dir, self.tracer = env, spawn, out_dir, tracer
        self.peak_rss_mb = 0.0

    def __call__(self, i: int, job: inputs.CliJob, clock: rounds.CallClock) -> str:
        out_path = os.path.join(self.out_dir, f"cli-{i}.out")
        if self.tracer:
            spans_path = os.path.join(self.out_dir, f"cli-{i}.spans.json")
            argv = [sys.executable, os.path.join(HERE, "launcher.py"), spans_path]
        else:
            argv = [sys.executable, "-m", "fracperim.cli"]
        code, start, end, rss = self.spawn(argv + list(job.args), self.env, out_path)
        clock.add(job.name, end - start)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        if self.tracer:
            idx = self.tracer.open(f"cli.{job.name}", start=start)
            self.tracer.graft(tracing.load(spans_path), idx)
            self.tracer.close(idx, end=end)
        if code != 0:
            raise RuntimeError(f"{' '.join(job.args)} exited with code {code}")
        with open(out_path) as f:
            return f.read()


def run(args, env: dict, spawn, out_dir: str) -> dict:
    jobs = inputs.cli_jobs(args.seed)[:args.jobs]
    tracer = tracing.Tracer() if args.trace else None
    children = Children(env, spawn, out_dir, tracer)
    checks = Checks()
    loop = rounds.Loop(jobs, children, lambda text: text, checks.verify, tracer)
    if tracer:
        root = tracer.open("bench.run")
        loop.round()
        tracer.close(root)
    else:
        imports = [_cold_import(env, spawn, out_dir) for _ in range(COLD_IMPORTS)]
        loop.run(args.seconds)
    loop.check_outputs()
    result = loop.result()
    if tracer:
        result["metrics"] = tracer.layer_metrics(root)
        tracer.dump(os.path.join(out_dir, f"cli_cold-seed{args.seed}-trace1.spans.json"))
    else:
        result["metrics"]["setup_s"] = statistics.median(s for _, s in imports)
        result["metrics"]["peak_rss_mb"] = children.peak_rss_mb
        result["cold_imports_s"] = imports
    for line in loop.problems + loop.errors:
        print(line, file=sys.stderr)
    return result
