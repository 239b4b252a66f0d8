"""Benchmark command: run one workload of fracperim and print its metrics.

    python3 perfbench/run.py --workload evaluate --seed 1 --seconds 12 --trace 0

Run it from the root of a source checkout; it imports the program from
``src/`` and nothing else.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (``jobs_per_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` they are the per-layer
ones from a traced run.  Per-run details (per-call seconds, the machine
speed, spans) go to ``.perfbench/`` in the checkout.  The run keeps to
one CPU, which its children inherit, so the speed probe measures the
core the program runs on.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("evaluate", "minimize", "cli_cold")
OUT_DIR = ".perfbench"

# one BLAS / OpenMP thread everywhere, so nothing competes for the cores
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "FRACPERIM_THREADS": "1",
}


def child_env(src: str) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, HERE] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def spawn(argv: list[str], env: dict, stdout_path: str) -> tuple[int, float, float, float]:
    """Run a child to its end; (exit code, start, end, peak RSS in MB)."""
    with open(stdout_path, "w") as out:
        start = time.monotonic()
        proc = subprocess.Popen(argv, env=env, stdout=out)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_maxrss / 1024.0


def run_worker(args, src: str) -> dict:
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = os.path.join(OUT_DIR, tag + ".worker.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", out, "--spans", os.path.join(OUT_DIR, tag + ".spans.json")]
    if args.jobs is not None:
        argv += ["--jobs", str(args.jobs)]
    argv += ["--spawned-at", repr(time.monotonic())]
    code, _, _, _ = spawn(argv, child_env(src), os.devnull)
    if code != 0:
        raise SystemExit(f"worker exited with code {code}")
    with open(out) as f:
        return json.load(f)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=None,
                    help="run only the first N jobs of the list (smoke tests)")
    args = ap.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "fracperim", "__init__.py")):
        print("run.py: no src/fracperim here; run it from the root of a "
              "fracperim checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.workload == "cli_cold":
        sys.path[:0] = [src, HERE]
        import cli_cold

        res = cli_cold.run(args, child_env(src), spawn, OUT_DIR)
    else:
        res = run_worker(args, src)

    from tracing import LAYER_METRICS

    units = {"jobs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", **LAYER_METRICS}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, tag + ".result.json"), "w") as f:
        json.dump(res, f, indent=1)
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(res["metrics"].items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
