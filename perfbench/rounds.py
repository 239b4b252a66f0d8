"""The job loop every workload shares, and the result it reports.

A workload supplies its job list and three callables:

- ``call(i, job, clock)`` runs job ``i`` and returns its outputs; every
  program call goes through ``clock``, which times it;
- ``digest(out)`` maps the outputs to a comparable value;
- ``verify(i, job, out)`` lists what is wrong with them.

The loop runs the list in whole rounds, one job after another, until the
program calls have taken ``seconds``.  After each job, outside its timed
calls, the loop keeps its outputs when their digest is new for that job;
``check_outputs`` verifies every kept output against the references
once the rounds are over, so that the references' own memory and time
never mix with the program's (the peak resident set is read before they
run).  Every job run is thus checked: its outputs are either verified
themselves or equal to verified ones.  After every program call the
speed probe runs for its share of the call's time (``speed.py``), so
``jobs_per_s`` counts program seconds at the reference speed.
"""

from __future__ import annotations

import contextlib
import time
import traceback

import speed


class CallClock:
    """Times each program call of one job, under '<job>:<call>' keys."""

    def __init__(self, job: int):
        self.job = job
        self.seconds: dict[str, float] = {}

    def __call__(self, name: str, fn, *args, **kwargs):
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            self.add(name, time.monotonic() - start)

    def add(self, name: str, seconds: float) -> None:
        self.seconds[f"{self.job}:{name}"] = seconds


class Loop:
    def __init__(self, jobs, call, digest, verify, tracer=None):
        self.jobs = jobs
        self.call, self.digest, self.verify = call, digest, verify
        self.tracer = tracer
        self.probe = speed.Probe()
        self.digests: dict[int, list] = {}  # distinct digests per job
        self.kept: list[tuple[int, object, object]] = []  # (i, job, outputs)
        self.attempted = self.failed = self.rounds = 0
        self.timed = 0.0
        self.call_seconds: dict[str, list[float]] = {}
        self.problems: list[str] = []
        self.errors: list[str] = []

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def round(self) -> None:
        """One pass over the job list."""
        for i, job in enumerate(self.jobs):
            if self.tracer:
                self.tracer.job = self.attempted
            self.attempted += 1
            clock = CallClock(i)
            with self._span("bench.job"):
                try:
                    out = self.call(i, job, clock)
                except Exception:  # a failed operation is counted, not fatal
                    out = None
                    self.errors.append(f"job {i}: {traceback.format_exc()}")
            for key, sec in clock.seconds.items():
                self.timed += sec
                self.call_seconds.setdefault(key, []).append(sec)
                if not self.tracer:
                    self.probe.after(sec)
            if out is None:
                self.failed += 1
                continue
            with self._span("bench.digest"):
                digest = self.digest(out)
                seen = self.digests.setdefault(i, [])
                if digest not in seen:
                    seen.append(digest)
                    self.kept.append((i, job, out))
        self.rounds += 1

    def check_outputs(self) -> None:
        """Verify every kept output against the references."""
        for i, job, out in self.kept:
            self.problems += [f"job {i}: {p}" for p in self.verify(i, job, out)]
        self.kept.clear()

    def run(self, seconds: float) -> None:
        """Whole rounds until the program calls have taken ``seconds``."""
        while self.rounds == 0 or self.timed < seconds:
            self.round()

    def result(self) -> dict:
        done = self.attempted - self.failed
        res = {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "rounds": self.rounds,
            "timed_s": self.timed,
            "call_seconds": self.call_seconds,
            "problems": self.problems,
            "errors": self.errors,
            "metrics": {},
        }
        if not self.tracer:
            res["speed"] = self.probe.speed()
            res["jobs_per_s_unscaled"] = done / self.timed
            res["metrics"]["jobs_per_s"] = done / self.probe.scaled(self.timed)
        return res
