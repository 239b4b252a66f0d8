"""Seeded inputs of the three workloads.

The structure of each job list (grid sizes, s values, window kinds, the
CLI subcommands) is fixed, so every seed asks for the same amount of
work; the seed only moves the geometry: the random sets, ball centres
and radii, half-space levels, inner boxes and the order of the CLI calls.
Nothing here calls the program's numerics: sets are built from NumPy
arrays and handed to the program's data types.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from fracperim.grid import (
    AnalyticTail,
    CellSet,
    DomainWindow,
    EmptyExterior,
    GridSpec,
    HalfSpaceExterior,
    ScalarField,
    TruncateAtRadius,
    full_window,
)

# (s, grid of the AnalyticTail evaluations, set kind, ladder grid)
EVALUATE_PLAN = (
    (0.3, 64, "noise", 16),
    (0.5, 48, "ball", 24),
    (0.7, 32, "halfspace", 32),
)
LADDER_POLICY = TruncateAtRadius(0.5)

# (s, grid, window kind, exterior kind); the 6^2 jobs have at most 16 free
# cells and also run the exhaustive oracle, the 10^2 jobs have 50 to 64
MINIMIZE_PLAN = (
    (0.3, 6, "box", "smooth"),
    (0.3, 10, "ball", "halfspace"),
    (0.5, 6, "ball", "halfspace"),
    (0.5, 10, "box", "smooth"),
    (0.7, 6, "box", "halfspace"),
    (0.7, 10, "ball", "smooth"),
)
ORACLE_LIMIT = 20


def square_spec(n: int) -> GridSpec:
    return GridSpec(2, (0.0, 0.0), (n, n), 1.0 / n)


def centers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell-centre coordinates (x, y) of the n x n unit-square grid."""
    c = (np.arange(n) + 0.5) / n
    return np.meshgrid(c, c, indexing="ij")


def smooth_noise(rng: np.random.Generator, n: int, width: float) -> np.ndarray:
    """Periodic Gaussian-smoothed white noise, zero mean, unit variance."""
    noise = rng.standard_normal((n, n))
    k = np.fft.fftfreq(n)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    damp = np.exp(-2.0 * (np.pi * width * n) ** 2 * (kx * kx + ky * ky))
    out = np.fft.ifft2(np.fft.fft2(noise) * damp).real
    out -= out.mean()
    return out / out.std()


def noise_set(rng: np.random.Generator, n: int) -> np.ndarray:
    """Superlevel set of smoothed noise at its median: about half the box."""
    u = smooth_noise(rng, n, 3.0 / n)
    return u > np.median(u)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvaluateJob:
    s: float
    E: CellSet
    window: DomainWindow  # full box, AnalyticTail
    inner: DomainWindow  # inner box, AnalyticTail
    ladder_set: CellSet
    ladder_window: DomainWindow  # interior window, TruncateAtRadius
    ladder_full: DomainWindow
    schedule: tuple[float, ...]
    field: ScalarField  # 4-level field on the ladder grid


def _evaluate_set(rng, n: int, kind: str) -> CellSet:
    spec = square_spec(n)
    x, y = centers(n)
    if kind == "noise":
        return CellSet(spec, noise_set(rng, n), EmptyExterior())
    if kind == "ball":
        cx, cy = rng.uniform(0.4, 0.6, 2)
        r = rng.uniform(0.25, 0.35)
        return CellSet(spec, (x - cx) ** 2 + (y - cy) ** 2 < r * r, EmptyExterior())
    axis = int(rng.integers(0, 2))
    level = float(rng.uniform(0.3, 0.7))
    inside = (x, y)[axis] < level
    return CellSet(spec, inside, HalfSpaceExterior(axis, level))


def evaluate_jobs(seed: int) -> list[EvaluateJob]:
    rng = np.random.default_rng([seed, 1])
    jobs = []
    for s, n, kind, nl in EVALUATE_PLAN:
        E = _evaluate_set(rng, n, kind)
        lo, hi = rng.integers(n // 8, n // 4 + 1, 2)
        inner = np.zeros((n, n), dtype=bool)
        inner[lo:n - hi, hi:n - lo] = True
        lspec = square_spec(nl)
        margin = int(rng.integers(1, 4))
        lmask = np.zeros((nl, nl), dtype=bool)
        lmask[margin:-margin, margin:-margin] = True
        levels = rng.integers(0, 4, (nl, nl)) / 3.0
        jobs.append(EvaluateJob(
            s=s,
            E=E,
            window=full_window(E.spec, AnalyticTail()),
            inner=DomainWindow(E.spec, inner, AnalyticTail()),
            ladder_set=CellSet(lspec, noise_set(rng, nl), EmptyExterior()),
            ladder_window=DomainWindow(lspec, lmask, LADDER_POLICY),
            ladder_full=full_window(lspec, LADDER_POLICY),
            schedule=tuple(k / nl for k in (8, 4, 2, 1)),
            field=ScalarField(lspec, levels, 0.0),
        ))
    return jobs


# ---------------------------------------------------------------------------
# minimize
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinimizeJob:
    s: float
    window: DomainWindow
    exterior_data: CellSet

    @property
    def n_free(self) -> int:
        return int(self.window.omega.sum())

    @property
    def oracle(self) -> bool:
        return self.n_free <= ORACLE_LIMIT


def _minimize_window(rng, n: int, kind: str) -> np.ndarray:
    """Box or ball window: 12 to 16 free cells on 6^2, 50 to 64 on 10^2."""
    if kind == "box":
        side = n - 2
        mask = np.zeros((n, n), dtype=bool)
        i, j = rng.integers(0, n - side + 1, 2)
        mask[i:i + side, j:j + side] = True
        return mask
    x, y = centers(n)
    cx, cy = 0.5 + rng.uniform(-0.3, 0.3, 2) / n
    r = (0.34 if n == 6 else 0.42) + rng.uniform(0.0, 0.1) / n
    return (x - cx) ** 2 + (y - cy) ** 2 < r * r


def _minimize_exterior(rng, n: int, kind: str) -> CellSet:
    spec = square_spec(n)
    if kind == "smooth":
        return CellSet(spec, noise_set(rng, n), EmptyExterior())
    axis = int(rng.integers(0, 2))
    level = float(rng.uniform(0.35, 0.65))
    x, y = centers(n)
    # a wavy interface across the box; outside it the straight half-space
    wave = 0.12 * smooth_noise(rng, n, 2.0 / n)[0]
    wave = wave[None, :] if axis == 0 else wave[:, None]
    inside = (x if axis == 0 else y) < level + wave
    return CellSet(spec, inside, HalfSpaceExterior(axis, level))


def minimize_jobs(seed: int) -> list[MinimizeJob]:
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for s, n, wkind, ekind in MINIMIZE_PLAN:
        window = DomainWindow(square_spec(n), _minimize_window(rng, n, wkind),
                              AnalyticTail())
        jobs.append(MinimizeJob(s, window, _minimize_exterior(rng, n, ekind)))
    return jobs


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------


# one s per scan keeps a round near 32 s on a fast core; each further s
# costs another near-field quadrature (3-8 s) in a fresh process
STRIP_S = 0.5
STRIP_DELTAS = (0.25, 0.125, 0.0625)
CYLINDER_T = (2, 4, 8, 16, 32, 64, 128)
DAVILA_S = (0.9,)


@dataclass(frozen=True)
class CliJob:
    name: str  # subcommand, as the per-layer metric names it
    args: tuple[str, ...]  # arguments after ``python -m fracperim.cli``


def _dsl(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def cli_jobs(seed: int) -> list[CliJob]:
    rng = np.random.default_rng([seed, 3])
    ball = {"shape": "ball",
            "center": [round(float(c), 6) for c in rng.uniform(0.45, 0.55, 2)],
            "radius": round(float(rng.uniform(0.25, 0.35)), 6)}
    grid64 = ("--extent", "64,64", "--h", "0.015625")
    jobs = [
        CliJob("compute", ("compute", "--s", "0.5", "--shape", _dsl(ball)) + grid64),
        CliJob("compute", ("compute", "--s", "0.5", "--shape",
                           _dsl({"complement": ball})) + grid64),
    ]
    jobs.append(CliJob("strip_scan", ("strip-scan", "--s", str(STRIP_S), "--deltas",
                                      ",".join(str(d) for d in STRIP_DELTAS))))
    jobs.append(CliJob("cylinder_scan", (
        "cylinder-scan", "--s", "0.5",
        "--t-schedule", ",".join(str(t) for t in CYLINDER_T))))
    jobs.append(CliJob("davila_scan", (
        "davila-scan", "--s-schedule", ",".join(str(s) for s in DAVILA_S))))
    half = {"shape": "halfspace", "axis": 0, "level": 0.5}
    jobs.append(CliJob("minimize", (
        "minimize", "--s", "0.5", "--exterior", _dsl(half), "--extent", "8",
        "--h", "0.125", "--omega",
        _dsl({"shape": "ball", "center": [0.5], "radius": 0.2}), "--oracle")))
    axis = int(rng.integers(0, 2))
    jobs.append(CliJob("minimize", (
        "minimize", "--s", "0.5",
        "--exterior", _dsl({"shape": "halfspace", "axis": axis,
                            "level": float(rng.choice([0.375, 0.5, 0.625]))}),
        "--extent", "8,8", "--h", "0.125", "--omega",
        _dsl({"shape": "ball", "center": [0.5, 0.5], "radius": 0.25}),
        "--oracle")))
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]
