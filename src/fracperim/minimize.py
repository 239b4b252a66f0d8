"""Minimization of the s-perimeter with prescribed exterior data.

The perimeter restricted to competitors that agree with the exterior data
outside the window is an affine-plus-pairwise function of the free cell
values; relaxing those values to [0,1] gives a convex piecewise-linear
energy whose minimizers threshold to binary minimizers (coarea bang-bang).
A vectorized exhaustive oracle guards correctness at small sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import signal

from .approx import MollifierSpec, mollify
from .errors import ConvergenceFailure, InvalidSchedule, NotNested, OracleTooLarge
from .functional import PairEngine, perimeter
from .grid import CellSet, DomainWindow, ScalarField, signed_distance, sublevel_window
from .kernel import InteractionTable

__all__ = [
    "MinimizationProblem",
    "SolverReport",
    "EquivalenceReport",
    "solve_relaxed",
    "threshold_minimizer",
    "solve_and_threshold",
    "brute_force_minimum",
    "check_minimality_equivalence",
    "solve_locally_minimal",
]

_ORACLE_LIMIT = 24
_STALL_WINDOW = 50


@dataclass(frozen=True)
class MinimizationProblem:
    """Window, exterior data and kernel table defining one instance.

    Competitors agree with ``exterior_data`` on every cell outside the
    window; the window cells are the free variables.
    """

    window: DomainWindow
    exterior_data: CellSet
    table: InteractionTable

    @property
    def free_cells(self) -> np.ndarray:
        return self.window.omega

    @property
    def n_free(self) -> int:
        return int(self.window.omega.sum())


@dataclass(frozen=True)
class SolverReport:
    """Outcome of relaxation plus thresholding, with independent recompute."""

    relaxed_energy: float
    threshold: float
    minimizer: CellSet
    energy: float
    iterations: int
    kkt_residual: float


@dataclass(frozen=True)
class EquivalenceReport:
    """Minimality of one set within three competitor classes."""

    global_ok: bool
    compact_ok: bool
    local_ok: bool
    degenerate: bool = False


# ---------------------------------------------------------------------------
# Condensed quadratic-form view of the energy.
# ---------------------------------------------------------------------------


class _Condensed:
    """Energy over the free cells only.

    F(x) = sum_{a<b} W_ab |x_a - x_b| + sum_a [p_a (1 - x_a) + q_a x_a]
    where p_a (q_a) is the interaction mass between free cell a and the
    fixed part of E (of its complement), including analytic ray masses.
    """

    def __init__(self, p: MinimizationProblem):
        self.problem = p
        table = p.table
        eng = PairEngine(p.window.spec, p.window.complement_policy, table)
        om = eng.embed(p.window.omega)
        occ0 = eng.occupancy(p.exterior_data)
        self.free_idx = np.argwhere(om)  # (m, dim) in padded universe
        m = len(self.free_idx)
        self.m = m

        # pairwise weights between free cells
        K = table.max_offset
        if m:
            diff = self.free_idx[None, :, :] - self.free_idx[:, None, :]
            self.W = table.weights[tuple((diff + K).transpose(2, 0, 1))]
            np.fill_diagonal(self.W, 0.0)
        else:
            self.W = np.zeros((0, 0))

        # linear terms: interaction with the frozen exterior occupancy; the
        # weight block is symmetric, so convolving with it is correlating
        block = table.block(tuple(n - 1 for n in om.shape))
        fixed = np.stack([occ0 & ~om, ~occ0 & ~om]).astype(float)
        axes = tuple(range(1, om.ndim + 1))
        conv = signal.fftconvolve(fixed, block[None], mode="same", axes=axes)
        sel = (slice(None),) + tuple(self.free_idx.T)
        self.p, self.q = conv[sel]
        if eng.analytic_rays:
            mass_e, mass_c = eng.ray_masses(p.exterior_data.exterior)
            box_sel = tuple(np.argwhere(p.window.omega).T)
            self.p = self.p + mass_e[box_sel]
            self.q = self.q + mass_c[box_sel]

    def energy_and_pair_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """F(x) and g = (W * sign(x_a - x_b)).sum(1) from one pass over W:
        the pair energy equals x @ g."""
        g = (self.W * np.sign(x[:, None] - x[None, :])).sum(axis=1)
        return float(x @ g + self.p @ (1.0 - x) + self.q @ x), g

    def energies_binary(self, X: np.ndarray) -> np.ndarray:
        """Vectorized energy of a batch of binary assignments (B, m)."""
        X = X.astype(float)
        r = self.W.sum(axis=1)
        quad = np.einsum("bi,bi->b", X @ self.W, X)
        return float(self.p.sum()) + X @ (self.q - self.p + r) - quad

    def set_from(self, x_binary: np.ndarray) -> CellSet:
        spec = self.problem.window.spec
        inside = self.problem.exterior_data.inside.copy()
        inside[self.problem.window.omega] = x_binary.astype(bool)
        return CellSet(spec, inside, self.problem.exterior_data.exterior)


# ---------------------------------------------------------------------------
# Relaxed solve and thresholding.
# ---------------------------------------------------------------------------


def _initial_point(p: MinimizationProblem) -> np.ndarray:
    eps = 2.0 * p.window.spec.h
    u0 = mollify(p.exterior_data, MollifierSpec(eps))
    return np.clip(u0.values[p.window.omega], 0.0, 1.0)


def _solve_relaxed(cond: _Condensed, tol: float, max_iter: int):
    """Projected subgradient descent on a built energy.

    One pass over W per iterate gives both its energy and the subgradient
    of the next step.  The stall window counts only once an iterate has
    beaten the starting point, so a slow start is not taken for a stall.
    """
    p = cond.problem
    if cond.m == 0:
        field = ScalarField(
            p.window.spec,
            p.exterior_data.inside.astype(float),
            p.exterior_data.exterior,
        )
        return field, 0
    lin_grad = cond.q - cond.p
    x = _initial_point(p)
    f0, g = cond.energy_and_pair_gradient(x)
    best_x = x
    best_f = f0
    history = [best_f]
    scale = float(np.max(cond.W.sum(axis=1) + np.abs(lin_grad))) or 1.0
    c0 = 1.0 / scale
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        x = np.clip(x - (c0 / math.sqrt(it)) * (g + lin_grad), 0.0, 1.0)
        f, g = cond.energy_and_pair_gradient(x)
        if f < best_f:
            best_f = f
            best_x = x
        history.append(best_f)
        if (it >= _STALL_WINDOW and history[-_STALL_WINDOW] < f0
                and history[-_STALL_WINDOW] - best_f < tol):
            converged = True
            break
    vals = p.exterior_data.inside.astype(float)
    vals[p.window.omega] = best_x
    field = ScalarField(p.window.spec, vals, p.exterior_data.exterior)
    if not converged:
        raise ConvergenceFailure(
            f"no stall after {max_iter} iterations (best {best_f!r})",
            best=field,
            iterations=it,
        )
    return field, it


def solve_relaxed(p: MinimizationProblem, tol: float = 1e-9,
                  max_iter: int = 5000) -> ScalarField:
    """Minimize the relaxed convex energy by projected subgradient descent.

    Free-cell values move with step c/sqrt(k) and the best iterate is
    tracked; once the best energy is below the starting energy, the loop
    stops when it stalls for 50 iterations within ``tol``.
    """
    field, _ = _solve_relaxed(_Condensed(p), tol, max_iter)
    return field


def _threshold(cond: _Condensed, u: ScalarField, iterations: int) -> SolverReport:
    p = cond.problem
    if cond.m == 0:
        E = CellSet(p.window.spec, p.exterior_data.inside, p.exterior_data.exterior)
        e = perimeter(E, p.window, p.table).total
        return SolverReport(e, 0.5, E, e, iterations, 0.0)
    x = np.clip(u.values[p.window.omega], 0.0, 1.0)
    relaxed, g = cond.energy_and_pair_gradient(x)
    vals = np.unique(x)
    cuts = [vals[0] - 1.0]
    cuts += [0.5 * (a + b) for a, b in zip(vals[:-1], vals[1:])]
    cuts.append(vals[-1] + 1.0)
    bits = x[None, :] > np.asarray(cuts)[:, None]
    energies = cond.energies_binary(bits)
    best = None
    for t, b, e in zip(cuts, bits, energies):
        cand = (float(e), tuple(b.astype(int)), float(min(max(t, 0.0), 1.0)), b)
        if best is None or (cand[0] - best[0] < -1e-12) or (
            abs(cand[0] - best[0]) <= 1e-12 and cand[1] < best[1]
        ):
            best = cand
    minimizer = cond.set_from(best[3])
    energy = perimeter(minimizer, p.window, p.table).total
    kkt = float(np.max(np.abs(g + cond.q - cond.p)))
    return SolverReport(relaxed, best[2], minimizer, energy, iterations, kkt)


def threshold_minimizer(u: ScalarField, p: MinimizationProblem,
                        iterations: int = 0) -> SolverReport:
    """Best superlevel set of a relaxed iterate, with independent recompute.

    Scans thresholds between consecutive distinct free values (plus both
    extremes); by the coarea identity the best superlevel energy never
    exceeds the relaxed energy.  Ties break toward the lexicographically
    smallest bitmask.
    """
    return _threshold(_Condensed(p), u, iterations)


def solve_and_threshold(p: MinimizationProblem, tol: float = 1e-9,
                        max_iter: int = 2000) -> SolverReport:
    """Relaxed solve followed by thresholding, on one built energy.

    Thresholding snaps to a binary minimizer long before the relaxed
    values settle, so an exhausted iteration budget is not fatal here:
    the best iterate carried by the failure is thresholded instead.
    """
    cond = _Condensed(p)
    try:
        field, iters = _solve_relaxed(cond, tol, max_iter)
    except ConvergenceFailure as err:
        field, iters = err.best, err.iterations
    return _threshold(cond, field, iters)


# ---------------------------------------------------------------------------
# Exhaustive oracle.
# ---------------------------------------------------------------------------


def _enumerate_bits(m: int, batch: int = 1 << 14):
    """Yield batches of all binary vectors of length m, cell 0 most
    significant, so ascending integer order is lexicographic bit order.

    A batch of 2^14 rows keeps the float copies that ``energies_binary``
    makes of it small: it bounds the oracle's peak memory."""
    total = 1 << m
    shifts = np.arange(m - 1, -1, -1, dtype=np.uint64)
    for start in range(0, total, batch):
        ints = np.arange(start, min(start + batch, total), dtype=np.uint64)
        yield start, ((ints[:, None] >> shifts[None, :]) & 1).astype(bool)


def _exhaustive_minimum(cond: _Condensed) -> tuple[np.ndarray, float]:
    """Best bit vector over all 2^m assignments and its energy."""
    m = cond.m
    if m > _ORACLE_LIMIT:
        raise OracleTooLarge(f"{m} free cells exceed the oracle limit {_ORACLE_LIMIT}")
    best_e = math.inf
    best_bits = None
    for _, X in _enumerate_bits(m):
        E = cond.energies_binary(X)
        i = int(np.argmin(E))
        if E[i] < best_e - 1e-15:
            best_e = float(E[i])
            best_bits = X[i]
    return best_bits, best_e


def brute_force_minimum(p: MinimizationProblem) -> tuple[CellSet, float]:
    """Exhaustive minimum over all competitors on the window.

    Ties break toward the lexicographically smallest bitmask (free cells
    in C order, first cell most significant).
    """
    cond = _Condensed(p)
    if cond.m == 0:
        E = CellSet(p.window.spec, p.exterior_data.inside, p.exterior_data.exterior)
        return E, perimeter(E, p.window, p.table).total
    bits, best = _exhaustive_minimum(cond)
    return cond.set_from(bits), best


# ---------------------------------------------------------------------------
# Competitor-class equivalence.
# ---------------------------------------------------------------------------


def _is_minimal_on(E: CellSet, window: DomainWindow, table: InteractionTable,
                   rel_tol: float = 1e-9) -> bool:
    """Whether E attains the exhaustive minimum on the given window."""
    cond = _Condensed(MinimizationProblem(window, E, table))
    if cond.m == 0:
        return True
    _, best = _exhaustive_minimum(cond)
    own = float(cond.energies_binary(E.inside[window.omega][None, :])[0])
    return own <= best + rel_tol * (1.0 + abs(best))


def check_minimality_equivalence(E: CellSet, window: DomainWindow,
                                 table: InteractionTable) -> EquivalenceReport:
    """Minimality of E within three competitor classes.

    (i) all competitors agreeing with E outside the window; (ii)
    competitors differing only on cells strictly interior to the window
    (signed distance < -h); (iii) minimality on every shrunken window at
    depth k*h, k >= 1.  Classes (ii)/(iii) are vacuously true (and
    flagged degenerate) when no strictly interior cells exist.
    """
    spec = window.spec
    global_ok = _is_minimal_on(E, window, table)

    sd = signed_distance(window).values
    h = spec.h
    interior = window.omega & (sd < -h)
    degenerate = not interior.any()
    if degenerate:
        return EquivalenceReport(global_ok, True, True, True)
    compact_win = DomainWindow(spec, interior, window.complement_policy)
    compact_ok = _is_minimal_on(E, compact_win, table)

    local_ok = True
    k = 1
    while True:
        shrunk = window.omega & (sd < -k * h)
        if not shrunk.any():
            break
        sub = DomainWindow(spec, shrunk, window.complement_policy)
        if not _is_minimal_on(E, sub, table):
            local_ok = False
            break
        k += 1
    return EquivalenceReport(global_ok, compact_ok, local_ok, False)


# ---------------------------------------------------------------------------
# Exhaustion over nested windows.
# ---------------------------------------------------------------------------


def solve_locally_minimal(p: MinimizationProblem, window_schedule,
                          tol: float = 1e-9,
                          max_iter: int = 5000) -> list[SolverReport]:
    """Solve on an increasing exhaustion of windows, chaining the data.

    Each step minimizes on its window with exterior data equal to the
    previous step's minimizer (initially the problem's exterior data);
    the final minimizer is the locally-minimal candidate.
    """
    windows = list(window_schedule)
    if not windows:
        raise InvalidSchedule("window schedule must be nonempty")
    prev = None
    for w in windows:
        if prev is not None and np.any(prev.omega & ~w.omega):
            raise NotNested("window schedule must be nested increasing")
        prev = w
    candidate = p.exterior_data
    reports = []
    for w in windows:
        prob = MinimizationProblem(w, candidate, p.table)
        rep = solve_and_threshold(prob, tol=tol, max_iter=max_iter)
        candidate = rep.minimizer
        reports.append(rep)
    return reports
