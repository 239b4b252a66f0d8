"""Minimization of the s-perimeter with prescribed exterior data.

The perimeter restricted to competitors that agree with the exterior data
outside the window is an affine-plus-pairwise function of the free cell
values with nonnegative weights, so it is a cut function (Kolmogorov-Zabih,
TPAMI 2004): an s-t minimum cut minimizes it exactly, and the cut's 0/1
indicator also minimizes its convex [0,1] relaxation (Chambolle-Darbon,
IJCV 2009).  The cut first fixes the cells whose bias outweighs their
ties to the other open cells, which take the same value in every
minimizer, then runs a dense NumPy push-relabel maximum flow on float
capacities over the cells left open; its pulses are 0 when the data decide
every cell.  The flow plus the fixed part's energy certifies the cut's gap
to the minimum.
An exhaustive oracle guards correctness up to 24 free cells: it splits
the cells into two halves, tabulates each half's energy over its 2^(m/2)
vectors and adds the cross term by one GEMM per chunk of rows.

A problem builds its condensed energy once, on first use, and the solve,
the thresholding and the oracle all read it.  A sub-window's energy is a
fold of the window's: its cells outside the sub-window are held at the
data's values and enter the kept cells' linear terms, as the cut's fixed
cells do.  So the equivalence check builds one energy, for the window,
and folds every window it tests out of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidSchedule, InvalidTolerance, NotNested, OracleTooLarge, SpecMismatch
from .functional import _engine_for, perimeter
from .grid import CellSet, DomainWindow, ScalarField, signed_distance
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
# energies per chunk of the exhaustive oracle (8 MB of float64)
_ORACLE_CHUNK = 1 << 20
# pulses between the push-relabel solver's global relabels
_RELABEL_EVERY = 8


@dataclass(frozen=True)
class MinimizationProblem:
    """Window, exterior data and kernel table defining one instance.

    Competitors agree with ``exterior_data`` on every cell outside the
    window; the window cells are the free variables, so the data must lie
    on the window's grid (else SpecMismatch).  The condensed energy is
    built on first use and kept with the problem.
    """

    window: DomainWindow
    exterior_data: CellSet
    table: InteractionTable

    def __post_init__(self):
        if self.exterior_data.spec != self.window.spec:
            raise SpecMismatch("exterior data and window specs differ")

    @property
    def n_free(self) -> int:
        return int(self.window.omega.sum())

    @cached_property
    def _condensed(self) -> _Condensed:
        return _Condensed(self)


@dataclass(frozen=True)
class SolverReport:
    """Outcome of a solve, with the minimizer's energy recomputed
    independently.

    ``gap`` bounds how far the condensed energy of the minimizer lies
    above the minimum (nan when no dual bound is known); ``iterations``
    counts the push-relabel solver's pulses (one simultaneous push from
    every active node, then a relabel) on the cells the data leave open,
    0 when the data decide every cell.
    """

    relaxed_energy: float
    threshold: float
    minimizer: CellSet
    energy: float
    iterations: int
    gap: float


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
    fixed part of E (of its complement): the fixed box cells' field plus
    the exterior field X_E (X_C), exact in 1D by the lattice rule.  It
    keeps the problem's window and exterior data, not the problem, which
    keeps it.
    """

    def __init__(self, p: MinimizationProblem):
        self.window = p.window
        self.exterior_data = p.exterior_data
        table = p.table
        eng = _engine_for(p.window, table)
        om = p.window.omega
        inside = p.exterior_data.inside
        self.free_idx = np.argwhere(om)  # (m, dim) on the box
        self.m = len(self.free_idx)

        # pairwise weights between free cells, W_ab = w(idx_b - idx_a)
        self.W = table.pairs(self.free_idx, self.free_idx)

        # linear terms: interaction with the fixed box cells, by box
        # correlations, plus the exterior's fields
        x_e, x_c = eng.exterior_fields(p.exterior_data.exterior)
        f_e, f_c = eng.fields(inside & ~om, ~inside & ~om)
        self.p = (f_e + x_e)[om]
        self.q = (f_c + x_c)[om]

    def energy(self, x: np.ndarray) -> float:
        """F(x) at a point x of [0, 1]^m."""
        pair = 0.5 * float(np.sum(self.W * np.abs(x[:, None] - x[None, :])))
        return pair + float(self.p @ (1.0 - x) + self.q @ x)

    def energies_binary(self, X: np.ndarray) -> np.ndarray:
        """Vectorized energy of a batch of binary assignments (B, m)."""
        X = X.astype(float)
        r = self.W.sum(axis=1)
        quad = np.einsum("bi,bi->b", X @ self.W, X)
        return float(self.p.sum()) + X @ (self.q - self.p + r) - quad

    def set_from(self, x_binary: np.ndarray) -> CellSet:
        inside = self.exterior_data.inside.copy()
        inside[self.window.omega] = x_binary.astype(bool)
        return CellSet(self.window.spec, inside, self.exterior_data.exterior)

    def fold(self, window: DomainWindow) -> _Condensed:
        """The energy on a window within this one, with the same data.

        The cells of this window outside ``window`` are held at the data's
        values x: with ``keep`` the kept cells, W' = W[keep, keep],
        p' = p[keep] + W[keep, ~keep] x and q' = q[keep] + W[keep, ~keep]
        (1 - x).  The held cells' own terms are a constant, which a build
        for ``window`` leaves out as well.  Keeping every cell gives this
        energy itself.
        """
        om = self.window.omega
        keep = window.omega[om]
        if keep.all():
            return self
        x = self.exterior_data.inside[om][~keep].astype(float)
        rows = self.W[keep]
        cross = rows[:, ~keep]
        sub = object.__new__(_Condensed)
        sub.window, sub.exterior_data = window, self.exterior_data
        sub.free_idx = self.free_idx[keep]
        sub.m = len(sub.free_idx)
        sub.W = rows[:, keep]
        sub.p = self.p[keep] + cross @ x
        sub.q = self.q[keep] + cross @ (1.0 - x)
        return sub


# ---------------------------------------------------------------------------
# Exact solve by minimum cut, and thresholding.
# ---------------------------------------------------------------------------


def _min_cut(W: np.ndarray, p: np.ndarray, q: np.ndarray,
             tol: float) -> tuple[np.ndarray, float, int]:
    """Minimize sum_{a<b} W_ab |x_a - x_b| + sum_a p_a (1 - x_a) + q_a x_a
    over x in {0,1}^m; W, p, q >= 0, W symmetric.  Reduce, then push.

    A cell whose bias outweighs its ties to the other open cells takes
    the same value in every minimizer (persistency; Hammer-Hansen-Simeone,
    Math. Programming 1984): with r_a = sum_{b open} W_ab, x_a = 1 where
    p_a > q_a + r_a + margin and x_a = 0 where q_a > p_a + r_a + margin.
    A fixed cell folds into the open cells' linear terms (one at 1 adds
    W_ab to p_b, one at 0 adds W_ab to q_b), and the rounds repeat until
    none fixes a cell.  The margin, m 2^-48 times the largest node
    capacity p_a + q_a + sum_b W_ab, exceeds the rounding error of the
    folded sums, so the fixed cells agree with every minimizer, the
    inclusion-minimal one included.  ``_push_relabel`` cuts the open
    cells that remain, if any; the returned flow adds the fixed part's
    energy c to the remainder's flow, so it stays a lower bound on the
    minimum, and ``tol`` compares the whole problem's gap with
    tol (1 + |energy|).  Returns (bits, flow, pulses): pulses count the
    flow on the open cells only, 0 when the data decide every cell.
    """
    m = len(p)
    r = W.sum(axis=1)
    margin = m * 2.0**-48 * float((p + q + r).max(initial=0.0))
    fixed = np.zeros((m, 2))  # indicators of the cells fixed at 1, at 0
    p_open, q_open = p.copy(), q.copy()
    is_open = np.ones(m, dtype=bool)
    while True:
        one = is_open & (p_open > q_open + r + margin)
        zero = is_open & (q_open > p_open + r + margin)
        new = one | zero
        if not new.any():
            break
        fixed[one, 0] = fixed[zero, 1] = 1.0
        fold = W[:, new] @ fixed[new]
        p_open += fold[:, 0]
        q_open += fold[:, 1]
        r -= fold[:, 0] + fold[:, 1]
        is_open &= ~new
    bits = fixed[:, 0] > 0.0
    c = float(p_open @ fixed[:, 1] + q @ fixed[:, 0])
    idx = np.flatnonzero(is_open)
    if not len(idx):
        return bits, c, 0
    sub, flow, pulses = _push_relabel(W[np.ix_(idx, idx)], p_open[idx],
                                      q_open[idx], tol, c)
    bits[idx] = sub
    return bits, c + flow, pulses


def _push_relabel(W: np.ndarray, p: np.ndarray, q: np.ndarray, tol: float,
                  c: float) -> tuple[np.ndarray, float, int]:
    """The minimum cut of ``_min_cut``'s energy plus the constant c, with
    no cell fixed in advance.

    Nodes are the m cells, a source (the side x = 1) and a sink; edges are
    source -> a (p_a), a -> sink (q_a) and a <-> b (W_ab).  A maximum flow
    is found by push-relabel (Goldberg-Tarjan, JACM 1988) on the dense
    float residual, one pulse at a time: every active node (excess above
    C_max 2^-52) pushes at once, filling its admissible edges in column
    order up to its excess, and the nodes still active are relabelled.
    Every ``_RELABEL_EVERY`` pulses a global relabel sets the exact
    distances to the sink, or to the source for nodes cut off from the
    sink.  Residuals at most C_max 2^-52 count as saturated.

    The sink's inflow is a lower bound on the minimum, so the energy of any
    cut minus the flow is a certified gap.  The cut is the set reachable
    from the source in the final residual: the inclusion-minimal minimizer.
    With tol > 0 the solve may stop at a global relabel, once that set's
    gap is at most tol (1 + |c + energy|).  Returns (bits, flow, pulses),
    the flow without c.
    """
    m = len(p)
    n = m + 2
    s, t = m, m + 1
    residual = np.zeros((n, n))
    residual[:m, :m] = W
    residual[:m, t] = q
    residual[:m, s] = p  # the source edges start saturated
    excess = np.zeros(n)
    excess[:m] = p
    eps = float(residual.max(initial=0.0)) * 2.0**-52
    if not eps > 0.0:
        return np.zeros(m, dtype=bool), 0.0, 0

    def exact_labels():
        # distance to the sink, else n plus the distance back to the source
        back = (residual > eps).T
        to_t, to_s = _layers(back, t), _layers(back, s)
        return np.where(to_t >= 0, to_t, np.where(to_s >= 0, n + to_s, 2 * n))

    label = exact_labels()
    pulses = 0
    while True:
        active = np.flatnonzero((excess[:m] > eps) & (label[:m] < 2 * n))
        if not len(active):
            break
        pulses += 1
        rows = residual[active]
        ex = excess[active]
        cap = np.where((rows > eps) & (label[active, None] == label + 1), rows, 0.0)
        filled = np.cumsum(cap, axis=1)
        push = np.clip(ex[:, None] - (filled - cap), 0.0, cap)
        residual[active] = rows - push
        residual[:, active] += push.T
        excess[active] = np.where(filled[:, -1] < ex, ex - filled[:, -1], 0.0)
        excess += push.sum(axis=0)
        if pulses % _RELABEL_EVERY:
            stuck = active[excess[active] > eps]
            lowest = np.where(residual[stuck] > eps, label, 2 * n).min(axis=1)
            label[stuck] = np.minimum(lowest + 1, 2 * n)
            continue
        label = exact_labels()
        if tol > 0.0:
            bits = _layers(residual > eps, s)[:m] >= 0
            x = bits.astype(float)
            energy = float(p.sum() + x @ (q - p) + x @ W @ (1.0 - x))
            if energy - excess[t] <= tol * (1.0 + abs(c + energy)):
                return bits, float(excess[t]), pulses
    return _layers(residual > eps, s)[:m] >= 0, float(excess[t]), pulses


def _layers(adj: np.ndarray, root: int) -> np.ndarray:
    """Breadth-first depth of every node from ``root`` along the True
    entries of the dense adjacency ``adj`` (row to column), -1 where
    unreached; one frontier sweep per layer."""
    depth = np.full(len(adj), -1)
    depth[root] = 0
    frontier = depth == 0
    k = 0
    while frontier.any():
        k += 1
        frontier = adj[frontier].any(axis=0) & (depth < 0)
        depth[frontier] = k
    return depth


def _check_tol(tol: float) -> None:
    """A tolerance is a number >= 0 (inf included), else InvalidTolerance."""
    if not tol >= 0.0:
        raise InvalidTolerance(f"tolerance must be >= 0, got {tol}")


def solve_relaxed(p: MinimizationProblem, tol: float = 1e-9) -> ScalarField:
    """Minimizer of the relaxed convex energy: the 0/1 indicator of the
    minimum cut (``tol`` as in ``solve_and_threshold``)."""
    _check_tol(tol)
    cond = p._condensed
    bits, _, _ = _min_cut(cond.W, cond.p, cond.q, tol)
    E = cond.set_from(bits)
    return ScalarField(p.window.spec, E.inside.astype(float), E.exterior)


def threshold_minimizer(u: ScalarField, p: MinimizationProblem) -> SolverReport:
    """Best superlevel set of a relaxed field, with independent recompute.

    Scans thresholds between consecutive distinct free values (plus both
    extremes); by the coarea identity the best superlevel energy never
    exceeds the relaxed energy.  Ties break toward the lexicographically
    smallest bitmask.  An arbitrary field carries no dual bound, so the
    reported ``gap`` is nan; no solver runs, so ``iterations`` is 0.
    """
    cond = p._condensed
    if cond.m == 0:
        E = cond.set_from(np.zeros(0, dtype=bool))
        e = perimeter(E, p.window, p.table).total
        return SolverReport(e, 0.5, E, e, 0, math.nan)
    x = np.clip(u.values[p.window.omega], 0.0, 1.0)
    relaxed = cond.energy(x)
    vals = np.unique(x)
    cuts = np.concatenate(([vals[0] - 1.0], 0.5 * (vals[:-1] + vals[1:]), [vals[-1] + 1.0]))
    bits = x[None, :] > cuts[:, None]
    e = cond.energies_binary(bits)
    best = 0  # the sets shrink as the cut rises: a tie's latest is lexicographically smallest
    for k in range(1, len(cuts)):
        if e[k] <= e[best] + 1e-12:
            best = k
    minimizer = cond.set_from(bits[best])
    energy = perimeter(minimizer, p.window, p.table).total
    return SolverReport(relaxed, float(np.clip(cuts[best], 0.0, 1.0)), minimizer, energy, 0,
                        math.nan)


def solve_and_threshold(p: MinimizationProblem, tol: float = 1e-9) -> SolverReport:
    """Exact minimizer by an s-t minimum cut, with a certified gap.

    Push-relabel pulses run until the flow is maximal, or until a global
    relabel finds a cut whose gap is at most ``tol`` (1 + |energy|);
    ``tol=0`` runs the flow to completion; NaN or tol < 0 raises
    InvalidTolerance.  The cut is 0/1, so any threshold in [0, 1)
    reproduces it; 0.5 is reported.
    """
    _check_tol(tol)
    cond = p._condensed
    bits, flow, pulses = _min_cut(cond.W, cond.p, cond.q, tol)
    relaxed = float(cond.energies_binary(bits[None, :])[0])
    minimizer = cond.set_from(bits)
    energy = perimeter(minimizer, p.window, p.table).total
    return SolverReport(relaxed, 0.5, minimizer, energy, pulses, relaxed - flow)


# ---------------------------------------------------------------------------
# Exhaustive oracle.
# ---------------------------------------------------------------------------


def _half_vectors(k: int) -> np.ndarray:
    """All 2^k binary vectors of length k as float rows, first cell most
    significant, so row order is lexicographic bit order."""
    shifts = np.arange(k - 1, -1, -1)
    return ((np.arange(1 << k)[:, None] >> shifts) & 1).astype(float)


def brute_force_minimum(p: MinimizationProblem) -> tuple[CellSet, float]:
    """Exhaustive minimum over all competitors on the window.

    Meet in the middle (Horowitz-Sahni, JACM 1974): the free cells split
    into a high half H (the first ceil(m/2) in C order) and a low half L.
    With c = q - p + W 1 the energy of x = (x_H, x_L) is
    sum p + a_H(x_H) + a_L(x_L) - 2 x_H^T W_HL x_L, where
    a_H(x_H) = x_H . c_H - x_H^T W_HH x_H and a_L likewise; both are
    tabulated once over their 2^|H| and 2^|L| half-vectors, with the
    constant sum p carried by a_H.  The cross term costs one GEMM per
    chunk of H rows against B = 2 W_HL X_L^T, about ``_ORACLE_CHUNK``
    energies at a time.

    Ties break toward the lexicographically smallest bitmask (free cells
    in C order, first cell most significant): row-major order over
    (H, L) is that order, a chunk keeps its first exact argmin, and a
    later chunk replaces the best only when lower by more than 1e-15.
    """
    cond = p._condensed
    m = cond.m
    if m > _ORACLE_LIMIT:
        raise OracleTooLarge(f"{m} free cells exceed the oracle limit {_ORACLE_LIMIT}")
    W = cond.W
    c = cond.q - cond.p + W.sum(axis=1)
    h = (m + 1) // 2
    X_H, X_L = _half_vectors(h), _half_vectors(m - h)
    a_H = (float(cond.p.sum()) + X_H @ c[:h]
           - np.einsum("bi,bi->b", X_H @ W[:h, :h], X_H))
    a_L = X_L @ c[h:] - np.einsum("bi,bi->b", X_L @ W[h:, h:], X_L)
    B = 2.0 * W[:h, h:] @ X_L.T
    rows = max(1, _ORACLE_CHUNK // len(X_L))
    best_e = math.inf
    best_bits = None
    # E and X @ B in one buffer that every chunk reuses: a chunk's three
    # temporaries made the allocator trim and re-fault the heap each call
    buf = np.empty((2, min(rows, len(X_H)), len(X_L)))
    for start in range(0, len(X_H), rows):
        X = X_H[start:start + rows]
        E, XB = buf[:, :len(X)]
        np.add(a_H[start:start + rows, None], a_L[None, :], out=E)
        E -= np.matmul(X, B, out=XB)
        i, j = np.unravel_index(int(np.argmin(E)), E.shape)
        if E[i, j] < best_e - 1e-15:
            best_e = float(E[i, j])
            best_bits = np.concatenate([X[i], X_L[j]])
    return cond.set_from(best_bits), best_e


# ---------------------------------------------------------------------------
# Competitor-class equivalence.
# ---------------------------------------------------------------------------


def _attains_minimum(cond: _Condensed, window: DomainWindow,
                     rel_tol: float = 1e-9) -> bool:
    """Whether the data attain the minimum on ``window`` (within cond's),
    by the exact cut of cond's fold (``tol=0`` runs the flow to
    completion); the cut's energy and the data's own are both the fold's."""
    sub = cond.fold(window)
    bits, _, _ = _min_cut(sub.W, sub.p, sub.q, 0.0)
    best = float(sub.energies_binary(bits[None, :])[0])
    own = float(sub.energies_binary(sub.exterior_data.inside[window.omega][None, :])[0])
    return own <= best + rel_tol * (1.0 + abs(best))


def _is_minimal_on(E: CellSet, window: DomainWindow, table: InteractionTable,
                   rel_tol: float = 1e-9) -> bool:
    """Whether E attains the minimum on the given window: one build of the
    window's energy and its fold with every cell kept."""
    return _attains_minimum(_Condensed(MinimizationProblem(window, E, table)), window,
                            rel_tol)


def check_minimality_equivalence(E: CellSet, window: DomainWindow,
                                 table: InteractionTable) -> EquivalenceReport:
    """Minimality of E within three competitor classes.

    (i) all competitors agreeing with E outside the window; (ii)
    competitors differing only on cells strictly interior to the window
    (signed distance < -h); (iii) minimality on every shrunken window at
    depth k*h, k >= 1.  Depth 1 is the window of (ii), so (iii) reuses its
    answer and checks from depth 2 on.  Classes (ii)/(iii) are vacuously
    true (and flagged degenerate) when no strictly interior cells exist.

    The windows are nested, so the window's condensed energy is built
    once and each smaller window's is its fold (``_Condensed.fold``): the
    cells between the two windows held at E's values.
    """
    spec = window.spec
    cond = _Condensed(MinimizationProblem(window, E, table))
    global_ok = _attains_minimum(cond, window)
    if not window.omega.any():
        return EquivalenceReport(global_ok, True, True, True)

    sd = signed_distance(window).values
    h = spec.h
    interior = window.omega & (sd < -h)
    degenerate = not interior.any()
    if degenerate:
        return EquivalenceReport(global_ok, True, True, True)
    compact_win = DomainWindow(spec, interior, window.complement_policy)
    compact_ok = _attains_minimum(cond, compact_win)

    local_ok = compact_ok
    k = 2
    while local_ok:
        shrunk = window.omega & (sd < -k * h)
        if not shrunk.any():
            break
        sub = DomainWindow(spec, shrunk, window.complement_policy)
        local_ok = _attains_minimum(cond, sub)
        k += 1
    return EquivalenceReport(global_ok, compact_ok, local_ok, False)


# ---------------------------------------------------------------------------
# Exhaustion over nested windows.
# ---------------------------------------------------------------------------


def solve_locally_minimal(p: MinimizationProblem, window_schedule,
                          tol: float = 1e-9) -> list[SolverReport]:
    """Solve on an increasing exhaustion of windows, chaining the data.

    Each step minimizes on its window with exterior data equal to the
    previous step's minimizer (initially the problem's exterior data);
    the final minimizer is the locally-minimal candidate.
    """
    windows = list(window_schedule)
    if not windows:
        raise InvalidSchedule("window schedule must be nonempty")
    if any(np.any(a.omega & ~b.omega) for a, b in zip(windows, windows[1:])):
        raise NotNested("window schedule must be nested increasing")
    candidate, reports = p.exterior_data, []
    for w in windows:
        reports.append(solve_and_threshold(MinimizationProblem(w, candidate, p.table), tol=tol))
        candidate = reports[-1].minimizer
    return reports
