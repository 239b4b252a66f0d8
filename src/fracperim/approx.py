"""Mollification, superlevel-set extraction and set-approximation pipelines.

A binary set is relaxed by convolution with a normalized polynomial bump,
then recovered by thresholding at the level whose superlevel set best
matches the original perimeter.  A variant first multiplies by a cut-off
vanishing near the window boundary, which trades a little boundary
accuracy for convergence on windows whose closure meets the set.

The superlevel sets of one rung are nested, so a single scan gives the
local and nonlocal perimeter at all 99 grid thresholds: the two box
correlations of the smallest set, the row totals 1 (*) w and
1_Omega (*) w and the exterior fields (once per ladder) and the weights
among the switching cells S, gathered by flat offset
(``InteractionTable.pairs``).  A rung therefore
costs one batched correlation plus the S x S weights; the ladder's one
``perimeter`` call is its target's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EpsilonBelowResolution, InvalidSchedule
from .functional import (
    InteractionTable,
    PerimeterBreakdown,
    _PAIR_CHUNK,
    _engine_for,
    perimeter,
    superlevel,
)
from .grid import (
    CellSet,
    DomainWindow,
    GridSpec,
    ScalarField,
    signed_distance,
)

__all__ = [
    "MollifierSpec",
    "ApproxStep",
    "mollify",
    "superlevel",
    "approximate_set",
    "approximate_set_lipschitz",
    "boundary_cells",
    "smooth_at_grid_scale",
]


@dataclass(frozen=True)
class MollifierSpec:
    """Radial polynomial bump of support radius ``eps``.

    The profile is (1 - (r/eps)^2)^4 inside the support, zero outside;
    sampled values are renormalized so the discrete kernel sums to one.
    """

    eps: float

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")

    def sampled(self, spec: GridSpec) -> np.ndarray:
        """Kernel sampled at cell-center offsets, normalized to unit sum."""
        if self.eps < spec.h:
            raise EpsilonBelowResolution(
                f"eps {self.eps} below grid resolution h {spec.h}"
            )
        reach = int(math.ceil(self.eps / spec.h))
        axes = [np.arange(-reach, reach + 1) * spec.h for _ in range(spec.dim)]
        grids = np.meshgrid(*axes, indexing="ij")
        r2 = sum(g * g for g in grids) / (self.eps * self.eps)
        vals = np.where(r2 < 1.0, (1.0 - np.minimum(r2, 1.0)) ** 4, 0.0)
        return vals / vals.sum()


def _as_field(u) -> ScalarField:
    if isinstance(u, CellSet):
        return ScalarField(u.spec, u.inside.astype(float), u.exterior)
    return u


def mollify(u, m: MollifierSpec) -> ScalarField:
    """Convolve a field or indicator with the sampled bump kernel.

    Values outside the box are supplied by the exterior model, so the
    output is exact wherever the true convolution only sees grid-aligned
    data (in particular deep inside / outside a set).
    """
    field = _as_field(u)
    spec = field.spec
    kern = m.sampled(spec)
    reach = (kern.shape[0] - 1) // 2
    padded = field.values_on(spec.padded(reach))
    windows = np.lib.stride_tricks.sliding_window_view(padded, kern.shape)
    out = np.tensordot(windows, np.flip(kern), axes=kern.ndim)
    return ScalarField(spec, out, field.exterior)


def boundary_cells(E: CellSet) -> np.ndarray:
    """Cells with a face neighbor of opposite phase (box faces excluded)."""
    inside = E.inside
    out = np.zeros(inside.shape, dtype=bool)
    for a in range(inside.ndim):
        sl_lo = [slice(None)] * inside.ndim
        sl_hi = [slice(None)] * inside.ndim
        sl_lo[a] = slice(None, -1)
        sl_hi[a] = slice(1, None)
        diff = inside[tuple(sl_lo)] != inside[tuple(sl_hi)]
        out[tuple(sl_lo)] |= diff
        out[tuple(sl_hi)] |= diff
    return out


def smooth_at_grid_scale(E: CellSet) -> bool:
    """Grid stand-in for boundary smoothness: no checkerboard 2x2 block."""
    inside = E.inside
    if inside.ndim < 2:
        return True
    for a in range(inside.ndim):
        for b in range(a + 1, inside.ndim):
            sl = [slice(None)] * inside.ndim

            def block(da, db):
                cut = list(sl)
                cut[a] = slice(1, None) if da else slice(None, -1)
                cut[b] = slice(1, None) if db else slice(None, -1)
                return inside[tuple(cut)]

            diag = (block(0, 0) == block(1, 1)) & (block(0, 1) == block(1, 0))
            checker = diag & (block(0, 0) != block(0, 1))
            if checker.any():
                return False
    return True


def _boundary_distance(E: CellSet) -> np.ndarray | None:
    """Unsigned distance from cell centers to the in/out interface of E.

    Returns None when E has no interface inside the closed box (the
    containment check is then vacuous).
    """
    inside = E.inside
    if not inside.any() or inside.all():
        return None
    window = DomainWindow(E.spec, inside)
    return np.abs(signed_distance(window).values)


@dataclass(frozen=True)
class ApproxStep:
    """One rung of the approximation ladder at a fixed mollifier radius."""

    eps: float
    threshold: float
    approximant: CellSet
    breakdown: PerimeterBreakdown
    boundary_in_neighborhood: bool


_THRESHOLD_GRID = np.linspace(0.01, 0.99, 99)


class _ThresholdScan:
    """Per-ladder constants of the threshold scan: the engine, the
    exterior fields X_E and X_C of the sets' exterior model, and the row
    totals 1 (*) w and 1_Omega (*) w over the universe, on the box.
    ``exterior`` is the set's exterior model, which every superlevel set
    of a rung shares.  Every correlation runs on the box, and ``totals``
    gives local and nonlocal apart, so a rung needs no ``perimeter``.
    """

    def __init__(self, window: DomainWindow, table: InteractionTable, exterior):
        eng = _engine_for(window, table)
        self.window = window
        self.engine = eng
        self.x_e, self.x_c = eng.exterior_fields(exterior)
        box = np.ones(window.spec.extent, dtype=bool)
        row_box, self.row_om = eng.fields(box, window.omega)
        self.row_all = row_box + self.x_e + self.x_c

    def totals(self, u: ScalarField) -> tuple[np.ndarray, np.ndarray]:
        """(local, nonlocal) perimeter of {u > t} at each grid threshold t.

        The sets are nested: each is the smallest, x0 = {u > 0.99}, plus a
        prefix of the switching cells S (0.01 < u <= 0.99) sorted by
        decreasing u.  Base and gains split as ``_perimeter_sums`` splits
        a perimeter.  Adding cell a to X = x0 plus the cells of S before a
        adds row_om - 2 f_in, local for a in Omega and nonlocal outside,
        and for a in Omega row_all - row_om - 2 f_out to nonlocal: f_in
        and f_out are the fields of X inside and outside Omega, x0's (the
        exterior's included) plus the earlier S x S weights by side.
        """
        eng = self.engine
        om = self.window.omega
        inside = superlevel(u, float(_THRESHOLD_GRID[-1])).inside
        e_in, c_in = inside & om, ~inside & om
        f_in, f_out = eng.fields(e_in, inside & ~om)
        f_out = f_out + self.x_e
        base = [[float(f_in[c_in].sum())],
                [math.fsum([float(f_in[~inside & ~om].sum()), float(self.x_c[e_in].sum()),
                            float(f_out[c_in].sum())])]]

        switch = (u.values > _THRESHOLD_GRID[0]) & ~inside
        order = np.argsort(-u.values[switch], kind="stable")
        cells = np.argwhere(switch)[order]
        vals = u.values[switch][order]
        idx = tuple(cells.T)
        in_om = om[idx]
        r_om, r_out = _earlier_pair_sums(cells, in_om, eng.table).T
        row_om = self.row_om[idx]
        cut = row_om - 2.0 * (f_in[idx] + r_om)
        gains = np.cumsum([np.where(in_om, cut, 0.0),
                           np.where(in_om, self.row_all[idx] - row_om
                                    - 2.0 * (f_out[idx] + r_out), cut)], axis=1)
        prefix = np.concatenate((np.zeros((2, 1)), gains), axis=1)
        # {u > t} takes the cells of S with u > t, a prefix of the order
        return tuple(base + prefix[:, np.searchsorted(-vals, -_THRESHOLD_GRID)])


@lru_cache(maxsize=1)
def _strictly_lower(size: int) -> np.ndarray:
    """The size x size strictly lower triangle of ones, read-only."""
    tri = np.tri(size, k=-1)
    tri.setflags(write=False)
    return tri


def _earlier_pair_sums(cells: np.ndarray, in_om: np.ndarray,
                       table: InteractionTable) -> np.ndarray:
    """Per cell a of ``cells``, the sums of w(b - a) over the cells b
    listed before it in the window and outside it: two columns.

    Row chunks of about _PAIR_CHUNK pairs, gathered by ``table.pairs``,
    each take one product with [1_Omega, 1_not Omega].
    """
    sides = np.stack([in_om, ~in_om], axis=1).astype(float)
    out = np.empty((len(cells), 2))
    step = max(1, _PAIR_CHUNK // max(1, len(cells)))
    # a chunk's own square is at most isqrt(_PAIR_CHUNK) on a side
    before = _strictly_lower(math.isqrt(_PAIR_CHUNK))  # b strictly before a
    for lo in range(0, len(cells), step):
        hi = lo + step
        w = table.pairs(cells[lo:hi], cells[:hi])
        w[:, lo:] *= before[:len(w), :len(w)]
        out[lo:hi] = w @ sides[:hi]
    return out


def _pick_threshold(u: ScalarField, target: float,
                    scan: _ThresholdScan) -> tuple[float, CellSet, PerimeterBreakdown]:
    """Threshold whose superlevel perimeter is closest to the target, with
    that superlevel set and its perimeter.

    One exact scan over the nested superlevel sets gives the local and
    nonlocal perimeter at every grid threshold (``_ThresholdScan.totals``),
    so a rung costs one batched correlation (x0's two fields) plus the
    S x S weights, and the chosen set's breakdown is read off the scan
    with its truncation bound from the shared engine.  Ties break toward
    t = 1/2, then toward the first grid threshold.
    """
    local, nonlocal_ = scan.totals(u)
    totals = local + nonlocal_
    k = np.lexsort((np.abs(_THRESHOLD_GRID - 0.5), np.abs(totals - target)))[0]
    t = float(_THRESHOLD_GRID[k])
    sup = superlevel(u, t)
    om = scan.window.omega
    return t, sup, PerimeterBreakdown(float(local[k]), float(nonlocal_[k]), float(totals[k]),
                                      scan.engine.truncation_bound(om, sup), not om.any())


def _validate_schedule(eps_schedule, h: float) -> list[float]:
    eps = [float(e) for e in eps_schedule]
    if any(b > a for a, b in zip(eps, eps[1:])):
        raise InvalidSchedule("eps schedule must be non-increasing")
    if any(e < h for e in eps):
        raise EpsilonBelowResolution("eps values must be >= h")
    return eps


def _ladder(E: CellSet, window: DomainWindow, eps_schedule, table: InteractionTable,
            wdist: np.ndarray | None) -> list[ApproxStep]:
    """The rung loop of both ladders.

    ``wdist`` (distance to the window boundary, or None) switches on the
    cut-off: E's cells within 2 eps of the window boundary are dropped
    before mollifying, and boundary cells within 3 eps of it are exempt
    from the containment check.
    """
    eps_list = _validate_schedule(eps_schedule, E.spec.h)
    scan = _ThresholdScan(window, table, E.exterior)
    target = perimeter(E, window, table).total
    bdist = _boundary_distance(E)
    steps = []
    for eps in eps_list:
        vals = E.inside.astype(float)
        if wdist is not None:
            vals = vals * (wdist >= 2.0 * eps)
        u = mollify(ScalarField(E.spec, vals, E.exterior), MollifierSpec(eps))
        t_star, approx, bd = _pick_threshold(u, target, scan)
        exclude = None if wdist is None else (wdist < 3.0 * eps)
        contained = _containment(approx, bdist, eps, exclude=exclude)
        steps.append(ApproxStep(eps, t_star, approx, bd, contained))
    return steps


def approximate_set(E: CellSet, window: DomainWindow, eps_schedule,
                    table: InteractionTable) -> list[ApproxStep]:
    """Mollify-threshold ladder with strict boundary containment checks.

    For each radius: mollify the indicator, choose the threshold whose
    superlevel perimeter best matches perimeter(E) on the window, and
    verify that every boundary cell of the approximant lies within eps of
    the boundary of E.
    """
    return _ladder(E, window, eps_schedule, table, wdist=None)


def approximate_set_lipschitz(E: CellSet, window: DomainWindow, eps_schedule,
                              table: InteractionTable) -> list[ApproxStep]:
    """Variant with a boundary cut-off; containment relaxed near the window.

    The indicator is multiplied by 1 - chi_{|d| < 2 eps} (d the signed
    distance to the window boundary) before mollifying.  The cut edge
    sits at distance 2 eps from the window boundary and mollification
    spreads it by another eps, so boundary cells within 3 eps of the
    window boundary are exempt from the containment check; outside that
    shrinking collar the strict neighborhood containment is enforced.
    """
    omega = window.omega
    wdist = None
    if omega.any() and not omega.all():
        wdist = np.abs(signed_distance(window).values)
    return _ladder(E, window, eps_schedule, table, wdist)


def _containment(approx: CellSet, bdist: np.ndarray | None, eps: float,
                 exclude: np.ndarray | None) -> bool:
    bcells = boundary_cells(approx)
    if exclude is not None:
        bcells = bcells & ~exclude
    if not bcells.any():
        return True
    if bdist is None:
        return False
    return bool(np.all(bdist[bcells] <= eps + 1e-12))
