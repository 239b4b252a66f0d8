"""Mollification, superlevel-set extraction and set-approximation pipelines.

A binary set is relaxed by convolution with a normalized polynomial bump,
then recovered by thresholding at the level whose superlevel set best
matches the original perimeter.  A variant first multiplies by a cut-off
vanishing near the window boundary, which trades a little boundary
accuracy for convergence on windows whose closure meets the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EpsilonBelowResolution, InvalidSchedule
from .functional import (
    InteractionTable,
    PairEngine,
    PerimeterBreakdown,
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
    profile: str = "PolynomialBump"

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.profile != "PolynomialBump":
            raise ValueError(f"unknown mollifier profile {self.profile!r}")

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


def _pick_threshold(u: ScalarField, target: float, window: DomainWindow,
                    engine: PairEngine) -> tuple[float, CellSet, PerimeterBreakdown]:
    """Threshold whose superlevel perimeter is closest to the target, with
    that superlevel set and its perimeter.

    Distinct thresholds produce only finitely many sets, so the scan
    groups the 99-point grid by resulting bitmask; ties break toward
    t = 1/2.  Every perimeter of the scan shares ``engine``.
    """
    best = None
    seen = {}
    for t in _THRESHOLD_GRID:
        sup = superlevel(u, float(t))
        key = sup.inside.tobytes()
        if key not in seen:
            seen[key] = perimeter(sup, window, engine.table, engine=engine)
        bd = seen[key]
        cand = (abs(bd.total - target), abs(t - 0.5), float(t), sup, bd)
        if best is None or (cand[0], cand[1]) < (best[0], best[1]):
            best = cand
    return best[2], best[3], best[4]


def _validate_schedule(eps_schedule, h: float) -> list[float]:
    eps = [float(e) for e in eps_schedule]
    if any(b > a for a, b in zip(eps, eps[1:])):
        raise InvalidSchedule("eps schedule must be non-increasing")
    if any(e < h for e in eps):
        raise EpsilonBelowResolution("eps values must be >= h")
    return eps


def approximate_set(E: CellSet, window: DomainWindow, eps_schedule,
                    table: InteractionTable) -> list[ApproxStep]:
    """Mollify-threshold ladder with strict boundary containment checks.

    For each radius: mollify the indicator, choose the threshold whose
    superlevel perimeter best matches perimeter(E) on the window, and
    verify that every boundary cell of the approximant lies within eps of
    the boundary of E.
    """
    eps_list = _validate_schedule(eps_schedule, E.spec.h)
    eng = PairEngine(window.spec, window.complement_policy, table)
    target = perimeter(E, window, table, engine=eng).total
    bdist = _boundary_distance(E)
    steps = []
    for eps in eps_list:
        u = mollify(E, MollifierSpec(eps))
        t_star, approx, bd = _pick_threshold(u, target, window, eng)
        contained = _containment(approx, bdist, eps, exclude=None)
        steps.append(ApproxStep(eps, t_star, approx, bd, contained))
    return steps


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
    eps_list = _validate_schedule(eps_schedule, E.spec.h)
    eng = PairEngine(window.spec, window.complement_policy, table)
    target = perimeter(E, window, table, engine=eng).total
    bdist = _boundary_distance(E)
    omega = window.omega
    if omega.any() and not omega.all():
        wdist = np.abs(signed_distance(window).values)
    else:
        wdist = None
    steps = []
    for eps in eps_list:
        vals = E.inside.astype(float)
        if wdist is not None:
            vals = vals * (wdist >= 2.0 * eps)
        u0 = ScalarField(E.spec, vals, E.exterior)
        u = mollify(u0, MollifierSpec(eps))
        t_star, approx, bd = _pick_threshold(u, target, window, eng)
        exclude = None if wdist is None else (wdist < 3.0 * eps)
        contained = _containment(approx, bdist, eps, exclude=exclude)
        steps.append(ApproxStep(eps, t_star, approx, bd, contained))
    return steps


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
