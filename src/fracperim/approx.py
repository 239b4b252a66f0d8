"""Mollification, superlevel-set extraction and set-approximation pipelines.

A binary set is relaxed by convolution with a normalized polynomial bump,
then recovered by thresholding at the level whose superlevel set best
matches the original perimeter.  A variant first multiplies by a cut-off
vanishing near the window boundary, which trades a little boundary
accuracy for convergence on windows whose closure meets the set.

Mollification is an FFT convolution on the box padded by the bump's
reach, its pad filled by the exterior model (``_ladder_fields``, through
``functional._even_spectra`` and ``functional._convolve``, the pair
fields' transform; this module touches no FFT itself).  A ladder
mollifies every rung in one batched pass padded by its largest reach:
one forward transform of the indicator (one per rung under the cut-off,
which changes with eps), times each rung's bump spectrum, and one
batched inverse; ``mollify`` is its one-radius case.  The spectra are
kept on the table's engine by (eps, FFT grid), so a warm ladder samples
no bump.

The superlevel sets of one rung are nested, so a single scan gives the
local and nonlocal perimeter at all 99 grid thresholds: the two box
correlations of the smallest set, the row totals 1 (*) w and the
exterior fields (kept on the engine), 1_Omega (*) w, and the weights
among the switching cells S, gathered by flat offset in value order
(``functional._ordered_pair_blocks``, the relaxed energy's blocks).
After the mollify pass, one batched correlation gives the target set's
two fields, every rung's smallest set's two and 1_Omega (*) w when the
window is not the box.  So a warm ladder makes two forward transforms
whatever its number of rungs, plus each rung's S x S weights, and calls
no ``perimeter``: the target's breakdown is ``_perimeter_sums`` of its
fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EpsilonBelowResolution, InvalidRadius, InvalidSchedule, SpecMismatch
from .functional import (
    InteractionTable,
    PerimeterBreakdown,
    _convolve,
    _engine_for,
    _even_spectra,
    _fast_len,
    _ordered_pair_blocks,
    _perimeter_sums,
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
    """Radial polynomial bump of support radius ``eps``, 0 < eps < inf.

    The profile is (1 - (r/eps)^2)^4 inside the support, zero outside;
    sampled values are renormalized so the discrete kernel sums to one.
    """

    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps < math.inf:
            raise InvalidRadius(f"mollifier eps must be positive and finite, got {self.eps}")

    def reach(self, spec: GridSpec) -> int:
        """Cells the bump reaches from its centre along each axis."""
        if self.eps < spec.h:
            raise EpsilonBelowResolution(
                f"eps {self.eps} below grid resolution h {spec.h}"
            )
        return int(math.ceil(self.eps / spec.h))

    def sampled(self, spec: GridSpec) -> np.ndarray:
        """Kernel sampled at cell-center offsets, normalized to unit sum."""
        reach = self.reach(spec)
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
    data (in particular deep inside / outside a set).  The one-radius
    case of a ladder's pass (``_ladder_fields``): one FFT round trip on
    the box padded by the bump's reach, with the spectrum made afresh.
    """
    return _ladder_fields(u, [m], None, {})[0]


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
    exterior fields X_E and X_C of the sets' exterior model and the row
    totals 1 (*) w, kept on the engine and made by no transform, so
    building a scan transforms nothing.  ``exterior`` is the set's
    exterior model, which every superlevel set of a rung shares.  Every
    correlation runs on the box, and ``totals`` gives local and nonlocal
    apart, so a rung needs no ``perimeter``.
    """

    def __init__(self, window: DomainWindow, table: InteractionTable, exterior):
        eng = _engine_for(window, table)
        self.window = window
        self.engine = eng
        self.x_e, self.x_c = eng.exterior_fields(exterior)
        self.row_box = eng.row_totals()
        self.row_all = self.row_box + self.x_e + self.x_c

    def totals(self, us: list[ScalarField], *masks: np.ndarray
               ) -> tuple[list[np.ndarray], list[tuple[np.ndarray, np.ndarray]]]:
        """(the fields of ``masks``, per field u of ``us`` the (local,
        nonlocal) perimeter of {u > t} at each grid threshold t).

        The sets are nested: each is the smallest, x0 = {u > 0.99}, plus a
        prefix of the switching cells S (0.01 < u <= 0.99) sorted by
        decreasing u.  The base is x0's ``_perimeter_sums``, and the gains
        split the same way.  Adding cell a to X = x0 plus the cells of S
        before a adds row_om - 2 f_in, local for a in Omega and nonlocal
        outside, and for a in Omega row_all - row_om - 2 f_out to
        nonlocal: f_in and f_out are the fields of X inside and outside
        Omega, x0's (the exterior's included) plus the earlier S x S
        weights by side, and row_om = 1_Omega (*) w.  One batched
        correlation takes ``masks``, every x0's two masks and, when the
        window is not the box, 1_Omega (*) w (the row totals serve for a
        full window).
        """
        om = self.window.omega
        tops = [superlevel(u, float(_THRESHOLD_GRID[-1])).inside for u in us]
        rows = () if om.all() else (om,)
        fields = self.engine.fields(*masks, *rows,
                                    *[m for top in tops for m in (top & om, top & ~om)])
        k = len(masks) + len(rows)
        row_om = fields[k - 1] if rows else self.row_box
        return fields[:len(masks)], [
            self._scan(u, top, f_in, f_out, row_om)
            for u, top, f_in, f_out in zip(us, tops, fields[k::2], fields[k + 1::2])]

    def _scan(self, u: ScalarField, inside: np.ndarray, f_in: np.ndarray,
              f_out: np.ndarray, row_om: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``totals`` of one field, given x0 = ``inside``, its fields and
        1_Omega (*) w."""
        om = self.window.omega
        base = np.array(_perimeter_sums(inside, om, f_in, f_out, self.x_e, self.x_c))

        switch = (u.values > _THRESHOLD_GRID[0]) & ~inside
        order = np.argsort(-u.values[switch], kind="stable")
        cells = np.argwhere(switch)[order]
        vals = u.values[switch][order]
        idx = tuple(cells.T)
        in_om = om[idx]
        r_om, r_out = _earlier_pair_sums(cells, in_om, self.engine.table).T
        row_om = row_om[idx]
        cut = row_om - 2.0 * (f_in[idx] + r_om)
        f_out = f_out[idx] + self.x_e[idx]
        gains = np.cumsum([np.where(in_om, cut, 0.0),
                           np.where(in_om, self.row_all[idx] - row_om
                                    - 2.0 * (f_out + r_out), cut)], axis=1)
        prefix = np.concatenate((np.zeros((2, 1)), gains), axis=1)
        # {u > t} takes the cells of S with u > t, a prefix of the order
        return tuple(base[:, None] + prefix[:, np.searchsorted(-vals, -_THRESHOLD_GRID)])


def _earlier_pair_sums(cells: np.ndarray, in_om: np.ndarray,
                       table: InteractionTable) -> np.ndarray:
    """Per cell a of ``cells``, the sums of w(b - a) over the cells b
    listed before it in the window and outside it: two columns.

    Every cell is a row of ``functional._ordered_pair_blocks``, whose
    weights are then those of the earlier cells, and each row chunk takes
    one product with [1_Omega, 1_not Omega].
    """
    sides = np.stack([in_om, ~in_om], axis=1).astype(float)
    out = np.empty((len(cells), 2))
    for lo, hi, w, cols in _ordered_pair_blocks(cells, table):
        out[lo:hi] = w @ sides[cols]
    return out


def _pick_threshold(us: list[ScalarField], totals, target: float,
                    scan: _ThresholdScan) -> list[tuple[float, CellSet, PerimeterBreakdown]]:
    """Per field of ``us``, the threshold whose superlevel perimeter is
    closest to the target, with that superlevel set and its perimeter.

    ``totals`` are the fields' (local, nonlocal) at every grid threshold
    (``_ThresholdScan.totals``), so the chosen set's breakdown is read
    off the scan with its truncation bound from the shared engine.  Ties
    break toward t = 1/2, then toward the first grid threshold.
    """
    om = scan.window.omega
    picks = []
    for u, (local, nonlocal_) in zip(us, totals):
        sums = local + nonlocal_
        k = np.lexsort((np.abs(_THRESHOLD_GRID - 0.5), np.abs(sums - target)))[0]
        t = float(_THRESHOLD_GRID[k])
        sup = superlevel(u, t)
        picks.append((t, sup, PerimeterBreakdown(
            float(local[k]), float(nonlocal_[k]), float(sums[k]),
            scan.engine.truncation_bound(om, sup), not om.any())))
    return picks


def _validate_schedule(eps_schedule, h: float) -> list[float]:
    eps = [float(e) for e in eps_schedule]
    if any(b > a for a, b in zip(eps, eps[1:])):
        raise InvalidSchedule("eps schedule must be non-increasing")
    if any(e < h for e in eps):
        raise EpsilonBelowResolution("eps values must be >= h")
    return eps


def _ladder_fields(E: CellSet | ScalarField, bumps: list[MollifierSpec],
                   wdist: np.ndarray | None, cache: dict) -> list[ScalarField]:
    """Every rung's mollified field of E (a cell set or a field), from one
    batched FFT pass (``functional._convolve``) on the box padded by the
    largest reach, its pad filled by the exterior model.

    Without a cut-off every rung mollifies E, one forward transform; with
    one, rung eps mollifies E less its cells within 2 eps of the window
    boundary, one batched forward transform.  On a grid of N >= n + 2 pad
    cells per axis the circular convolution of a box cell sees only
    offsets within the reach, so it is the linear one.  ``cache`` keeps
    the bump spectra by (eps, FFT grid), and the missing ones share one
    ``functional._even_spectra`` transform.
    """
    field = _as_field(E)
    spec = field.spec
    pad = max(m.reach(spec) for m in bumps)
    padded = field.values_on(spec.padded(pad))
    box = tuple(slice(pad, pad + n) for n in spec.extent)
    if wdist is not None:
        keep = np.ones((len(bumps),) + padded.shape)
        keep[(slice(None),) + box] = [wdist >= 2.0 * m.eps for m in bumps]
        padded = padded * keep
    fast = tuple(_fast_len(n) for n in padded.shape[-spec.dim:])
    missing = [m for m in dict.fromkeys(bumps) if (m.eps, fast) not in cache]
    if missing:
        spectra = _even_spectra([m.sampled(spec) for m in missing], fast)
        cache.update(((m.eps, fast), sp) for m, sp in zip(missing, spectra))
    spectra = np.array([cache[m.eps, fast] for m in bumps])
    return [ScalarField(spec, v, field.exterior)
            for v in _convolve(padded, spectra, fast, box)]


def _ladder(E: CellSet, window: DomainWindow, eps_schedule, table: InteractionTable,
            wdist: np.ndarray | None) -> list[ApproxStep]:
    """The rung loop of both ladders.

    ``wdist`` (distance to the window boundary, or None) switches on the
    cut-off: E's cells within 2 eps of the window boundary are dropped
    before mollifying, and boundary cells within 3 eps of it are exempt
    from the containment check.  The rungs' fields come from one FFT pass
    (``_ladder_fields``, with the bump spectra kept on the engine).  Then
    one batched correlation gives E's two fields, for the target
    perimeter (``_perimeter_sums``), and every rung's base sets
    (``_ThresholdScan.totals``).
    """
    bumps = [MollifierSpec(e) for e in _validate_schedule(eps_schedule, E.spec.h)]
    if E.spec != window.spec:
        raise SpecMismatch("cell set and window specs differ")
    scan = _ThresholdScan(window, table, E.exterior)
    if not bumps:
        return []
    bdist = _boundary_distance(E)
    us = _ladder_fields(E, bumps, wdist, scan.engine.bumps)
    om, inside = window.omega, E.inside
    (f_in, f_out), totals = scan.totals(us, inside & om, inside & ~om)
    target = sum(_perimeter_sums(inside, om, f_in, f_out, scan.x_e, scan.x_c))
    steps = []
    for m, (t_star, approx, bd) in zip(bumps, _pick_threshold(us, totals, target, scan)):
        exclude = None if wdist is None else (wdist < 3.0 * m.eps)
        contained = _containment(approx, bdist, m.eps, exclude=exclude)
        steps.append(ApproxStep(m.eps, t_star, approx, bd, contained))
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
