"""Subgraphs over a base grid inside an infinite vertical cylinder.

The vertical axis is only gridded inside a finite window; beyond the
gridded box a subgraph {t < v} is the lattice half-space {t < farfield},
so the infinite tails enter through closed-form masses rather than
through truncation: the functional module's exact exterior rule
(half-space masses and the one-cell constant) for the perimeter, one
tensor Gauss-Legendre rule over the two base points and the vertical
gap for the divergence scans.  This is what makes divergence
rates and finiteness bounds testable: the tails are the whole story.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfinementUndetermined,
    HypothesisViolated,
    InvalidSequence,
    SpecMismatch,
    WindowTooShort,
)
from .functional import (
    PerimeterBreakdown,
    _breakdown,
    _engine_for,
    _exterior_fields,
    _exterior_parts,
    interaction,
)
from .grid import CellSet, DomainWindow, GridSpec, ScalarField, SubgraphExterior
from .kernel import (
    InteractionTable,
    KernelParams,
    _gauss_legendre,
    build_table,
    unit_ball_volume,
)

__all__ = [
    "SubgraphSet",
    "ScanRow",
    "DavilaRow",
    "truncated_cylinder_perimeter",
    "local_part_bound",
    "nonlocal_divergence_scan",
    "sector_divergence_scan",
    "vertical_confinement_check",
    "graph_area_asymptotics",
    "fit_tail_slope",
    "classical_graph_area",
]

_TAIL_NODES = 32  # Gauss-Legendre nodes per axis of the divergence-scan rule


@dataclass(frozen=True)
class SubgraphSet:
    """Region below the graph of v, gridded inside a vertical window.

    ``heights`` lives on the base grid and equals ``farfield`` outside
    the base box; the ambient set is {(x, t): t < v(x)}.  Columns beyond
    the vertical window (-T, T) are uniformly full below and empty above,
    which requires |v| < T everywhere.
    """

    base_spec: GridSpec
    heights: ScalarField
    vertical_extent: float  # T; window is (-T, T)
    farfield: float = 0.0

    def __post_init__(self):
        if self.heights.spec != self.base_spec:
            raise SpecMismatch("heights field not on the base grid")
        T = self.vertical_extent
        if not T > 0:
            raise ValueError("vertical_extent must be positive")
        cells = 2.0 * T / self.base_spec.h
        if abs(cells - round(cells)) > 1e-9 * cells:
            raise SpecMismatch(f"the vertical window (-{T}, {T}) is {cells} cells, not whole")
        vmax = max(float(np.max(np.abs(self.heights.values))), abs(self.farfield))
        if vmax >= T:
            raise WindowTooShort(
                f"vertical window (-{T}, {T}) does not contain the graph "
                f"(max |v| = {vmax})"
            )

    def ambient_spec(self) -> GridSpec:
        base = self.base_spec
        h = base.h
        nz = int(round(2.0 * self.vertical_extent / h))
        return GridSpec(
            base.dim + 1,
            base.origin + (-self.vertical_extent,),
            base.extent + (nz,),
            h,
        )

    def exterior(self) -> SubgraphExterior:
        return SubgraphExterior(
            self.base_spec,
            tuple(self.heights.values.ravel()),
            self.farfield,
        )

    def cellset(self) -> CellSet:
        spec = self.ambient_spec()
        ext = self.exterior()
        inside = ext.contains(spec.centers()).reshape(spec.extent)
        return CellSet(spec, inside, ext)


# ---------------------------------------------------------------------------
# Truncated-cylinder perimeter.
# ---------------------------------------------------------------------------


def truncated_cylinder_perimeter(E, omega_base: DomainWindow, k: float,
                                 table: InteractionTable) -> PerimeterBreakdown:
    """P_s(E, Omega x (-k, k)) with exact tails.

    Beyond the gridded box a subgraph is the lattice half-space
    {t < farfield} (its complement {t >= farfield}), so the window's mass
    to E and to its complement beyond the box is exact: the exterior rule
    of ``functional._exterior_parts``, closed-form half-space masses
    minus box rectangle sums, with the window's sums by
    ``functional._breakdown``.  Nothing is truncated, so
    ``truncation_error_bound`` is 0 and the total does not depend on the
    vertical box height T.  The table must reach across the box.
    """
    cell = E.cellset() if isinstance(E, SubgraphSet) else E
    spec = cell.spec
    t_lo = spec.box_lo[-1]
    t_hi = spec.box_hi[-1]
    if t_lo > -k - 1.0 + 1e-12 or t_hi < k + 1.0 - 1e-12:
        raise WindowTooShort(
            f"vertical box ({t_lo}, {t_hi}) must cover (-{k + 1}, {k + 1})"
        )
    if omega_base.spec.dim != spec.dim - 1:
        raise SpecMismatch("omega_base dimension must be ambient dim - 1")

    z = spec.axis_centers(-1, np.arange(spec.extent[-1]))
    om = omega_base.omega[..., None] & (np.abs(z) < k)
    eng = _engine_for(DomainWindow(spec, om), table)
    parts = _exterior_parts(spec, cell.exterior, table, None)
    return _breakdown(cell.inside, om, eng, *_exterior_fields(parts, spec.extent), 0.0)


def local_part_bound(omega_base: DomainWindow, k: float,
                     local_truncated: float, s: float) -> float:
    """Explicit finite upper bound on the local part over the full cylinder.

    Assembled from three pieces: the computed local part on the truncated
    cylinder, twice the near-tail interaction bounded by the kernel tail
    mass, and the closed-form far-tail pair integral:

        P^L <= P^L(E, Omega^{k+1}) + 2 (n+1) omega_{n+1} / s (2k+1) |Omega|
             + |Omega|^2 / ((n+s)(n-1+s) (2k+2)^{n-1+s}).
    """
    n = omega_base.spec.dim
    vol = omega_base.n_omega * omega_base.spec.h**n
    term2 = 2.0 * (n + 1) * unit_ball_volume(n + 1) / s * (2.0 * k + 1.0) * vol
    term3 = vol**2 / ((n + s) * (n - 1.0 + s) * (2.0 * k + 2.0) ** (n - 1.0 + s))
    return local_truncated + term2 + term3


# ---------------------------------------------------------------------------
# Divergence scans.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    T: float
    lower_bound: float
    value: float


def _omega_intervals(omega_base: DomainWindow) -> list[tuple[float, float]]:
    """Maximal runs of omega cells as real intervals (1D base only)."""
    spec = omega_base.spec
    if spec.dim != 1:
        raise SpecMismatch("divergence scans support 1D bases only")
    edges = np.flatnonzero(np.diff(np.pad(omega_base.omega.astype(np.int8), 1)))
    o = spec.origin[0]
    h = spec.h
    return [(o + a * h, o + b * h) for a, b in edges.reshape(-1, 2).tolist()]


def _cross_tail_interaction(intervals_a, intervals_b, T: float, s: float) -> float:
    """L_s(A x (-inf,-T), B x (T,inf)) for unions of base intervals.

    The pair integral is int_A int_B K(y - x) over the base; with the
    vertical gap written as g = 2T u^(-2/s),

        K(d) = (8T^2/s) int_0^1 u (1 - u^(2/s)) (d^2 u^(4/s) + 4T^2)^(-(2+s)/2) du.

    K is even and analytic in d (the gap is at least 2T > 0), so one
    tensor Gauss-Legendre rule over x, y and u needs no breakpoints.
    """
    u, w = _gauss_legendre(_TAIL_NODES)

    def nodes(intervals):
        lo, hi = np.asarray(intervals, dtype=float).T
        return (lo[:, None] + np.outer(hi - lo, u)).ravel(), np.outer(hi - lo, w).ravel()

    x, wx = nodes(intervals_a)
    y, wy = nodes(intervals_b)
    d2 = np.subtract.outer(y, x).ravel() ** 2
    r2 = d2[:, None] * u ** (4.0 / s) + 4.0 * T * T  # u^(4/s) (d^2 + g^2)
    profile = w * u * (1.0 - u ** (2.0 / s))
    return 8.0 * T * T / s * float(np.outer(wy, wx).ravel() @ r2 ** (-(2.0 + s) / 2.0) @ profile)


def _scan_common(omega_base: DomainWindow, k: float, T_schedule,
                 params: KernelParams, directions: tuple[int, ...]):
    Ts = [float(T) for T in T_schedule]
    if any(b <= a for a, b in zip(Ts, Ts[1:])):
        raise InvalidSequence("T schedule must be strictly increasing")
    n = omega_base.spec.dim
    s = params.s
    omega = _omega_intervals(omega_base)
    if not omega:
        raise HypothesisViolated("empty base window")
    R = max(abs(omega[0][0]), abs(omega[-1][1]))
    T0 = max(k, R)
    if Ts[0] <= T0:
        raise InvalidSequence(
            f"T schedule must start above T0 = max(k, R) = {T0}"
        )
    vol = sum(b - a for a, b in omega)
    rows = []
    for T in Ts:
        region = []
        if 1 in directions:
            region.append((R, T))
        if -1 in directions:
            region.append((-T, -R))
        value = _cross_tail_interaction(omega, region, T, s)
        frac = len(directions) / 2.0
        lower = (
            vol
            / (2.0 ** ((n + 1 + s) / 2.0) * (n + s) * (n - 1.0 + s))
            * (frac * 2.0 * (T - R))
            / (2.0 * T) ** (n - 1.0 + s)
        )
        rows.append(ScanRow(T=T, lower_bound=lower, value=value))
    return rows


def nonlocal_divergence_scan(v: ScalarField, omega_base: DomainWindow,
                             T_schedule, params: KernelParams) -> list[ScanRow]:
    """Tail interaction L_s(Omega x (-inf,-T), (B_T \\ B_R) x (T, inf)).

    Each row carries the closed-form lower bound; the values grow like
    T^(1-s), which the tail slope fit recovers.  The rows are closed forms
    and quadratures in the exponent s of ``params``; no table is needed.
    """
    if not np.all(np.isfinite(v.values)):
        raise HypothesisViolated("graph heights must be bounded")
    k = float(np.max(np.abs(v.values)))
    if isinstance(v.exterior, (int, float)):
        k = max(k, abs(float(v.exterior)))
    return _scan_common(omega_base, k, T_schedule, params, directions=(-1, 1))


def sector_divergence_scan(u: ScalarField, sector_fraction: float, M: float,
                           omega_base: DomainWindow, T_schedule,
                           params: KernelParams) -> list[ScanRow]:
    """Divergence scan restricted to a fraction of the directions.

    On a 1D base the direction sphere has two points, so the admissible
    fractions are 1 (both rays) and 1/2 (the positive ray).
    """
    if not np.all(np.isfinite(u.values)) or float(np.max(np.abs(u.values))) > M:
        raise HypothesisViolated(f"graph heights must stay within |u| <= {M}")
    if abs(sector_fraction - 1.0) < 1e-12:
        dirs: tuple[int, ...] = (-1, 1)
    elif abs(sector_fraction - 0.5) < 1e-12:
        dirs = (1,)
    else:
        raise HypothesisViolated(
            "1D direction sphere admits sector fractions 1/2 and 1 only"
        )
    return _scan_common(omega_base, float(M), T_schedule, params, directions=dirs)


def fit_tail_slope(rows: list[ScanRow]) -> float:
    """Least-squares log-log slope over the last half of the scan."""
    if len(rows) < 2:
        raise InvalidSequence("need at least two rows to fit a slope")
    tail = rows[len(rows) // 2 :]
    if len(tail) < 2:
        tail = rows[-2:]
    x = np.log([r.T for r in tail])
    y = np.log([r.value for r in tail])
    return float(np.polyfit(x, y, 1)[0])


# ---------------------------------------------------------------------------
# Vertical confinement.
# ---------------------------------------------------------------------------


def vertical_confinement_check(E: CellSet, omega_base: DomainWindow) -> float:
    """Smallest M with Omega x (bottom, -M] inside E and E empty above M.

    Undetermined (window too short) when some column over the base window
    is occupied in its top cell or vacant in its bottom cell.
    """
    spec = E.spec
    if omega_base.spec.extent != spec.extent[:-1]:
        raise SpecMismatch(f"base extent {omega_base.spec.extent} must be the ambient "
                           f"extent less its vertical axis, {spec.extent[:-1]}")
    h = spec.h
    nz = spec.extent[-1]
    cols = E.inside.reshape(-1, nz)
    base_mask = omega_base.omega.ravel()
    sel = cols[base_mask]
    if sel.size == 0:
        return 0.0
    if np.any(sel[:, -1]) or np.any(~sel[:, 0]):
        raise ConfinementUndetermined(
            "sandwich violated at the vertical extremes; enlarge the window"
        )
    z_centers = spec.axis_centers(-1, np.arange(nz))
    m_vals = []
    for col in sel:
        top_e = z_centers[col].max() + 0.5 * h  # highest occupied cell
        bot_c = z_centers[~col].min() - 0.5 * h  # lowest vacancy
        m_vals.append(max(top_e, -bot_c, 0.0))
    return float(max(m_vals))


# ---------------------------------------------------------------------------
# Area asymptotics as s -> 1.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DavilaRow:
    s: float
    h: float
    scaled_local: float  # (1 - s) * P_s^L(Sg(u), Omega^{k+1})
    classical: float  # omega_n * A(u, Omega)

    @property
    def ratio(self) -> float:
        return self.scaled_local / self.classical


def classical_graph_area(u: ScalarField, omega_base: DomainWindow) -> float:
    """Discrete graph area: sum over the window of sqrt(1 + |grad u|^2) h^n."""
    spec = u.spec
    g2 = np.zeros(spec.extent)
    for a in range(spec.dim):
        grad = np.gradient(u.values, spec.h, axis=a)
        g2 += grad * grad
    h_n = spec.h**spec.dim
    return float(np.sum(np.sqrt(1.0 + g2)[omega_base.omega]) * h_n)


def graph_area_asymptotics(u_of_spec, omega_of_spec, k: float, s_schedule,
                           refinement_schedule) -> list[DavilaRow]:
    """Scaled local energy against the classical area across (s, h) pairs.

    ``u_of_spec`` and ``omega_of_spec`` build the graph field and base
    window on each refined base grid, so the same geometry is sampled at
    every resolution; the vertical window is (-k-1, k+1).
    """
    rows = []
    for h_spec in refinement_schedule:
        base_spec = h_spec if isinstance(h_spec, GridSpec) else None
        if base_spec is None:
            raise SpecMismatch("refinement schedule must contain GridSpec entries")
        u = u_of_spec(base_spec)
        omega_base = omega_of_spec(base_spec)
        n = base_spec.dim
        area = unit_ball_volume(n) * classical_graph_area(u, omega_base)
        sg = SubgraphSet(base_spec, u, k + 1.0)
        cell = sg.cellset()
        amb = cell.spec
        z_centers = amb.axis_centers(-1, np.arange(amb.extent[-1]))
        om = omega_base.omega[..., None] & (np.abs(z_centers) < k + 1.0)
        for s in s_schedule:
            params = KernelParams(float(s), n + 1)
            table = build_table(amb, params, max_offset=max(amb.extent) - 1)
            local = interaction(cell.inside & om, ~cell.inside & om, table)
            rows.append(
                DavilaRow(float(s), amb.h, (1.0 - float(s)) * local, area)
            )
    return rows
