"""Independent references the benchmark checks the program's outputs against.

Each one reaches its value by another route than the program does:

- ``direct_perimeter``: the s-perimeter as an explicit sum of table
  weights over every (E, complement) cell pair, instead of the program's
  FFT / direct correlations of bitmasks;
- ``lp_minimum``: the minimum of the cut energy over a window as the
  optimum of a linear programme solved by HiGHS, instead of the
  program's subgradient descent plus thresholding or its enumeration;
- ``strip_reference``: the strip interaction on the unit square from a
  closed-form angular integral and Gauss-Legendre quadrature, instead of
  the program's cell-pair tables.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, sparse, special

from fracperim.functional import PairEngine
from fracperim.grid import DomainWindow, EmptyExterior, CellSet
from fracperim.kernel import InteractionTable


def _weights_at(table: InteractionTable, offsets: np.ndarray) -> np.ndarray:
    """Table weights at integer offsets (..., dim)."""
    k = table.max_offset
    if np.abs(offsets).max(initial=0) > k:
        raise ValueError(f"offset beyond the table reach {k}")
    return table.weights[tuple(np.moveaxis(offsets + k, -1, 0))]


def direct_perimeter(E: CellSet, window: DomainWindow, table: InteractionTable,
                     chunk: int = 16) -> float:
    """Sum of w(b - a) over cells a in E, b not in E, a or b in the window.

    The universe is the box padded as the window's policy pads it; E must
    have an empty exterior, so the pad cells are all outside E.
    """
    if not isinstance(E.exterior, EmptyExterior):
        raise ValueError("direct_perimeter needs a set with an empty exterior")
    pad = PairEngine(E.spec, window.complement_policy, table).pad
    occ = np.pad(E.inside, pad)
    om = np.pad(window.omega, pad)
    e_cells = np.argwhere(occ)
    c_cells = np.argwhere(~occ)
    e_in = om[tuple(e_cells.T)]
    c_in = om[tuple(c_cells.T)]
    parts = []
    # E in the window against every complement cell, then E outside the
    # window against complement cells inside it
    for a_cells, b_cells in ((e_cells[e_in], c_cells), (e_cells[~e_in], c_cells[c_in])):
        for start in range(0, len(a_cells), chunk):
            a = a_cells[start:start + chunk]
            w = _weights_at(table, b_cells[None, :, :] - a[:, None, :])
            parts.append(math.fsum(w.sum(axis=1)))
    return math.fsum(parts)


def lp_minimum(window: DomainWindow, exterior_data: CellSet,
               table: InteractionTable) -> float:
    """Minimum over competitors equal to the data outside the window.

    The energy of a 0/1 vector x on the free cells is
        sum_{a<b} W_ab |x_a - x_b| + sum_a p_a (1 - x_a) + q_a x_a,
    with p_a (q_a) the weight between free cell a and the fixed cells of
    E (of its complement) in the padded universe.  With t_ab >= +-(x_a -
    x_b) and x in [0, 1]^m this is a linear programme whose optimum is
    attained at a 0/1 vertex (the energy is a cut function), so its value
    is the binary minimum.  Two dimensions only: no analytic ray masses.
    """
    spec = window.spec
    if spec.dim != 2:
        raise ValueError("lp_minimum handles 2D problems only")
    eng = PairEngine(spec, window.complement_policy, table)
    occ = eng.occupancy(exterior_data)
    om = eng.embed(window.omega)
    free = np.argwhere(om)
    m = len(free)
    fixed_e = np.argwhere(occ & ~om)
    fixed_c = np.argwhere(~occ & ~om)
    p = _weights_at(table, fixed_e[None, :, :] - free[:, None, :]).sum(axis=1)
    q = _weights_at(table, fixed_c[None, :, :] - free[:, None, :]).sum(axis=1)
    ia, ib = np.triu_indices(m, 1)
    w = _weights_at(table, free[ib] - free[ia])
    n_pairs = len(ia)
    c = np.concatenate([q - p, w])
    rows = np.arange(2 * n_pairs)
    t_cols = m + np.tile(np.arange(n_pairs), 2)
    # x_a - x_b - t_ab <= 0 and x_b - x_a - t_ab <= 0
    data = np.concatenate([np.ones(n_pairs), -np.ones(n_pairs),
                           -np.ones(n_pairs), np.ones(n_pairs),
                           -np.ones(2 * n_pairs)])
    r = np.concatenate([rows[:n_pairs], rows[:n_pairs],
                        rows[n_pairs:], rows[n_pairs:], rows])
    cols = np.concatenate([ia, ib, ia, ib, t_cols])
    A = sparse.csr_matrix((data, (r, cols)), shape=(2 * n_pairs, m + n_pairs))
    bounds = [(0.0, 1.0)] * m + [(0.0, None)] * n_pairs
    res = optimize.linprog(
        c, A_ub=A, b_ub=np.zeros(2 * n_pairs), bounds=bounds, method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the LP: {res.message}")
    return math.fsum([float(p.sum()), float(res.fun)])


# ---------------------------------------------------------------------------
# Strip interaction on the unit square.
# ---------------------------------------------------------------------------


def _side_mass(p, a, s):
    """2/B(1/2,(1+s)/2) times the integral of rho^(-s) over the directions
    that hit one side of a rectangle at perpendicular distance p, on the
    part of the side at offsets in [0, a] from the foot of the normal."""
    sin2 = a * a / (a * a + p * p)
    return p ** (-s) * special.betainc(0.5, 0.5 * (1.0 + s), sin2)


def _square_mass(p, q, side, s):
    """_side_mass summed over the four sides of a square of side ``side``
    seen from the point at distances p, q from its lower-left edges."""
    u, v = side - p, side - q
    return (_side_mass(p, q, s) + _side_mass(p, v, s)
            + _side_mass(u, q, s) + _side_mass(u, v, s)
            + _side_mass(q, p, s) + _side_mass(q, u, s)
            + _side_mass(v, p, s) + _side_mass(v, u, s))


def strip_reference(s: float, delta: float, nodes: int = 200) -> float:
    """L_s([delta, 1-delta]^2, Q minus that core) for the unit square Q.

    For a core point the inner integral over the strip is (1/s) times the
    angular integral of rho_core^(-s) - rho_Q^(-s), where rho is the
    distance to the boundary along a direction; side by side that has a
    closed form in the regularized incomplete beta function.  The core
    is integrated over one quarter by Gauss-Legendre nodes after the
    substitution p = T t^(1/(1-s)), which absorbs the p^(-s) singularity
    at the core edge.  Converged to about 1e-6 at 200^2 nodes.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    e = 1.0 / (1.0 - s)
    half = 0.5 - delta
    p = half * t ** e
    wp = w * half * e * t ** (e - 1.0)
    P, Q = np.meshgrid(p, p, indexing="ij")
    f = (_square_mass(P, Q, 1.0 - 2.0 * delta, s)
         - _square_mass(P + delta, Q + delta, 1.0, s))
    quarter = float(np.sum(np.outer(wp, wp) * f))
    return float(2.0 * special.beta(0.5, 0.5 * (1.0 + s)) / s * quarter)


def rel_gap(a: float, b: float) -> float:
    """|a - b| relative to |b| (absolute when b is 0)."""
    return abs(a - b) / (abs(b) or 1.0)
