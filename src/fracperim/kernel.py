"""Quadrature of the singular interaction kernel |x-y|^(-n-s).

Pairwise cell weights are translation invariant, so the whole table is a
map offset -> weight.  1D weights use the closed-form antiderivative.  In
dimensions 2 and 3 the unit-cell pair weight is int rho(v) |v|^(-n-s) dv
over its 2^n unit lattice squares, on each of which rho is a product of
linear factors.  The kernel is evaluated once per lattice square of the
band that the descending weights read (tensor Gauss-Legendre) into its
2^n factor moments; the square at the origin holds the Duffy corner
integrals, whose radial part is closed-form, in the same array.  One
slicing sum gives the descending weights, and exact copies fill the rest
of the table.  Both rules are exact to rounding and cheap, so each table
computes its weights afresh and nothing is cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInterval, InvalidRadius
from .grid import GridSpec

__all__ = [
    "KernelParams",
    "InteractionTable",
    "interval_pair_exact",
    "interval_ray_exact",
    "build_table",
    "tail_mass",
    "unit_ball_volume",
]


@dataclass(frozen=True)
class KernelParams:
    """Kernel exponent parameters: s in (0,1) and the ambient dimension.

    ``near_field_order`` is accepted for compatibility and has no effect;
    the pair weights have no depth parameter.
    """

    s: float
    dim: int
    near_field_order: int = 8

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie strictly in (0, 1), got {self.s}")
        if self.near_field_order < 1:
            raise ValueError("near_field_order must be >= 1")


def unit_ball_volume(d: int) -> float:
    """Volume of the d-dimensional unit ball, pi^(d/2)/Gamma(d/2+1)."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def tail_mass(radius: float, params: KernelParams) -> float:
    """Single-point tail: integral of |x-y|^(-n-s) over |y-x| > radius.

    Equals n*omega_n / (s * radius^s).
    """
    if not radius > 0:
        raise InvalidRadius(f"radius must be positive, got {radius}")
    n = params.dim
    return n * unit_ball_volume(n) / (params.s * radius**params.s)


def interval_pair_exact(a: float, b: float, c: float, d: float, s: float) -> float:
    """Exact double integral of |x-y|^(-1-s) over (a,b) x (c,d), a<b<=c<d."""
    if not (a < b <= c < d):
        raise InvalidInterval(f"need a < b <= c < d, got {(a, b, c, d)}")
    p = 1.0 - s
    val = (d - b) ** p - (d - a) ** p - (c - b) ** p + (c - a) ** p
    return val / (s * (1.0 - s))


def interval_ray_exact(a: float, b: float, c: float, s: float) -> float:
    """Exact double integral of |x-y|^(-1-s) over (a,b) x (c,infinity)."""
    if not (a < b <= c):
        raise InvalidInterval(f"need a < b <= c, got {(a, b, c)}")
    p = 1.0 - s
    return ((c - a) ** p - (c - b) ** p) / (s * (1.0 - s))


# ---------------------------------------------------------------------------
# Unit-cell pair integrals in dimension >= 2 (h = 1; scaling is exact).
# ---------------------------------------------------------------------------

_DUFFY_NODES = 20  # per axis of the (n-1)-dimensional Duffy rule
_NEAR_NODES, _FAR_NODES = 12, 6  # per axis on pieces nearer/farther than:
_FAR_DISTANCE = 7.0
# every weight up to offset 30 (2D) and 14 (3D) is within 1e-14 relative
# of 40-node rules at s in {0.05, 0.5, 0.95}
_CHUNK = 1 << 18  # integrand values evaluated at once (2 MB of float64)


def _gauss_legendre(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the q-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(q)
    return 0.5 * (x + 1.0), 0.5 * w


def _corner_integrals(n: int, s: float) -> np.ndarray:
    """C[j-1] = int over [0,1]^n of u_1..u_j (1-u_{j+1})..(1-u_n) |u|^(-n-s).

    On the pyramid where u_i is the largest coordinate, u = t * e with
    e_i = 1, the other e_a = w_a in [0,1]^(n-1), and Jacobian t^(n-1)
    (Duffy).  The density is a polynomial sum_k c_k(w) t^k with c_0 = 0,
    because j >= 1 factors vanish at the origin, so the t-integral is
    sum_k c_k(w) / (k-s) |e|^(-n-s).  What is left is smooth in w.
    """
    x, w = _gauss_legendre(_DUFFY_NODES)
    grid = np.meshgrid(*([x] * (n - 1)), indexing="ij")
    pts = np.stack([g.ravel() for g in grid])
    wts = np.prod(np.meshgrid(*([w] * (n - 1)), indexing="ij"), axis=0).ravel()
    radial = wts * (1.0 + np.sum(pts**2, axis=0)) ** (-0.5 * (n + s))
    moments = 1.0 / (np.arange(n + 1) - s)
    out = np.zeros(n)
    for j in range(1, n + 1):
        for i in range(n):
            e = np.insert(pts, i, 1.0, axis=0)
            poly = np.ones((1, pts.shape[1]))
            for a in range(n):
                # coefficients of the factor t e_a (a < j) or 1 - t e_a
                c0, c1 = (0.0, e[a]) if a < j else (1.0, -e[a])
                grown = np.zeros((len(poly) + 1, pts.shape[1]))
                grown[:-1] += c0 * poly
                grown[1:] += c1 * poly
                poly = grown
            out[j - 1] += float(radial @ (moments @ poly))
    return out


def _square_moments(corners: np.ndarray, n: int, s: float, q: int) -> np.ndarray:
    """Kernel moments of the unit squares corners + [0,1]^n, shape (m, 2^n).

    Column f (row-major over {0,1}^n) is int over [0,1]^n of prod_a
    l_a(x_a) |corner + x|^(-n-s) dx, l_a(x) = x where f_a, else 1 - x, by
    tensor Gauss-Legendre with q nodes per axis; every square lies at
    distance >= 1 from the origin, where the integrand is smooth.
    """
    x, w = _gauss_legendre(q)
    ramps = (w * (1.0 - x), w * x)
    patterns = [math.prod(np.ix_(*(ramps[r] for r in f))).ravel() for f in np.ndindex((2,) * n)]
    out = np.empty((len(corners), 2**n))
    step = max(1, _CHUNK // q**n)
    for lo in range(0, len(corners), step):
        blk = corners[lo:lo + step]
        sq = (blk[:, :, None] + x) ** 2
        r2 = sum(sq[:, a].reshape((len(blk),) + (1,) * a + (q,) + (1,) * (n - a - 1))
                 for a in range(n))
        vals = np.power(r2, -0.5 * (n + s), out=r2).reshape(len(blk), -1)
        # row by row, so a moment rounds the same whatever its chunk holds
        for j, wt in enumerate(patterns):
            out[lo:lo + step, j] = np.einsum("ij,j->i", vals, wt)
    return out


def _expand_permutations(arr: np.ndarray, n: int) -> np.ndarray:
    """Copy every entry of the cube [0, K]^n from the one at its descending-
    sorted index: a bubble-sort network of adjacent axis swaps, each exact."""
    idx = np.arange(arr.shape[0])
    for i in range(n - 1, 0, -1):
        for a in range(i):
            ge = (idx[:, None] >= idx).reshape((1,) * a + (len(idx),) * 2 + (1,) * (n - a - 2))
            arr = np.where(ge, arr, arr.swapaxes(a, a + 1))
    return arr


def _unit_quadrant(n: int, s: float, K: int) -> np.ndarray:
    """Unit-cell weights w(delta) on [0, K]^n, right at descending delta.

    w(delta) = sum_e M(delta - e, e), e in {0,1}^n: the overlap density
    prod_a max(0, 1 - |v_a - delta_a|) is the factor pattern e on the unit
    square with lower corner delta - e.  A descending delta reads only the
    band of squares L_a >= L_{a+1} - 1, so M is computed there alone.  The
    singular square at the origin holds, in pattern f, the Duffy corner
    integral of f's popcount (0 for f = 0).
    """
    band = np.indices((K + 1,) * n).reshape(n, -1).T
    band = band[np.all(band[:, :-1] >= band[:, 1:] - 1, axis=1) & np.any(band > 0, axis=1)]
    near = np.sum(band**2, axis=1) < _FAR_DISTANCE**2
    moments = np.zeros((K + 1,) * n + (2,) * n)
    for q, sel in ((_NEAR_NODES, near), (_FAR_NODES, ~near)):
        moments[tuple(band[sel].T)] = _square_moments(
            band[sel].astype(float), n, s, q).reshape((-1,) + (2,) * n)
    popcount = np.indices((2,) * n).sum(axis=0)
    moments[(0,) * n] = np.concatenate(([0.0], _corner_integrals(n, s)))[popcount]
    # sum by slicing: corner delta_a - 1 = -1 reads the square at 0 with
    # axis a's factor flipped, its reflection
    unit = np.zeros((K + 1,) * n)
    for e in np.ndindex((2,) * n):
        for flip in np.ndindex(tuple(b + 1 for b in e)):
            dst = tuple(slice(0, 1) if f else slice(b, None) for b, f in zip(e, flip))
            src = tuple(slice(0, 1) if f else slice(0, K + 1 - b) for b, f in zip(e, flip))
            unit[dst] += moments[src + tuple(b ^ f for b, f in zip(e, flip))]
    return unit


# ---------------------------------------------------------------------------
# Interaction table.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InteractionTable:
    """Symmetric pairwise cell weights indexed by integer offset.

    ``weights`` has shape (2K+1,)*dim with K = max_offset; entry at index
    offset + K is the double integral of the kernel over a cell pair at
    that offset, to rounding.  The zero offset carries weight 0 (same-cell
    pairs never contribute for piecewise-constant fields).  Other modules
    read the weights through ``weight``, ``block`` and ``pairs``.  ``_engines``
    holds the table's pair engines, one per (spec, policy), so their
    weight spectra and exterior fields are computed once.
    """

    spec: GridSpec
    params: KernelParams
    max_offset: int
    weights: np.ndarray
    _engines: dict = field(default_factory=dict, init=False, compare=False,
                           repr=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)

    def weight(self, offset) -> float:
        idx = tuple(int(o) + self.max_offset for o in np.atleast_1d(offset))
        return float(self.weights[idx])

    def block(self, reach) -> np.ndarray:
        """Centered sub-array of weights covering offsets up to ``reach``.

        ``reach`` is one int for every axis or a tuple with one per axis.
        """
        reaches = (reach,) * self.spec.dim if np.ndim(reach) == 0 else tuple(reach)
        if max(reaches) > self.max_offset:
            raise ValueError(
                f"table max_offset {self.max_offset} < requested reach {reach}"
            )
        k = self.max_offset
        sl = tuple(slice(k - r, k + r + 1) for r in reaches)
        return self.weights[sl]

    def pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Weights w(b_j - a_i), shape (k, l), of the integer cells a (k, dim)
        and b (l, dim) of one box, gathered by flat offset: the weights are
        C-contiguous, so offset d sits d . strides past the centre."""
        a, b = np.asarray(a), np.asarray(b)
        # max(b) - min(a) over all axes bounds each axis's offsets, so only
        # a span past K needs the per-axis check
        if len(a) and len(b) and max(b.max() - a.min(), a.max() - b.min()) > self.max_offset:
            reach = max((b.max(0) - a.min(0)).max(), (a.max(0) - b.min(0)).max())
            if reach > self.max_offset:
                raise ValueError(f"table max_offset {self.max_offset} < requested reach {reach}")
        strides = np.array(self.weights.strides) // self.weights.itemsize
        idx = self.weights.size // 2 + (b @ strides)[None, :] - (a @ strides)[:, None]
        return self.weights.ravel().take(idx)


def build_table(spec: GridSpec, params: KernelParams, max_offset: int) -> InteractionTable:
    """Precompute pairwise cell weights for all offsets up to max_offset.

    Weights are computed for unit cells and rescaled by h^(n-s), which is
    exact by kernel homogeneity.
    """
    n = params.dim
    if n != spec.dim:
        raise ValueError(f"params.dim {n} != spec.dim {spec.dim}")
    s = params.s
    K = max_offset
    scale = spec.h ** (n - s)

    if n == 1:
        w = [interval_pair_exact(0.0, 1.0, d, d + 1.0, s) * scale for d in range(1, K + 1)]
        return InteractionTable(spec, params, K, np.array(w[::-1] + [0.0] + w))

    # expand the descending entries, then mirror them into every orthant
    quadrant = _expand_permutations(_unit_quadrant(n, s, K) * scale, n)
    return InteractionTable(spec, params, K, np.pad(quadrant, [(K, 0)] * n, mode="reflect"))
