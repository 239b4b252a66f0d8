"""Quadrature of the singular interaction kernel |x-y|^(-n-s).

Pairwise cell weights are translation invariant, so the whole table is a
map offset -> weight.  1D weights use the closed-form antiderivative; in
higher dimensions far pairs use a Richardson-corrected midpoint rule and
near pairs a recursive dyadic subdivision (convergent because the kernel
is integrable across touching faces for s < 1).
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from functools import lru_cache

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
    """Kernel exponent parameters: s in (0,1), ambient dimension, depth."""

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


def _midpoint_richardson(delta: np.ndarray, n: int, s: float) -> np.ndarray:
    """Midpoint value with one Richardson step for unit-cell pairs at offsets.

    ``delta`` is (m, n) float offsets between cell centers, |delta|_inf >= 2
    recommended.  Combines the coarse midpoint with the 2x-subdivided
    midpoint to cancel the leading error term.
    """
    delta = np.atleast_2d(np.asarray(delta, dtype=float))
    p = n + s
    coarse = (np.sum(delta**2, axis=1)) ** (-p / 2.0)
    # subdividing both cells once yields per-axis center displacements in
    # {-1/2, 0, 1/2} with binomial multiplicities (1, 2, 1)/4
    shifts = [(-0.5, 1.0), (0.0, 2.0), (0.5, 1.0)]
    fine = np.zeros(len(delta))
    for combo in itertools.product(shifts, repeat=n):
        mult = 1.0
        off = np.zeros(n)
        for axx, (dv, m) in enumerate(combo):
            off[axx] = dv
            mult *= m / 4.0
        d2 = np.sum((delta + off) ** 2, axis=1)
        fine += mult * d2 ** (-p / 2.0)
    return (4.0 * fine - coarse) / 3.0


@lru_cache(maxsize=None)
def _near_class_integral(offset: tuple, n: int, s: float) -> float:
    """Exact pair integral for nearby unit cubes at the given offset.

    Switching to the difference coordinate v = y - x turns the cell-pair
    integral into int rho(v) |v|^(-n-s) dv where rho is the overlap
    density prod_a max(0, 1 - |v_a - delta_a|).  The density vanishes
    linearly on the faces through the origin, so the integrand is bounded
    by |v|^(1-n-s) there and adaptive quadrature converges.
    """
    import warnings

    from scipy import integrate

    p = n + s
    delta = np.asarray(offset, dtype=float)

    def density(v):
        return float(np.prod(np.maximum(0.0, 1.0 - np.abs(v - delta))))

    lo, hi = delta - 1.0, delta + 1.0
    with warnings.catch_warnings():
        # roundoff warnings fire while the extrapolation table saturates
        # well past the accuracy we keep; the values are stable
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if n == 2:
            val, _ = integrate.dblquad(
                lambda y, x: density(np.array([x, y]))
                * (x * x + y * y) ** (-p / 2.0),
                lo[0], hi[0], lo[1], hi[1], epsabs=1e-12, epsrel=1e-11,
            )
        elif n == 3:
            val, _ = integrate.tplquad(
                lambda z, y, x: density(np.array([x, y, z]))
                * (x * x + y * y + z * z) ** (-p / 2.0),
                lo[0], hi[0], lo[1], hi[1], lo[2], hi[2],
                epsabs=1e-10, epsrel=1e-9,
            )
        else:
            raise ValueError(
                f"touching-cell quadrature implemented for n in (2, 3), got {n}")
    return val


@lru_cache(maxsize=None)
def _canonical_near_weight(offset: tuple, n: int, s: float, depth: int) -> float:
    """Unit-cell pair integral for a nearby offset by dyadic subdivision.

    Both cells split in half along every axis; sub-pairs that are again
    nearby (|offset|_inf <= 2 in sub-cell units) recurse, the rest use
    the Richardson-corrected midpoint.  Translation and reflection
    symmetry collapse the recursion onto a handful of canonical offset
    classes, so each (class, depth) state is evaluated once.  At depth 0
    the cached per-class quadrature closes the recursion.
    """
    if depth == 0:
        return _near_class_integral(offset, n, s)
    base = 2 * np.asarray(offset, dtype=int)
    near_classes: dict[tuple, int] = {}
    far_offsets = []
    for d in itertools.product((-1, 0, 1), repeat=n):
        # sub-cell offsets 2*offset + (o2 - o1) with per-axis multiplicity
        # 1, 2, 1 for the half-cell shift differences -1, 0, +1
        mult = 1
        for dv in d:
            mult *= 2 if dv == 0 else 1
        off = base + np.asarray(d, dtype=int)
        if np.max(np.abs(off)) <= 2:
            cls = tuple(sorted(np.abs(off).tolist(), reverse=True))
            near_classes[cls] = near_classes.get(cls, 0) + mult
        else:
            far_offsets.extend([off] * mult)
    total = 0.0
    for cls, mult in sorted(near_classes.items()):
        total += mult * _canonical_near_weight(cls, n, s, depth - 1)
    if far_offsets:
        w = _midpoint_richardson(np.asarray(far_offsets, dtype=float), n, s)
        total += float(np.sum(w))
    return 0.5 ** (n - s) * total


# ---------------------------------------------------------------------------
# Interaction table.
# ---------------------------------------------------------------------------

_CACHE_MAGIC = b"FRACTBL1"


@dataclass(frozen=True)
class InteractionTable:
    """Symmetric pairwise cell weights indexed by integer offset.

    ``weights`` has shape (2K+1,)*dim with K = max_offset; entry at index
    offset + K approximates the double integral of the kernel over a cell
    pair at that offset.  The zero offset carries weight 0 (same-cell
    pairs never contribute for piecewise-constant fields).
    """

    spec: GridSpec
    params: KernelParams
    max_offset: int
    weights: np.ndarray

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

    # -- cache file ---------------------------------------------------------

    def save(self, path) -> None:
        header = struct.pack(
            "<8sqqqdd",
            _CACHE_MAGIC,
            self.spec.dim,
            self.max_offset,
            self.params.near_field_order,
            self.params.s,
            self.spec.h,
        )
        with open(path, "wb") as f:
            f.write(header)
            f.write(self.weights.astype("<f8").tobytes(order="C"))

    @staticmethod
    def load(path, spec: GridSpec) -> "InteractionTable":
        with open(path, "rb") as f:
            head = f.read(struct.calcsize("<8sqqqdd"))
            magic, dim, max_offset, depth, s, h = struct.unpack("<8sqqqdd", head)
            if magic != _CACHE_MAGIC:
                raise ValueError("not a fracperim table cache file")
            count = (2 * max_offset + 1) ** dim
            data = np.frombuffer(f.read(count * 8), dtype="<f8").copy()
        params = KernelParams(s=s, dim=dim, near_field_order=depth)
        shape = (2 * max_offset + 1,) * dim
        return InteractionTable(spec, params, max_offset, data.reshape(shape))


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
    shape = (2 * K + 1,) * n
    weights = np.zeros(shape)
    scale = spec.h ** (n - s)

    if n == 1:
        for d in range(1, K + 1):
            w = interval_pair_exact(0.0, 1.0, float(d), float(d + 1.0), s) * scale
            weights[K + d] = w
            weights[K - d] = w
        return InteractionTable(spec, params, K, weights)

    # canonical offsets: sorted non-increasing, nonnegative
    canon = {}
    rng = range(0, K + 1)
    far_list = []
    for off in itertools.product(rng, repeat=n):
        if all(o == 0 for o in off):
            continue
        if any(off[i] < off[i + 1] for i in range(n - 1)):
            continue
        if max(off) <= 2:
            canon[off] = _canonical_near_weight(off, n, s, params.near_field_order)
        else:
            far_list.append(off)
    if far_list:
        vals = _midpoint_richardson(np.asarray(far_list, dtype=float), n, s)
        for off, v in zip(far_list, vals):
            canon[off] = float(v)

    # mirror over the hyperoctahedral group
    idx = np.indices(shape).reshape(n, -1).T - K  # all offsets
    mags = np.sort(np.abs(idx), axis=1)[:, ::-1]
    flat = weights.reshape(-1)
    keys = [tuple(m) for m in mags]
    for i, key in enumerate(keys):
        if all(k == 0 for k in key):
            continue
        flat[i] = canon[key] * scale
    return InteractionTable(spec, params, K, weights)
