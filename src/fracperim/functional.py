"""Interaction functionals: L_s(A,B), the s-perimeter and its local /
nonlocal split, the relaxed energy F(u, Omega) and the discrete coarea
identity, plus the 1D interval-union divergence probe and the
strip-interaction exponent estimator.

All energies are finite sums of table weights over cell pairs, plus the
exterior: the mass of each box cell to the cells beyond the box inside E
and outside it.  Every set-algebra identity (complement invariance,
decomposition, coarea) is exact in real arithmetic, so residuals are pure
floating-point accumulation.

A pair sum L(A, B) is the inner product <B, A (*) w>: a numpy.fft
correlation of the mask A against the spectrum of the weight block, on a
5-smooth grid (``_fast_len``).  Every transform of the package runs in
this module: ``_even_spectra`` places an even kernel (the weight block,
or an ``approx`` mollifier bump) with offset d at index d mod N, and
``_convolve`` makes one batched r2c / c2r pass and crops.  Every caller
takes its fields in pairs, so ``PairEngine.fields`` stacks the non-empty
masks into one batched transform.  The exterior data are fixed, so they
enter as two fields on the box per exterior model: X_E and X_C, the mass
of each box cell to the exterior inside E and to the exterior outside
it.  A PairEngine computes them once and caches them with its weight
spectra, and the table keeps one engine per (spec, policy).  Every
correlation runs on the box.  A perimeter, the cylinder's too, is
``_breakdown``: ``_perimeter_sums`` of the two box fields of one batch.
``interaction`` is the same correlation at every size.  The module
imports no SciPy.

Beyond the box every exterior model is a lattice set H, so in a universe
U, X_E = m(. -> H n U) - m(. -> H n box) and X_C likewise with H^c
(``_exterior_parts``).  U is Z^n, with closed-form m, in 1D under
AnalyticTail and for the cylinder perimeter; otherwise it is the box
plus the policy's pad, and the mass beyond U is bounded.  The masses to
rectangles (H n U, H n box, the box) are weight-block sums, no FFT.

The relaxed energy F(u, Omega) is an explicit pair sum in value order.
With the window cells sorted by decreasing u, each unordered pair with a
window cell is gathered once (``InteractionTable.pairs``), in the row of
its later window cell: the row takes the window cells listed before it
and every non-window cell (``_ordered_pair_blocks``).  The sign of
u_a - u_j is then known (for a non-window cell, by a binary search in
the non-window values, also sorted), so a row chunk's |u_a - u_j| sum is
one product with the columns [u - c, 1], c a value of the chunk.  The
exterior adds the window's mass to the exterior cells of each exterior
value (``PairEngine.pad_masses``, whose M_1 and M_0 are X_E and X_C).
Its box pairs never touch the FFT, so the coarea identity compares two
independent routes for them; both share the one exterior rule, which the
tests check against explicit padded-universe sums.  The threshold scan
of ``approx`` gathers its earlier-cell sums through the same blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InvalidSchedule,
    InvalidSequence,
    NotDisjoint,
    NotNested,
    SpecMismatch,
    WindowTooShort,
)
from .grid import (
    AnalyticTail,
    CellSet,
    DomainWindow,
    EmptyExterior,
    FullExterior,
    GridSpec,
    HalfSpaceExterior,
    ScalarField,
    SubgraphExterior,
    TruncateAtRadius,
)
from .kernel import (
    InteractionTable,
    KernelParams,
    _gauss_legendre,
    build_table,
    interval_pair_exact,
    interval_ray_exact,
    tail_mass,
)

__all__ = [
    "PerimeterBreakdown",
    "PairEngine",
    "table_for",
    "interaction",
    "perimeter",
    "decomposition_check",
    "relaxed_energy",
    "coarea_check",
    "superlevel",
    "divergence_probe_1d",
    "geometric_ratio",
    "strip_exponent",
]

_PAIR_CHUNK = 1 << 16  # cell pairs (512 KB of float64) per explicit-sum chunk
_LEVEL_BATCH = 16  # level sets per batched correlation of ``coarea_check``


@dataclass(frozen=True)
class PerimeterBreakdown:
    """Local / nonlocal split of the s-perimeter plus far-field bookkeeping."""

    local: float
    nonlocal_: float
    total: float
    truncation_error_bound: float
    degenerate: bool = False


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer (2^a 3^b 5^c) of at least n: the real-FFT
    length ``scipy.fft.next_fast_len(n, real=True)`` picks."""
    m = max(n, 1)
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def _even_spectra(blocks, fast: tuple[int, ...]) -> np.ndarray:
    """The real spectra on the FFT grid ``fast`` of centred blocks of odd
    side, stacked.

    A block sits with offset d at index d mod N, so a circular
    convolution with it is the linear one on every cell whose reach
    does not wrap around the grid.  Each block is even, so its spectrum
    is real.  The blocks share one batched transform.
    """
    wrapped = np.zeros((len(blocks),) + fast)
    for k, block in enumerate(blocks):
        idx = [np.r_[0:(n + 1) // 2, f - n // 2:f] for n, f in zip(block.shape, fast)]
        wrapped[k][np.ix_(*idx)] = np.fft.ifftshift(block)
    return np.fft.rfftn(wrapped, axes=tuple(range(1, wrapped.ndim))).real


def _convolve(stack: np.ndarray, spectra: np.ndarray, fast: tuple[int, ...],
              crop: tuple[slice, ...]) -> np.ndarray:
    """The ``crop`` of stack (*) k over the trailing axes, k the kernels
    of ``spectra`` (from ``_even_spectra``, broadcast against the stack):
    one batched r2c / c2r round trip on the grid ``fast``.

    The inverse runs one axis at a time in ``irfftn``'s order and crops
    each axis before the next: a line's transform is the same whatever
    the others are, so this is ``irfftn`` then the crop, bit for bit,
    without transforming the lines the crop drops.
    """
    axes = tuple(range(-len(fast), 0))
    F = np.fft.rfftn(stack, fast, axes)
    if np.broadcast_shapes(F.shape, spectra.shape) == F.shape:
        F *= spectra
    else:
        F = F * spectra
    for axis, n, keep in zip(axes[:-1], fast, crop):
        F = np.fft.ifft(F, n, axis)[(Ellipsis, keep) + (slice(None),) * (-axis - 1)]
    return np.fft.irfft(F, fast[-1], -1)[..., crop[-1]]


def _correlate(stack: np.ndarray, table: InteractionTable, spectra: dict) -> np.ndarray:
    """f[k] = stack[k] (*) w for each array of a stack, on its grid:
    f[k][j] = sum_i stack[k][i] w(j - i).

    ``_convolve`` against the weight block of offsets up to S-1 per axis
    on a grid of at least 2S-1, whose spectrum ``spectra`` caches per
    grid shape.
    """
    shape = stack.shape[1:]
    if shape not in spectra:
        fast = tuple(_fast_len(2 * n - 1) for n in shape)
        block = table.block(tuple(n - 1 for n in shape))
        spectra[shape] = fast, _even_spectra([block], fast)[0]
    fast, spectrum = spectra[shape]
    return _convolve(stack, spectrum, fast, tuple(slice(n) for n in shape))


def _fields(masks, table: InteractionTable, spectra: dict) -> list[np.ndarray]:
    """A (*) w for each mask A of ``masks`` (all of one shape): one batched
    transform of the non-empty masks, and zeros for the empty ones."""
    live = [k for k, A in enumerate(masks) if A.any()]
    out = {}
    if live:
        stack = np.array([masks[k] for k in live], dtype=float)
        out = dict(zip(live, _correlate(stack, table, spectra)))
    return [out[k] if k in out else np.zeros(A.shape) for k, A in enumerate(masks)]


@lru_cache(maxsize=1)
def _strictly_lower(size: int) -> np.ndarray:
    """The size x size strictly lower triangle of ones, read-only."""
    tri = np.tri(size, k=-1)
    tri.setflags(write=False)
    return tri


def _ordered_pair_blocks(cells: np.ndarray, table: InteractionTable,
                         split: np.ndarray | None = None):
    """Yield (lo, hi, w, cols): the signed weights w(b - a) of the rows
    a = cells[lo:hi] against the cells b = cells[cols], in chunks of
    about _PAIR_CHUNK pairs.

    The rows are the first len(split) cells (every cell without
    ``split``), in order, and the rest are the others.  The sign is +1
    for a row b listed before a and 0 for a row after it; the first
    split[a] others (non-decreasing with a) take +1 and the rest -1.  So
    a chunk gathers the rows up to its last and every other cell, with
    one ``table.pairs`` call: its own square is a strictly lower
    triangle, and only the others between its first and last split are
    masked cell by cell.
    """
    n = len(cells)
    m = n if split is None else len(split)
    step = max(1, _PAIR_CHUNK // max(1, n))
    # a chunk's own square is at most isqrt(_PAIR_CHUNK) on a side
    before = _strictly_lower(math.isqrt(_PAIR_CHUNK))
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        cols = np.r_[0:hi, m:n] if m < n else slice(hi)
        w = table.pairs(cells[lo:hi], cells[cols])
        w[:, lo:hi] *= before[:hi - lo, :hi - lo]
        if m < n:
            s_lo, s_hi = split[lo], split[hi - 1]
            others = w[:, hi:]
            others[:, s_hi:] *= -1.0  # after every row of the chunk
            k = np.arange(s_lo, s_hi)
            others[:, s_lo:s_hi] *= np.where(k < split[lo:hi, None], 1.0, -1.0)
        yield lo, hi, w, cols


def _perimeter_sums(inside, om, f_in, f_out, x_e, x_c) -> tuple[float, float]:
    """(local, nonlocal) of the box mask ``inside`` in the window ``om``.

    f_in = e_in (*) w and f_out = e_out (*) w are the fields of
    inside & om and inside & ~om.  Local is the sum of f_in over the
    window's complement cells and nonlocal that of f_in over the
    complement outside the window plus f_out over the window's complement
    cells.  The exterior fields add X_C over e_in and X_E over c_in.
    """
    e_in = inside & om
    c_in = ~inside & om
    nonlocal_ = float(f_in[~inside & ~om].sum()) + float(f_out[c_in].sum())
    return float(f_in[c_in].sum()), math.fsum(
        [nonlocal_, float(x_c[e_in].sum()), float(x_e[c_in].sum())])


def _breakdown(inside, om, eng: PairEngine, x_e, x_c, bound: float) -> PerimeterBreakdown:
    """The breakdown of the box mask ``inside`` in the window ``om``:
    ``_perimeter_sums`` of one ``eng.fields`` batch of its two masks,
    with the exterior fields (X_E, X_C) and the truncation bound given."""
    local, nonlocal_ = _perimeter_sums(inside, om, *eng.fields(inside & om, inside & ~om),
                                       x_e, x_c)
    return PerimeterBreakdown(local, nonlocal_, local + nonlocal_, bound, not om.any())


def _tail_terms(dist: np.ndarray, h: float, params: KernelParams) -> np.ndarray:
    """Per cell, h^n times the point tail mass beyond ``dist`` (>= h/2)."""
    r = np.maximum(dist, 0.5 * h)
    return h**params.dim * tail_mass(1.0, params) * r ** -params.s


def interaction(A: np.ndarray, B: np.ndarray, table: InteractionTable) -> float:
    """L_s between two disjoint cell bitmasks on the same grid: <B, A (*) w>
    by FFT."""
    A = np.asarray(A, dtype=bool)
    B = np.asarray(B, dtype=bool)
    if A.shape != B.shape:
        raise SpecMismatch(f"mask shapes differ: {A.shape} vs {B.shape}")
    if np.any(A & B):
        raise NotDisjoint("interaction requires disjoint masks")
    return float(_fields((A,), table, {})[0][B].sum())


# ---------------------------------------------------------------------------
# The exterior rule: lattice half-spaces, the one-cell constant and
# rectangle sums of the weight block.
# ---------------------------------------------------------------------------

# lattice reaches of the three partial sums each C_n(s) fit uses
_CONSTANT_REACHES = {2: (15, 31, 63), 3: (15, 23, 31)}
_FACE_NODES = 30  # Gauss-Legendre nodes per axis for the far-field face integral


def _fit_cell_constant(n: int, s: float, reaches: tuple[int, int, int]) -> float:
    """C_n(s) from the lattice sums S_K of one unit table (n >= 2).

    Beyond the cube [-R, R]^n, R = K + 1/2, the weights are the point
    kernel up to O(|d|^-2), so S_inf = S_K + a0 R^-s + b2 R^(-s-2) +
    b4 R^(-s-4) with a0 = (2n/s) int_[-1,1]^(n-1) (1 + |u|^2)^(-(n+s)/2) du,
    the kernel's mass beyond the cube's 2n faces.  Three reaches fix
    S_inf, b2 and b4.
    """
    x, w = _gauss_legendre(_FACE_NODES)
    u2 = sum(np.meshgrid(*([x * x] * (n - 1)), indexing="ij"))
    wts = np.prod(np.meshgrid(*([w] * (n - 1)), indexing="ij"), axis=0)
    face = 2.0 ** (n - 1) * float(np.sum(wts * (1.0 + u2) ** (-0.5 * (n + s))))
    a0 = 2.0 * n / s * face
    K = max(reaches)
    unit = build_table(GridSpec(n, (0.0,) * n, (1,) * n, 1.0), KernelParams(s, n), K)
    rows, rhs = [], []
    for k in reaches:
        R = k + 0.5
        rows.append([1.0, -R ** (-s - 2.0), -R ** (-s - 4.0)])
        rhs.append(math.fsum(unit.block(k).ravel()) + a0 * R**-s)
    return float(np.linalg.solve(rows, rhs)[0])


@lru_cache(maxsize=None)
def _cell_constant(n: int, s: float) -> float:
    """C_n(s) = sum over d != 0 of w_unit(d): a unit cell's mass to the
    rest of the lattice, so a cell of side h has mass C_n(s) h^(n-s) to
    everything outside itself.  C_1 = 2 / (s (1 - s)) in closed form."""
    if n == 1:
        return 2.0 / (s * (1.0 - s))
    return _fit_cell_constant(n, s, _CONSTANT_REACHES[n])


def _half_space_masses(n: int, h: float, s: float, j) -> np.ndarray:
    """Mass of one cell of side h in R^n to an axis-aligned lattice
    half-space whose edge lies j >= 0 cells beyond the cell's own face.

    By the marginal identity sum_{d'} w(d', j) = h^m B_m(s) w_1(j), with
    m = n - 1 and B_m(s) = pi^(m/2) Gamma((1+s)/2) / Gamma((m+1+s)/2), a
    half-space acts on a cell through the cell's interval across the edge
    alone: h^m B_m(s) times the 1D ray mass.
    """
    m = n - 1
    b_m = math.pi ** (m / 2.0) * math.gamma((1.0 + s) / 2.0) / math.gamma(
        (m + 1.0 + s) / 2.0)
    j = np.asarray(j, dtype=float)
    p = 1.0 - s
    # (j + 1)^p - j^p, without cancellation at large j
    ray = np.where(j > 0, j**p * np.expm1(p * np.log1p(1.0 / np.maximum(j, 1.0))), 1.0)
    return h ** (n - s) * b_m * ray / (s * p)


def _rectangle_masses(table: InteractionTable, extent, pad: int, lo, hi) -> np.ndarray:
    """Per box cell c, the sum of w(j - c) over the box-relative rectangle
    lo <= j < hi of the box padded by ``pad``: prefix sums of the weight
    block, one axis at a time, returned as an owned array in C order."""
    m = table.block(tuple(n + pad - 1 for n in extent))
    for n, a, b in zip(extent, lo, hi):
        prefix = np.zeros((m.shape[0] + 1,) + m.shape[1:])
        np.cumsum(m, axis=0, out=prefix[1:])
        c = n + pad - 1 - np.arange(n)  # block index of offset -i, per box cell i
        # offsets a - i <= d < b - i; cycling the axes restores their order
        m = np.moveaxis(prefix[b + c] - prefix[a + c], 0, -1)
    return m.copy()


def _exterior_parts(spec: GridSpec, exterior, table: InteractionTable,
                    pad: int | None) -> list[tuple[float, np.ndarray]]:
    """The exterior in a universe U (Z^n when ``pad`` is None, else the box
    padded by ``pad`` cells), one lattice set H per value v it holds on U
    beyond the box: a list of (v, M_v), M_v(c) the mass of box cell c to
    the cells of H & U beyond the box.

    Exteriors are sampled at cell centres: a constant (Empty is 0, Full
    is 1) holds v on all of U; a half-space model holds 1 on the cells
    whose centres (``GridSpec.axis_centers``) lie below its level, and 0
    on the rest.  A subgraph {t < v(x)} is H = {t < farfield} beyond the
    box when its heights lie in the box's vertical range over a height
    grid inside the box's base (else WindowTooShort / SpecMismatch).
    M_v = m(H & U) - m(H & box): on Z^n, m(H) is C_n(s) h^(n-s) less
    ``_half_space_masses`` across H's edge; the rest are rectangles
    (H & box: all, none or the box cut at H's edge): ``_rectangle_masses``.
    """
    n, h, s = spec.dim, spec.h, table.params.s
    if isinstance(exterior, SubgraphExterior):
        heights = np.append(exterior.heights, exterior.farfield)
        if heights.min() < spec.box_lo[-1] or heights.max() > spec.box_hi[-1]:
            raise WindowTooShort(f"subgraph heights leave the box's vertical range "
                                 f"({spec.box_lo[-1]}, {spec.box_hi[-1]})")
        base = exterior.base_spec
        if np.any(base.box_lo < spec.box_lo[:-1]) or np.any(base.box_hi > spec.box_hi[:-1]):
            raise SpecMismatch("the subgraph's height grid must lie over the box's base")
        exterior = HalfSpaceExterior(n - 1, exterior.farfield, not exterior.above)
    if isinstance(exterior, HalfSpaceExterior) and math.isinf(exterior.level):
        exterior = float((exterior.level > 0) == exterior.below)  # H is Z^n or empty
    if isinstance(exterior, (EmptyExterior, FullExterior)):
        exterior = float(isinstance(exterior, FullExterior))
    if isinstance(exterior, (int, float)):
        axis, edge, sides = 0, math.inf, [(float(exterior), -math.inf, math.inf)]
    elif isinstance(exterior, HalfSpaceExterior):
        axis, level = exterior.axis, exterior.level
        edge = float(np.ceil((level - spec.origin[axis]) / h - 0.5))  # an estimate
        edge += np.count_nonzero(spec.axis_centers(axis, [edge - 1, edge]) < level) - 1
        sides = sorted([(float(exterior.below), -math.inf, edge),  # by value v
                        (float(not exterior.below), edge, math.inf)])
    else:
        raise SpecMismatch(f"unsupported exterior model: {exterior!r}")
    width = spec.extent[axis]
    i = np.arange(width)
    parts = []
    for v, a, b in sides:
        if pad is None:
            across = 0.0 if math.isinf(edge) else _half_space_masses(
                n, h, s, np.abs(i - edge + 0.5) - 0.5)
            m = np.where((a <= i) & (i < b), _cell_constant(n, s) * h ** (n - s) - across,
                         across).reshape([-1 if k == axis else 1 for k in range(n)])
        else:
            lo, hi = [-pad] * n, [k + pad for k in spec.extent]
            lo[axis], hi[axis] = int(max(a, -pad)), int(min(b, hi[axis]))
            if lo[axis] >= hi[axis] or (min(lo) >= 0 and hi[axis] <= width):
                continue  # v holds on no cell of U beyond the box
            m = _rectangle_masses(table, spec.extent, pad, lo, hi)
        lo, hi = [0] * n, list(spec.extent)  # H & box
        lo[axis], hi[axis] = (int(t) for t in np.clip((a, b), 0, width))
        parts.append((v, m - _rectangle_masses(table, spec.extent, 0, lo, hi)))
    return parts


def _exterior_fields(parts, extent) -> tuple[np.ndarray, np.ndarray]:
    """(X_E, X_C) per box cell of an exterior's ``_exterior_parts``: its
    M_1 and M_0, zeros for a value held on no cell beyond the box."""
    masses = dict(parts)
    return tuple(masses[v] if v in masses else np.zeros(extent) for v in (1.0, 0.0))


# ---------------------------------------------------------------------------
# Pair engine.
# ---------------------------------------------------------------------------


def _pad_cells(spec: GridSpec, policy) -> int:
    """Cells the complement policy pads onto each side of the box."""
    if isinstance(policy, AnalyticTail):
        if spec.dim == 1:
            return 0
        radius = 2.0 * max(spec.extent) * spec.h
    elif isinstance(policy, TruncateAtRadius):
        radius = policy.radius
    else:
        raise SpecMismatch(f"unknown complement policy {policy!r}")
    return int(math.ceil(radius / spec.h))


def table_for(spec: GridSpec, s: float, policy) -> InteractionTable:
    """Table whose reach spans every offset the pair sums read: from a box
    cell to any cell of the box plus the policy's pad."""
    reach = max(spec.extent) + _pad_cells(spec, policy) - 1
    return build_table(spec, KernelParams(s, spec.dim), max_offset=reach)


class PairEngine:
    """Pair sums of one grid spec and policy, all on the box.

    The policy sets the exterior's universe U: Z^n for AnalyticTail in 1D,
    else the box padded by ``pad`` cells, ceil(R/h) under TruncateAtRadius
    (AnalyticTail: twice the box's longest side), with the mass beyond in
    ``truncation_bound``.  ``pad_masses`` keeps ``_exterior_parts`` in U
    per exterior model, and ``exterior_fields`` reads its M_1 and M_0.
    Spectra, exterior parts and the row totals 1 (*) w (``row_totals``)
    are made on first use and kept.  ``bumps`` keeps the mollifier spectra
    of ``approx``'s ladders on this grid, by (eps, FFT grid).  ``occupancy``
    and ``embed`` place masks on ``padded_spec`` for explicit references.
    """

    def __init__(self, spec: GridSpec, policy, table: InteractionTable):
        if table.spec.h != spec.h or table.spec.dim != spec.dim:
            raise SpecMismatch("table spec does not match grid spec")
        self.spec = spec
        self.policy = policy
        self.table = table
        self.pad = _pad_cells(spec, policy)
        self._universe = None if isinstance(policy, AnalyticTail) and spec.dim == 1 else self.pad
        self.padded_spec = spec.padded(self.pad)
        self._spectra: dict = {}
        self._exterior: dict = {}
        self._rows = None
        self._tails = None
        self.bumps: dict = {}

    def occupancy(self, cellset: CellSet) -> np.ndarray:
        if cellset.spec != self.spec:
            raise SpecMismatch("cell set built on a different grid spec")
        return cellset.occupancy_on(self.padded_spec)

    def embed(self, box_mask: np.ndarray) -> np.ndarray:
        """Box-level bitmask placed in the padded universe (pad cells False)."""
        return np.pad(np.asarray(box_mask, dtype=bool), self.pad)

    def fields(self, *masks: np.ndarray) -> list[np.ndarray]:
        """A (*) w on the box for each box-shaped mask A: the interaction
        of every box cell with A.  The non-empty masks share one batched
        transform; an empty one gives zeros with none."""
        return _fields(masks, self.table, self._spectra)

    def row_totals(self) -> np.ndarray:
        """1 (*) w on the box, each box cell's mass to the whole box: its
        rectangle sum, made on first use and kept."""
        if self._rows is None:
            self._rows = _rectangle_masses(self.table, self.spec.extent, 0,
                                           (0,) * self.spec.dim, self.spec.extent)
        return self._rows

    def exterior_fields(self, exterior) -> tuple[np.ndarray, np.ndarray]:
        """(X_E, X_C) per box cell: the mass to the exterior in U inside E
        and outside E, the M_1 and M_0 of ``pad_masses``."""
        return _exterior_fields(self.pad_masses(exterior), self.spec.extent)

    def pad_masses(self, exterior) -> list[tuple[float, np.ndarray]]:
        """(v, M_v) for each value v a field with this exterior (a constant
        or an occupancy model) takes in U beyond the box, M_v(a) the mass of
        box cell a to the cells holding v: ``_exterior_parts``, made on
        first use and kept."""
        if exterior not in self._exterior:
            self._exterior[exterior] = _exterior_parts(self.spec, exterior, self.table,
                                                       self._universe)
        return self._exterior[exterior]

    def truncation_bound(self, omega_box: np.ndarray, E: CellSet) -> float:
        """Neglected-mass bound: per-cell volume times the point tail mass.

        Zero when the universe is Z^n, which neglects nothing.  Otherwise
        only window cells whose phase can differ from the exterior beyond
        the universe lose mass there: E's cells under EmptyExterior, its
        complement's under FullExterior, every cell otherwise.
        """
        if self._universe is None:
            return 0.0
        cells = np.asarray(omega_box, dtype=bool)
        if isinstance(E.exterior, EmptyExterior):
            cells = cells & E.inside
        elif isinstance(E.exterior, FullExterior):
            cells = cells & ~E.inside
        if self._tails is None:
            pts = self.spec.centers()
            lo = self.padded_spec.box_lo
            hi = self.padded_spec.box_hi
            r = np.minimum((pts - lo).min(axis=1), (hi - pts).min(axis=1))
            self._tails = _tail_terms(r, self.spec.h, self.table.params).reshape(
                self.spec.extent)
        return float(self._tails[cells].sum())


def _engine_for(window: DomainWindow, table: InteractionTable) -> PairEngine:
    """The table's engine for the window's spec and policy, made once."""
    key = (window.spec, window.complement_policy)
    if key not in table._engines:
        table._engines[key] = PairEngine(window.spec, window.complement_policy, table)
    return table._engines[key]


# ---------------------------------------------------------------------------
# Perimeter and identities.
# ---------------------------------------------------------------------------


def perimeter(E: CellSet, window: DomainWindow, table: InteractionTable) -> PerimeterBreakdown:
    """s-perimeter of E in the window: local + nonlocal three-term sum,
    from one batched FFT correlation of two box masks (none for an empty
    one) and the exterior fields (``_breakdown``,
    ``PairEngine.exterior_fields``).
    """
    if E.spec != window.spec:
        raise SpecMismatch("cell set and window specs differ")
    eng = _engine_for(window, table)
    om = window.omega
    return _breakdown(E.inside, om, eng, *eng.exterior_fields(E.exterior),
                      eng.truncation_bound(om, E))


def _decomposition_terms(E: CellSet, inner: DomainWindow, outer: DomainWindow,
                         eng: PairEngine) -> tuple[float, float, float, float]:
    """P(E, outer), P(E, inner), L(E n strip, cE \\ inner) and
    L(E \\ outer, cE n strip), strip = outer \\ inner, both perimeters
    under the outer window's policy.

    The five distinct masks, E n outer, E \\ outer, E n inner, E \\ inner
    and E n strip, share one batched correlation.  The perimeters are
    ``_perimeter_sums`` of their two fields; the cross terms are box pair
    sums from the fields of E n strip and E \\ outer, plus X_C over
    E n strip and X_E over cE n strip.
    """
    inside = E.inside
    om_in, om_out = inner.omega, outer.omega
    strip = om_out & ~om_in
    x_e, x_c = eng.exterior_fields(E.exterior)
    e_strip = inside & strip
    c_strip = ~inside & strip
    f_out_in, f_out_out, f_in_in, f_in_out, f_strip = eng.fields(
        inside & om_out, inside & ~om_out, inside & om_in, inside & ~om_in, e_strip)
    p_outer = sum(_perimeter_sums(inside, om_out, f_out_in, f_out_out, x_e, x_c))
    p_inner = sum(_perimeter_sums(inside, om_in, f_in_in, f_in_out, x_e, x_c))
    cross1 = float(f_strip[~inside & ~om_in].sum()) + float(x_c[e_strip].sum())
    cross2 = float(f_out_out[c_strip].sum()) + float(x_e[c_strip].sum())
    return p_outer, p_inner, cross1, cross2


def decomposition_check(E: CellSet, inner: DomainWindow, outer: DomainWindow,
                        table: InteractionTable) -> float:
    """Residual of the window-decomposition identity; exactly zero up to
    floating-point accumulation.

    P(E, outer) = P(E, inner) + L(E n strip, cE \\ inner)
                + L(E \\ outer, cE n strip) with strip = outer \\ inner;
    the second cross term excludes the strip itself so that strip-strip
    pairs are not counted twice.  Every term comes from one batched
    correlation (``_decomposition_terms``).
    """
    if E.spec != inner.spec or E.spec != outer.spec:
        raise SpecMismatch("specs differ")
    if np.any(inner.omega & ~outer.omega):
        raise NotNested("inner window must be contained in the outer window")
    p_outer, *rhs = _decomposition_terms(E, inner, outer, _engine_for(outer, table))
    return abs(p_outer - math.fsum(rhs))


def relaxed_energy(u: ScalarField, window: DomainWindow, table: InteractionTable) -> float:
    """F(u, Omega): half the within-window seminorm plus the cross term.

    Explicitly, the sum of w(j - a) |u_a - u_j| over the unordered pairs
    of box cells {a, j} with a in the window, each pair once.  The window
    cells are the rows, sorted by decreasing u, and a pair of two sits in
    the row of the later; a pair with a non-window cell j sits in the row
    of its window cell a, and gives u_j - u_a when u_j is larger, else
    u_a - u_j (``_ordered_pair_blocks``).  A chunk of rows is one product
    of its signed weights with [u - c, 1], c the value of its first row:
    the sums B1 and B0, and the row's energy is B1 - (u_a - c) B0, with no
    cancellation against the common offset of the values.  The exterior
    adds, over the distinct values v it takes beyond the box, the sum of
    |u_a - v| M_v(a) with M_v(a) the mass of a to the exterior cells
    holding v (``PairEngine.pad_masses``).  For an indicator field this
    reproduces perimeter(...).total exactly.
    """
    if u.spec != window.spec:
        raise SpecMismatch("field and window specs differ")
    eng = _engine_for(window, table)
    om = window.omega
    vals = u.values
    cells, v = [], []
    for side in (om, ~om):  # window cells, then the others, each by decreasing u
        order = np.argsort(-vals[side], kind="stable")
        cells.append(np.argwhere(side)[order])
        v.append(vals[side][order])
    # the others before each window cell: those of larger u (ties add 0)
    split = np.searchsorted(-v[1], -v[0])
    cells, v = np.concatenate(cells), np.concatenate(v)
    parts = []
    for lo, hi, w, cols in _ordered_pair_blocks(cells, eng.table, split):
        c = v[lo]
        b1, b0 = (w @ np.stack((v[cols] - c, np.ones(w.shape[1])), axis=1)).T
        parts.append(float(np.sum(b1 - (v[lo:hi] - c) * b0)))
    v_om = vals[om]
    parts += [float(np.abs(v_om - x) @ mass[om]) for x, mass in eng.pad_masses(u.exterior)]
    return math.fsum(parts)


def coarea_check(u: ScalarField, window: DomainWindow,
                 table: InteractionTable) -> tuple[float, float]:
    """Discrete coarea: F(u, Omega) vs the level-weighted perimeter sum.

    The levels are the field's box values and the values its exterior
    takes beyond the box (those of ``PairEngine.pad_masses``).  Each
    level set's perimeter is ``_perimeter_sums`` of its two masks' fields,
    and the masks of up to ``_LEVEL_BATCH`` level sets share one
    ``PairEngine.fields`` batch.
    """
    lhs = relaxed_energy(u, window, table)
    eng = _engine_for(window, table)
    level_values = set(np.unique(u.values).tolist())
    level_values.update(v for v, _ in eng.pad_masses(u.exterior))
    levels = sorted(level_values)
    steps = list(zip(levels[:-1], levels[1:]))
    om = window.omega
    parts = []
    for start in range(0, len(steps), _LEVEL_BATCH):
        batch = steps[start:start + _LEVEL_BATCH]
        sups = [superlevel(u, t_low) for t_low, _ in batch]
        fields = eng.fields(*[m for sup in sups for m in (sup.inside & om, sup.inside & ~om)])
        for (t_low, t_high), sup, f_in, f_out in zip(batch, sups, fields[::2], fields[1::2]):
            local, nonlocal_ = _perimeter_sums(sup.inside, om, f_in, f_out,
                                               *eng.exterior_fields(sup.exterior))
            parts.append((t_high - t_low) * (local + nonlocal_))
    return lhs, math.fsum(parts)


def superlevel(u: ScalarField, t: float) -> CellSet:
    """Superlevel set {u > t}, inheriting the field's exterior model."""
    ext = u.exterior
    if isinstance(ext, (int, float)):
        model = FullExterior() if float(ext) > t else EmptyExterior()
    else:
        # occupancy-model exterior: values are 0/1 out there
        model = ext if 0.0 <= t < 1.0 else (
            FullExterior() if t < 0.0 else EmptyExterior()
        )
    return CellSet(u.spec, u.values > t, model)


# ---------------------------------------------------------------------------
# 1D divergence probe (interval-union set with locally finite s-perimeter).
# ---------------------------------------------------------------------------


def divergence_probe_1d(beta, m: int, s: float, total_length: float | None = None) -> float:
    """Partial s-perimeter of the union of even-indexed gap intervals.

    ``beta`` maps k >= 1 to the k-th interval length (decreasing, positive,
    summable).  The set is the union of intervals I_{2j}, j <= m, inside
    Omega = (0, M); M defaults to the sum of the lengths actually used plus
    a margin so all intervals are strictly inside Omega.
    """
    KernelParams(s, 1)  # s in (0, 1), else the kernel's ValueError
    if m < 1:
        raise InvalidSequence("m must be >= 1")
    n_terms = 2 * m + 2
    b = np.array([float(beta(k)) for k in range(1, n_terms + 1)])
    if np.any(b <= 0) or np.any(np.diff(b) > 0):
        raise InvalidSequence("beta must be positive and non-increasing")
    sigma = np.concatenate([[0.0], np.cumsum(b)])  # sigma[k] = sum_{i<=k}
    intervals_e = [(sigma[2 * j], sigma[2 * j + 1]) for j in range(1, m + 1)]
    last_end = sigma[2 * m + 1]
    M = total_length if total_length is not None else float(last_end + b[-1])
    if M <= last_end:
        raise InvalidSequence("total_length must exceed the last interval end")
    # complement pieces inside (0, M)
    comp = [(0.0, sigma[2])]
    comp += [(sigma[2 * j + 1], sigma[2 * j + 2]) for j in range(1, m)]
    comp.append((sigma[2 * m + 1], M))
    parts = []
    for a, bb in intervals_e:
        for c, d in comp:
            if d <= a:
                parts.append(interval_pair_exact(c, d, a, bb, s))
            elif c >= bb:
                parts.append(interval_pair_exact(a, bb, c, d, s))
            else:
                raise InvalidSequence("overlapping intervals; beta inconsistent")
        # exterior rays (complement of Omega is complement of E as well)
        parts.append(interval_ray_exact(-bb, -a, 0.0, s))  # (-inf, 0]
        parts.append(interval_ray_exact(a, bb, M, s))  # [M, inf)
    return math.fsum(parts)


def log_square_beta(k: int) -> float:
    """Canonical probe family: summable but with divergent (1-s)-sums."""
    return 1.0 / (k * math.log(k + 1.0) ** 2)


@lru_cache(maxsize=1)
def log_square_total(n_terms: int = 1_000_000) -> float:
    """Approximate total length of the canonical family, with integral tail."""
    k = np.arange(1, n_terms + 1, dtype=float)
    partial = float(np.sum(1.0 / (k * np.log(k + 1.0) ** 2)))
    return partial + 1.0 / math.log(n_terms + 1.0)


# ---------------------------------------------------------------------------
# Strip-interaction exponent.
# ---------------------------------------------------------------------------


def geometric_ratio(deltas) -> float:
    """Common ratio r = delta_k / delta_{k+1} of a geometric width schedule.

    The widths must be positive with ratios that agree to 1e-9 relative
    and differ from 1; NaN when fewer than two widths are given.
    """
    d = np.asarray(deltas, dtype=float)
    if np.any(~(d > 0.0)):
        raise InvalidSchedule("strip widths must be positive")
    r = d[:-1] / d[1:]
    if r.size == 0:
        return math.nan
    if np.ptp(r) > 1e-9 * r[0] or abs(r[0] - 1.0) <= 1e-9:
        raise InvalidSchedule(
            "strip widths must form a geometric sequence with ratio != 1"
        )
    return float(r[0])


def strip_exponent(deltas, values) -> float:
    """Exponent p of the leading term of L(delta) = A delta^p + B delta + ...

    Least-squares slope of log|M_k| against log delta_k, with
    M_k = r L(delta_{k+1}) - L(delta_k) and r the schedule's common ratio.
    The difference cancels any linear term exactly and leaves
    A (r^(1-p) - 1) delta_k^p, so the slope is p whatever B is; a pure
    power fit of log L is biased by the linear term, which in the unit
    square's strip interaction is large (Per_s of the core scales as
    (1 - 2 delta)^(1-s)).  NaN when fewer than three widths are given or
    when the differences vanish or change sign.
    """
    r = geometric_ratio(deltas)
    d = np.asarray(deltas, dtype=float)
    v = np.asarray(values, dtype=float)
    if d.shape != v.shape:
        raise SpecMismatch("one value per strip width is required")
    if d.size < 3:
        return math.nan
    m = r * v[1:] - v[:-1]
    if not (np.all(m > 0.0) or np.all(m < 0.0)):
        return math.nan
    return float(np.polyfit(np.log(d[:-1]), np.log(np.abs(m)), 1)[0])
