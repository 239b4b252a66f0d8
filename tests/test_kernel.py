"""Kernel closed forms, quadrature tables, and their invariances."""

import itertools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from fracperim import functional
from fracperim.errors import InvalidInterval, InvalidRadius
from fracperim.grid import (
    AnalyticTail,
    CellSet,
    DomainWindow,
    GridSpec,
    TruncateAtRadius,
    full_window,
)
from fracperim.kernel import (
    _FAR_DISTANCE,
    _FAR_NODES,
    _NEAR_NODES,
    KernelParams,
    _corner_integrals,
    _gauss_legendre,
    build_table,
    interval_pair_exact,
    interval_ray_exact,
    tail_mass,
    unit_ball_volume,
)

# exact reference for the edge-touching unit-cell pair in 2D at s = 0.5,
# computed by reducing the pair integral to a one-dimensional hyperbolic
# substitution evaluated to 12+ digits
_TOUCHING_2D_S05 = 3.647087515502968


def _near_class_integral(offset, s):
    """Adaptive-quadrature reference for the 2D unit-cell pair weight.

    int rho(v) |v|^(-2-s) dv with rho(v) = prod_a max(0, 1 - |v_a - d_a|),
    by ``dblquad`` on each of the four unit pieces of the support.  Each
    piece is split at the diagonal through its corner nearest the origin,
    so that a singular corner is a triangle vertex; one ``dblquad`` over
    the whole support stalls about 1.5e-10 off at (1, 0) and s = 0.95.
    """
    p = 2.0 + s
    d = np.asarray(offset, dtype=float)

    def integrand(x, y):
        rho = max(0.0, 1.0 - abs(x - d[0])) * max(0.0, 1.0 - abs(y - d[1]))
        return rho * (x * x + y * y) ** (-p / 2.0)

    total = 0.0
    with warnings.catch_warnings():
        # roundoff warnings fire while the extrapolation table saturates
        # well past the accuracy we keep; the values are stable
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for lo in itertools.product(*[(di - 1.0, di) for di in d]):
            cx, cy = (lo_a if abs(lo_a) <= abs(lo_a + 1.0) else lo_a + 1.0
                      for lo_a in lo)
            sx, sy = (1.0 if c == lo_a else -1.0 for c, lo_a in zip((cx, cy), lo))
            below, _ = integrate.dblquad(
                lambda b, a: integrand(cx + sx * a, cy + sy * b),
                0.0, 1.0, 0.0, lambda a: a, epsabs=1e-14, epsrel=1e-13)
            above, _ = integrate.dblquad(
                lambda a, b: integrand(cx + sx * a, cy + sy * b),
                0.0, 1.0, 0.0, lambda b: b, epsabs=1e-14, epsrel=1e-13)
            total += below + above
    return total


def _gauss_legendre_pair(offset, s, nodes=24):
    """Tensor Gauss-Legendre on each unit piece of the support of rho, for
    offsets whose pieces all stay at distance >= 1 from the origin."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    n = len(offset)
    total = 0.0
    for lo in itertools.product(*[(d - 1, d) for d in offset]):
        v = np.meshgrid(*[a + x for a in lo], indexing="ij")
        rho = np.ones_like(v[0])
        for va, d in zip(v, offset):
            rho *= 1.0 - np.abs(va - d)
        wt = np.prod(np.meshgrid(*([w] * n), indexing="ij"), axis=0)
        total += np.sum(wt * rho * sum(va**2 for va in v) ** (-(n + s) / 2.0))
    return total


def _piece_integrals(lower, rising, n, s, q, chunk=1 << 18):
    """int over lower + [0,1]^n of prod_a l_a(x_a) |lower + x|^(-n-s) dx.

    l_a(x) = x where ``rising[a]``, else 1 - x.  Tensor Gauss-Legendre
    with q nodes per axis, one piece at a time; every piece lies at
    distance >= 1 from the origin, where the integrand is smooth.
    """
    x, w = _gauss_legendre(q)
    wt = np.ones(())
    for r in rising:
        wt = np.multiply.outer(wt, w * (x if r else 1.0 - x))
    wt = wt.ravel()
    out = np.empty(len(lower))
    step = max(1, chunk // q**n)
    for lo in range(0, len(lower), step):
        blk = lower[lo:lo + step]
        r2 = 0.0
        for a in range(n):
            shape = [len(blk)] + [1] * n
            shape[a + 1] = q
            r2 = r2 + ((blk[:, a, None] + x) ** 2).reshape(shape)
        vals = (r2 ** (-0.5 * (n + s))).reshape(len(blk), -1)
        out[lo:lo + step] = np.einsum("ij,j->i", vals, wt)
    return out


def _unit_weights(offsets, n, s):
    """Per-piece oracle for the unit-cube pair weights at nonzero offsets.

    The weight at offset delta is int rho(v) |v|^(-n-s) dv with overlap
    density rho(v) = prod_a max(0, 1 - |v_a - delta_a|).  Its support
    delta + [-1,1]^n splits into 2^n unit pieces with lower corners
    delta - e, e in {0,1}^n, on which rho is prod_a (x_a if e_a else
    1 - x_a) in local coordinates x.  Each piece of each weight is
    integrated on its own, with the near/far node counts of
    ``build_table``, after sorting the offset into descending |delta_a|.
    A piece touches the origin only when every delta_a is 0 or 1;
    reflected onto [0,1]^n it is the corner integral with one rising
    factor per delta_a = 1, and there are 2^(n - j) of them for j such
    axes.
    """
    d = np.sort(np.abs(np.asarray(offsets, dtype=np.int64)), axis=1)[:, ::-1]
    assert d[:, 0].all(), "the zero offset has no finite pair weight"
    out = np.zeros(len(d))
    touching = d[:, 0] == 1
    j = d[touching].sum(axis=1)
    out[touching] = _corner_integrals(n, s)[j - 1] * 2.0 ** (n - j)
    for e in np.ndindex((2,) * n):
        lower = d - np.asarray(e)
        smooth = np.any((lower > 0) | (lower < -1), axis=1)
        gap2 = np.sum(np.maximum(lower, -1 - lower) ** 2, axis=1)
        near = gap2 < _FAR_DISTANCE**2
        for q, sel in ((_NEAR_NODES, smooth & near), (_FAR_NODES, smooth & ~near)):
            if sel.any():
                out[sel] += _piece_integrals(lower[sel].astype(float), e, n, s, q)
    return out


def _quad_pair(a, b, c, d, s):
    val, _ = integrate.dblquad(
        lambda y, x: abs(x - y) ** (-1.0 - s), a, b, c, d,
        epsabs=1e-13, epsrel=1e-12,
    )
    return val


class TestClosedForms:
    @given(
        s=st.floats(0.05, 0.95),
        a=st.floats(-2.0, 2.0),
        w1=st.floats(0.05, 1.5),
        gap=st.floats(0.01, 2.0),
        w2=st.floats(0.05, 1.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_interval_pair_matches_quadrature(self, s, a, w1, gap, w2):
        b, c = a + w1, a + w1 + gap
        d = c + w2
        exact = interval_pair_exact(a, b, c, d, s)
        approx = _quad_pair(a, b, c, d, s)
        assert exact == pytest.approx(approx, rel=1e-7, abs=1e-10)

    def test_interval_pair_touching(self):
        # adaptive quadrature loses digits at the shared endpoint, so the
        # tolerance is looser than in the separated case
        exact = interval_pair_exact(0.0, 1.0, 1.0, 2.0, 0.5)
        approx = _quad_pair(0.0, 1.0, 1.0, 2.0, 0.5)
        assert exact == pytest.approx(approx, rel=1e-4)

    def test_interval_ray_is_limit_of_pairs(self):
        s = 0.7
        ray = interval_ray_exact(0.0, 1.0, 1.5, s)
        far = interval_pair_exact(0.0, 1.0, 1.5, 1.5 + 1e7, s)
        assert ray == pytest.approx(far, rel=5e-5)
        assert ray > far

    def test_interval_orderings_enforced(self):
        with pytest.raises(InvalidInterval):
            interval_pair_exact(0.0, 2.0, 1.0, 3.0, 0.5)
        with pytest.raises(InvalidInterval):
            interval_ray_exact(0.0, 1.0, 0.5, 0.5)

    def test_tail_mass_values(self):
        # n omega_n / (s R^s): 1D, s=0.5, R=1 -> 2/0.5 = 4
        assert tail_mass(1.0, KernelParams(0.5, 1)) == pytest.approx(4.0)
        p = KernelParams(0.3, 2)
        num, _ = integrate.quad(
            lambda r: 2 * math.pi * r * r ** (-2.0 - 0.3), 2.0, np.inf
        )
        assert tail_mass(2.0, p) == pytest.approx(num, rel=1e-10)
        with pytest.raises(InvalidRadius):
            tail_mass(0.0, p)


class TestTable1D:
    def test_weights_match_closed_form(self):
        spec = GridSpec(1, (0.0,), (6,), 0.5)
        t = build_table(spec, KernelParams(0.6, 1), max_offset=5)
        for d in range(1, 6):
            expect = interval_pair_exact(0.0, 0.5, 0.5 * d, 0.5 * (d + 1), 0.6)
            assert t.weight([d]) == pytest.approx(expect, rel=1e-14)
            assert t.weight([-d]) == t.weight([d])
        assert t.weight([0]) == 0.0


class TestTable2D:
    def test_symmetry_group(self):
        spec = GridSpec(2, (0.0, 0.0), (5, 5), 1.0)
        t = build_table(spec, KernelParams(0.5, 2), max_offset=4)
        for dx, dy in itertools.product(range(5), repeat=2):
            if dx == dy == 0:
                continue
            ref = t.weight([dx, dy])
            for sx, sy in itertools.product((-1, 1), repeat=2):
                assert t.weight([sx * dx, sy * dy]) == ref
            assert t.weight([dy, dx]) == ref

    def test_h_scaling_exact(self):
        p = KernelParams(0.35, 2)
        t1 = build_table(GridSpec(2, (0.0, 0.0), (4, 4), 1.0), p, 3)
        t2 = build_table(GridSpec(2, (0.0, 0.0), (4, 4), 0.25), p, 3)
        ratio = 0.25 ** (2 - 0.35)
        assert np.allclose(t2.weights, t1.weights * ratio, rtol=1e-14)

    def test_block_per_axis_reaches(self):
        spec = GridSpec(2, (0.0, 0.0), (4, 4), 1.0)
        t = build_table(spec, KernelParams(0.5, 2), max_offset=3)
        assert np.array_equal(t.block(2), t.weights[1:6, 1:6])
        assert np.array_equal(t.block((1, 3)), t.weights[2:5, :])
        with pytest.raises(ValueError):
            t.block((1, 4))
        with pytest.raises(ValueError):
            t.block(4)

    def test_pairs_errors_and_empty_lists(self):
        t = build_table(GridSpec(2, (0.0, 0.0), (4, 4), 1.0), KernelParams(0.5, 2), 3)
        cells = np.array([[0, 0], [3, 1]])
        empty = np.empty((0, 2), dtype=int)
        assert t.pairs(empty, cells).shape == (0, 2)
        assert t.pairs(cells, empty).shape == (2, 0)
        assert t.pairs(empty, empty).shape == (0, 0)
        for far in ([[4, 0]], [[0, -4]], [[-1, 1]]):
            with pytest.raises(ValueError):
                t.pairs(cells, np.array(far))
            with pytest.raises(ValueError):
                t.pairs(np.array(far), cells)
        # only the offsets count, not where the cells lie
        got = t.pairs(cells + 10, np.array([[13, 11]]))
        assert got.tolist() == [[t.weight([3, 1])], [0.0]]

    def test_touching_pair_against_reference(self):
        spec = GridSpec(2, (0.0, 0.0), (3, 3), 1.0)
        t = build_table(spec, KernelParams(0.5, 2), max_offset=2)
        assert t.weight([1, 0]) == pytest.approx(_TOUCHING_2D_S05, rel=1e-12)

    @pytest.mark.parametrize("s", [0.05, 0.3, 0.5, 0.7, 0.95])
    def test_near_classes_match_dblquad(self, s):
        t = build_table(GridSpec(2, (0.0, 0.0), (3, 3), 1.0), KernelParams(s, 2), 2)
        for off in [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]:
            assert t.weight(off) == pytest.approx(_near_class_integral(off, s), rel=1e-10), off

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_far_offsets_match_gauss_legendre(self, s):
        t = build_table(GridSpec(2, (0.0, 0.0), (4, 4), 1.0), KernelParams(s, 2), 40)
        for off in [(3, 0), (5, 2), (11, 0), (40, 17)]:
            assert t.weight(off) == pytest.approx(_gauss_legendre_pair(off, s), rel=1e-12), off

    def test_far_field_matches_point_kernel(self):
        spec = GridSpec(2, (0.0, 0.0), (20, 20), 1.0)
        t = build_table(spec, KernelParams(0.5, 2), max_offset=19)
        # at large separation the cell pair integral approaches the
        # midpoint kernel value times the unit cell volumes; the kernel is
        # convex so the pair integral sits slightly above the point value,
        # by a relative O(|offset|^-2) curvature term
        d = np.hypot(15.0, 8.0)
        point = d ** (-2.5)
        assert t.weight([15, 8]) > point
        assert t.weight([15, 8]) == pytest.approx(point, rel=5e-3)


@pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("dim,K", [(2, 40), (3, 12)])
def test_table_matches_per_piece_oracle(dim, K, s):
    # the table shares each lattice square's kernel values between the
    # weights whose support covers it; the oracle integrates every piece
    # of every weight on its own
    t = build_table(GridSpec(dim, (0.0,) * dim, (4,) * dim, 1.0), KernelParams(s, dim), K)
    offsets = np.indices(t.weights.shape).reshape(dim, -1).T - K
    nonzero = np.any(offsets != 0, axis=1)
    got = t.weights.ravel()
    assert np.all(got[~nonzero] == 0.0)
    expect = _unit_weights(offsets[nonzero], dim, s)
    assert np.max(np.abs(got[nonzero] / expect - 1.0)) < 2e-15


@pytest.mark.parametrize("dim,K", [(1, 9), (2, 5), (3, 3)])
def test_pairs_match_weight_lookups(rng, dim, K):
    # cells of a box of side K + 1, so every offset up to +-K on each axis
    # can occur; the two corners put +-K on every axis at once
    t = build_table(GridSpec(dim, (0.0,) * dim, (K + 1,) * dim, 0.5), KernelParams(0.4, dim), K)
    a = np.vstack([rng.integers(0, K + 1, size=(7, dim)), [[0] * dim, [K] * dim]])
    b = np.vstack([rng.integers(0, K + 1, size=(5, dim)), [[K] * dim, [0] * dim]])
    got = t.pairs(a, b)
    assert got.shape == (len(a), len(b))
    ref = [[t.weight(bj - ai) for bj in b] for ai in a]
    assert np.array_equal(got, ref)
    assert got[-2, -2] == t.weight([K] * dim) and got[-1, -2] == t.weight([0] * dim)


@pytest.mark.parametrize("dim,h,small,large", [(2, 1.0 / 6, 17, 29), (3, 0.25, 15, 23)])
def test_weights_do_not_depend_on_reach(dim, h, small, large):
    # each weight is summed on its own, not in a chunk whose size the reach sets
    spec = GridSpec(dim, (0.0,) * dim, (4,) * dim, h)
    t_small = build_table(spec, KernelParams(0.5, dim), small)
    t_large = build_table(spec, KernelParams(0.5, dim), large)
    assert np.array_equal(t_large.block(small), t_small.weights)


class TestTable3D:
    def test_symmetry_group(self):
        t = build_table(GridSpec(3, (0.0,) * 3, (5,) * 3, 0.2), KernelParams(0.5, 3), 6)
        for axes in itertools.chain.from_iterable(
                itertools.combinations(range(3), k) for k in (1, 2, 3)):
            assert np.array_equal(np.flip(t.weights, axes), t.weights), axes
        for perm in itertools.permutations(range(3)):
            assert np.array_equal(t.weights.transpose(perm), t.weights), perm

    def test_build_peak_memory(self):
        # the moment array is released before the table is filled, so the
        # build's peak stays near the table's own size
        tracemalloc.start()
        try:
            t = build_table(GridSpec(3, (0.0,) * 3, (4,) * 3, 0.25), KernelParams(0.5, 3), 63)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * t.weights.nbytes

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_marginal_is_beta_times_2d_weight(self, s):
        # summing rho over the last axis gives 1, and the kernel's line
        # integral in dimension n is B(1/2, (n-1+s)/2) |v'|^(-n+1-s); the
        # weights beyond |d| = K are |d|^(-n-s) to O(K^-2) relative, summed
        # by the midpoint rule.  3D -> 2D at three offsets, 2D -> 1D rows.
        cases = (
            (3, ((1, 0), (1, 1), (2, 1)), 400),
            (2, ((1,), (2,), (5,)), 4000),
        )
        for n, offs, K in cases:
            d = np.arange(-K, K + 1)
            for off in offs:
                offsets = np.column_stack([np.full_like(d, o) for o in off] + [d])
                total = math.fsum(_unit_weights(offsets, n, s))
                total += 2.0 * (K + 0.5) ** (1.0 - n - s) / (n - 1.0 + s)
                if n == 3:
                    lower = _unit_weights(np.array([off]), 2, s)[0]
                else:
                    lower = interval_pair_exact(0.0, 1.0, off[0], off[0] + 1.0, s)
                expect = special.beta(0.5, 0.5 * (n - 1.0 + s)) * lower
                assert total == pytest.approx(expect, rel=1e-9), off

    def test_analytic_tail_table_builds_fast(self):
        spec = GridSpec(3, (0.0,) * 3, (8, 8, 8), 0.125)
        start = time.perf_counter()
        t = functional.table_for(spec, 0.5, AnalyticTail())
        assert time.perf_counter() - start < 10.0
        assert t.weights.shape == (2 * t.max_offset + 1,) * 3
        assert t.weight([1, 0, 0]) == t.weight([0, 0, -1]) > t.weight([1, 1, 0])

    def test_complement_and_decomposition_identities(self, rng):
        spec = GridSpec(3, (0.0,) * 3, (6, 6, 6), 1.0 / 6)
        policy = TruncateAtRadius(0.5)
        table = functional.table_for(spec, 0.5, policy)
        E = CellSet(spec, rng.random(spec.extent) < 0.5)
        outer = full_window(spec, policy)
        p = functional.perimeter(E, outer, table).total
        p_c = functional.perimeter(E.complement(), outer, table).total
        assert abs(p - p_c) <= 1e-10 * (1.0 + p)
        sub = np.zeros(spec.extent, dtype=bool)
        sub[1:5, 2:5, 1:4] = True
        inner = DomainWindow(spec, sub, policy)
        res = functional.decomposition_check(E, inner, outer, table)
        assert res <= 1e-10 * (1.0 + p)


class TestBallVolume:
    def test_known_values(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
