"""Kernel closed forms, quadrature tables, and their invariances."""

import itertools
import math
import time
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
    KernelParams,
    _unit_weights,
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

    def test_touching_pair_against_reference(self):
        spec = GridSpec(2, (0.0, 0.0), (3, 3), 1.0)
        t = build_table(spec, KernelParams(0.5, 2), max_offset=2)
        assert t.weight([1, 0]) == pytest.approx(_TOUCHING_2D_S05, rel=1e-12)

    @pytest.mark.parametrize("s", [0.05, 0.3, 0.5, 0.7, 0.95])
    def test_near_classes_match_dblquad(self, s):
        offsets = [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
        got = _unit_weights(np.array(offsets), 2, s)
        for off, w in zip(offsets, got):
            assert w == pytest.approx(_near_class_integral(off, s), rel=1e-10), off

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_far_offsets_match_gauss_legendre(self, s):
        offsets = [(3, 0), (5, 2), (11, 0), (40, 17)]
        got = _unit_weights(np.array(offsets), 2, s)
        for off, w in zip(offsets, got):
            assert w == pytest.approx(_gauss_legendre_pair(off, s), rel=1e-12), off

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


@pytest.mark.parametrize("dim,h,small,large", [(2, 1.0 / 6, 17, 29), (3, 0.25, 15, 23)])
def test_weights_do_not_depend_on_reach(dim, h, small, large):
    # each weight is summed on its own, not in a chunk whose size the reach sets
    spec = GridSpec(dim, (0.0,) * dim, (4,) * dim, h)
    t_small = build_table(spec, KernelParams(0.5, dim), small)
    t_large = build_table(spec, KernelParams(0.5, dim), large)
    assert np.array_equal(t_large.block(small), t_small.weights)


class TestTable3D:
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
