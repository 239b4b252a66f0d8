"""Kernel closed forms, quadrature tables, and their invariances."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from fracperim.errors import InvalidInterval, InvalidRadius
from fracperim.grid import GridSpec
from fracperim.kernel import (
    InteractionTable,
    KernelParams,
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
        assert t.weight([1, 0]) == pytest.approx(_TOUCHING_2D_S05, rel=1e-3)

    def test_near_field_self_convergence(self):
        spec = GridSpec(2, (0.0, 0.0), (3, 3), 1.0)
        lo = build_table(spec, KernelParams(0.5, 2, near_field_order=6), 2)
        hi = build_table(spec, KernelParams(0.5, 2, near_field_order=8), 2)
        for off in ((1, 0), (1, 1), (2, 0), (2, 1), (2, 2)):
            a, b = lo.weight(off), hi.weight(off)
            assert abs(a - b) / abs(b) < 0.01

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


class TestCache:
    def test_save_load_round_trip(self, tmp_path):
        spec = GridSpec(2, (0.0, 0.0), (4, 4), 0.5)
        t = build_table(spec, KernelParams(0.45, 2), max_offset=3)
        path = tmp_path / "weights.fractbl"
        t.save(path)
        back = InteractionTable.load(path, spec)
        assert back.max_offset == t.max_offset
        assert back.params == t.params
        assert np.array_equal(back.weights, t.weights)

    def test_load_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.fractbl"
        path.write_bytes(b"NOTATBL1" + b"\x00" * 64)
        spec = GridSpec(2, (0.0, 0.0), (4, 4), 0.5)
        with pytest.raises(ValueError):
            InteractionTable.load(path, spec)


class TestBallVolume:
    def test_known_values(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
