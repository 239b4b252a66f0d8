"""Convex relaxation, thresholding, and exhaustive oracles."""

import numpy as np
import pytest
from scipy import signal

from fracperim import minimize
from fracperim.errors import NotNested, OracleTooLarge
from fracperim.functional import PairEngine
from fracperim.grid import (
    AnalyticTail,
    CellSet,
    DomainWindow,
    GridSpec,
    HalfSpaceExterior,
    TruncateAtRadius,
    cellset_from_shape,
)
from fracperim.minimize import (
    MinimizationProblem,
    brute_force_minimum,
    check_minimality_equivalence,
    solve_and_threshold,
    solve_locally_minimal,
)
from tests.conftest import table_for


def _problem_1d(n=12, free=slice(4, 9), level=0.5):
    spec = GridSpec(1, (0.0,), (n,), 1.0 / n)
    E0 = cellset_from_shape(spec, {"shape": "halfspace", "axis": 0, "level": level})
    omega = np.zeros(spec.extent, dtype=bool)
    omega[free] = True
    win = DomainWindow(spec, omega, AnalyticTail())
    table = table_for(spec, 0.5, AnalyticTail())
    return MinimizationProblem(win, E0, table)


def _problem_2d(rng, n=6, s=0.5, policy=AnalyticTail()):
    spec = GridSpec(2, (0.0, 0.0), (n, n), 1.0 / n)
    E0 = CellSet(spec, rng.random(spec.extent) < 0.5)
    omega = np.zeros(spec.extent, dtype=bool)
    omega[1:-1, 1:-1] = rng.random((n - 2, n - 2)) < 0.7
    if not omega.any():
        omega[2, 2] = True
    win = DomainWindow(spec, omega, policy)
    table = table_for(spec, s, policy)
    return MinimizationProblem(win, E0, table)


def _direct_linear_terms(p):
    """p and q by direct convolution over the padded universe (the
    reference for the FFT assembly)."""
    eng = PairEngine(p.window.spec, p.window.complement_policy, p.table)
    om = eng.embed(p.window.omega)
    occ = eng.occupancy(p.exterior_data)
    block = p.table.block(tuple(n - 1 for n in om.shape))
    sel = tuple(np.argwhere(om).T)
    lin = []
    for fixed, ray in zip((occ & ~om, ~occ & ~om),
                          eng.ray_masses(p.exterior_data.exterior)):
        conv = signal.convolve(fixed.astype(float), block, mode="same",
                               method="direct")
        lin.append(conv[sel] + ray[tuple(np.argwhere(p.window.omega).T)])
    return lin


def _stalled_problem():
    """s = 0.3 on a 10^2 grid: a 54-cell ball window over wavy half-space
    data, whose relaxed iterates need more than 50 steps to beat the
    mollified start."""
    spec = GridSpec(2, (0.0, 0.0), (10, 10), 0.1)
    omega = np.zeros(spec.extent, dtype=bool)
    for i, (lo, hi) in enumerate([(3, 7), (2, 8), (1, 9), (1, 9), (1, 9),
                                  (1, 9), (1, 8), (2, 7)], start=1):
        omega[i, lo:hi] = True
    inside = np.zeros(spec.extent, dtype=bool)
    inside[:7, :5] = True
    inside[7:, :6] = True
    E0 = CellSet(spec, inside, HalfSpaceExterior(1, 0.45066584242031227))
    win = DomainWindow(spec, omega, AnalyticTail())
    return MinimizationProblem(win, E0, table_for(spec, 0.3, AnalyticTail()))


class TestSolver:
    def test_halfspace_data_yields_monotone_interface(self):
        # at s = 1/2 every interface position inside the window ties (the
        # half-line perimeter collapses to 4 sqrt(|window|)), so minimizers
        # are exactly the monotone fillings; the solver must hit the brute
        # energy and produce a clean half line
        p = _problem_1d()
        rep = solve_and_threshold(p)
        _, brute_e = brute_force_minimum(p)
        assert rep.energy <= brute_e + 1e-9 * (1.0 + abs(brute_e))
        bits = rep.minimizer.inside.astype(int)
        assert np.all(np.diff(bits) <= 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_2d(self, seed):
        rng = np.random.default_rng(1000 + seed)
        p = _problem_2d(rng)
        rep = solve_and_threshold(p)
        _, brute_e = brute_force_minimum(p)
        assert rep.energy <= brute_e + 1e-9 * (1.0 + abs(brute_e))

    def test_threshold_never_exceeds_relaxed(self, rng):
        p = _problem_2d(rng)
        rep = solve_and_threshold(p, max_iter=400)
        assert rep.energy <= rep.relaxed_energy + 1e-9 * (1 + abs(rep.relaxed_energy))

    def test_deterministic_repeat(self, rng):
        p = _problem_2d(rng)
        a = solve_and_threshold(p)
        b = solve_and_threshold(p)
        assert np.array_equal(a.minimizer.inside, b.minimizer.inside)
        assert a.energy == b.energy

    def test_default_tolerance_does_not_stop_before_first_descent(self):
        p = _stalled_problem()
        assert p.n_free == 54
        full = solve_and_threshold(p, tol=0.0)
        rep = solve_and_threshold(p)
        assert rep.energy <= full.energy + 1e-9 * (1.0 + abs(full.energy))

    def test_empty_window(self):
        spec = GridSpec(1, (0.0,), (6,), 1.0 / 6)
        E0 = cellset_from_shape(spec, {"shape": "halfspace", "axis": 0, "level": 0.5})
        win = DomainWindow(spec, np.zeros(spec.extent, dtype=bool), AnalyticTail())
        p = MinimizationProblem(win, E0, table_for(spec, 0.5, AnalyticTail()))
        rep = solve_and_threshold(p)
        assert np.array_equal(rep.minimizer.inside, E0.inside)


class TestCondensedEnergy:
    @pytest.mark.parametrize("case", ["1d_rays", "2d_analytic", "2d_truncate",
                                      "empty"])
    def test_fft_linear_terms_match_direct_convolution(self, case, rng):
        if case == "1d_rays":
            p = _problem_1d()
        elif case == "2d_analytic":
            p = _problem_2d(rng)
        elif case == "2d_truncate":
            p = _problem_2d(rng, policy=TruncateAtRadius(0.5))
        else:
            base = _problem_2d(rng)
            win = DomainWindow(base.window.spec,
                               np.zeros(base.window.spec.extent, dtype=bool),
                               AnalyticTail())
            p = MinimizationProblem(win, base.exterior_data, base.table)
        cond = minimize._Condensed(p)
        ref_p, ref_q = _direct_linear_terms(p)
        assert cond.p.shape == ref_p.shape == (p.n_free,)
        scale = max(np.abs(ref_p).max(initial=0.0), np.abs(ref_q).max(initial=0.0))
        assert np.abs(cond.p - ref_p).max(initial=0.0) <= 1e-12 * scale
        assert np.abs(cond.q - ref_q).max(initial=0.0) <= 1e-12 * scale

    def test_energies_binary_matches_explicit_energy(self, rng):
        cond = minimize._Condensed(_problem_2d(rng))
        X = rng.random((32, cond.m)) < 0.5
        batch = cond.energies_binary(X)
        for x, e in zip(X.astype(float), batch):
            pair = 0.5 * np.sum(cond.W * np.abs(x[:, None] - x[None, :]))
            ref = pair + cond.p @ (1.0 - x) + cond.q @ x
            assert e == pytest.approx(ref, rel=1e-12)
            assert cond.energy_and_pair_gradient(x)[0] == pytest.approx(ref, rel=1e-12)

    def test_one_build_per_solve_and_per_window_check(self, rng, monkeypatch):
        builds = []

        class Counting(minimize._Condensed):
            def __init__(self, p):
                builds.append(p)
                super().__init__(p)

        monkeypatch.setattr(minimize, "_Condensed", Counting)
        p = _problem_2d(rng)
        rep = solve_and_threshold(p)
        assert len(builds) == 1
        del builds[:]
        assert minimize._is_minimal_on(rep.minimizer, p.window, p.table)
        assert len(builds) == 1


class TestOracle:
    def test_limit_enforced(self):
        spec = GridSpec(2, (0.0, 0.0), (6, 6), 1.0 / 6)
        E0 = CellSet(spec, np.zeros(spec.extent, dtype=bool))
        win = DomainWindow(spec, np.ones(spec.extent, dtype=bool), AnalyticTail())
        p = MinimizationProblem(win, E0, table_for(spec, 0.5, AnalyticTail()))
        with pytest.raises(OracleTooLarge):
            brute_force_minimum(p)

    def test_tie_break_is_lexicographic(self):
        # empty exterior and tiny window: empty set wins with energy far
        # below any occupied competitor, and repeat runs agree bit for bit
        spec = GridSpec(1, (0.0,), (8,), 0.125)
        E0 = CellSet(spec, np.zeros(spec.extent, dtype=bool))
        omega = np.zeros(spec.extent, dtype=bool)
        omega[3:5] = True
        win = DomainWindow(spec, omega, AnalyticTail())
        p = MinimizationProblem(win, E0, table_for(spec, 0.5, AnalyticTail()))
        s1, e1 = brute_force_minimum(p)
        s2, e2 = brute_force_minimum(p)
        assert np.array_equal(s1.inside, s2.inside)
        assert e1 == e2
        assert not s1.inside.any()


class TestEquivalence:
    def test_minimizer_passes_all_classes(self):
        p = _problem_1d()
        rep = solve_and_threshold(p)
        eq = check_minimality_equivalence(rep.minimizer, p.window, p.table)
        assert eq.global_ok and eq.compact_ok and eq.local_ok

    def test_interior_flip_fails_all_classes(self):
        spec = GridSpec(2, (0.0, 0.0), (8, 8), 0.125)
        E0 = cellset_from_shape(spec, {"shape": "halfspace", "axis": 0, "level": 0.5})
        omega = np.zeros(spec.extent, dtype=bool)
        omega[2:6, 2:6] = True
        win = DomainWindow(spec, omega, AnalyticTail())
        p = MinimizationProblem(win, E0, table_for(spec, 0.5, AnalyticTail()))
        rep = solve_and_threshold(p)
        eq = check_minimality_equivalence(rep.minimizer, win, p.table)
        assert eq.global_ok and eq.compact_ok and eq.local_ok
        flipped = rep.minimizer.inside.copy()
        idx = (3, 3)
        flipped[idx] = ~flipped[idx]
        bad = CellSet(spec, flipped, rep.minimizer.exterior)
        eq_bad = check_minimality_equivalence(bad, win, p.table)
        assert not eq_bad.global_ok
        assert not eq_bad.compact_ok
        assert not eq_bad.local_ok


class TestExhaustion:
    def test_window_schedule_must_nest(self):
        p = _problem_1d()
        spec = p.window.spec
        small = np.zeros(spec.extent, dtype=bool)
        small[5:7] = True
        big = np.zeros(spec.extent, dtype=bool)
        big[4:9] = True
        w_small = DomainWindow(spec, small, AnalyticTail())
        w_big = DomainWindow(spec, big, AnalyticTail())
        with pytest.raises(NotNested):
            solve_locally_minimal(p, [w_big, w_small])

    def test_chained_solves_stabilize(self):
        p = _problem_1d()
        spec = p.window.spec
        masks = []
        for width in (1, 2, 3):
            m = np.zeros(spec.extent, dtype=bool)
            m[6 - width : 6 + width] = True
            masks.append(DomainWindow(spec, m, AnalyticTail()))
        reports = solve_locally_minimal(p, masks)
        final = reports[-1].minimizer
        # chained data keeps the half-line structure at every stage
        bits = final.inside.astype(int)
        assert np.all(np.diff(bits) <= 0)
        last_prob = MinimizationProblem(masks[-1], reports[-2].minimizer, p.table)
        _, brute_e = brute_force_minimum(last_prob)
        assert reports[-1].energy <= brute_e + 1e-9 * (1.0 + abs(brute_e))
