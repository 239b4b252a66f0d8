"""Mollification, thresholding, and the approximation ladder."""

import tracemalloc

import numpy as np
import pytest
from scipy import signal

from fracperim import approx, functional
from fracperim.approx import (
    MollifierSpec,
    approximate_set,
    approximate_set_lipschitz,
    boundary_cells,
    mollify,
    smooth_at_grid_scale,
    superlevel,
)
from fracperim.errors import (
    EpsilonBelowResolution,
    InvalidRadius,
    InvalidSchedule,
    SpecMismatch,
)
from fracperim.functional import perimeter
from fracperim.grid import (
    AnalyticTail,
    CellSet,
    DomainWindow,
    GridSpec,
    HalfSpaceExterior,
    ScalarField,
    TruncateAtRadius,
    cellset_from_shape,
    full_window,
    signed_distance,
)
from tests.conftest import direct_mollify, table_for, weight_rows


def _ball(n=16, r=0.3):
    spec = GridSpec(2, (0.0, 0.0), (n, n), 1.0 / n)
    return cellset_from_shape(
        spec, {"shape": "ball", "center": [0.5, 0.5], "radius": r}
    )


class TestMollify:
    def test_constant_field_fixed_point(self):
        spec = GridSpec(2, (0.0, 0.0), (8, 8), 0.125)
        u = ScalarField(spec, np.full(spec.extent, 0.7), 0.7)
        m = mollify(u, MollifierSpec(0.25))
        assert np.allclose(m.values, 0.7, atol=1e-12)

    def test_range_preserved(self, rng):
        spec = GridSpec(2, (0.0, 0.0), (12, 12), 1.0 / 12)
        u = ScalarField(spec, (rng.random(spec.extent) < 0.5).astype(float), 0.0)
        m = mollify(u, MollifierSpec(0.2))
        assert m.values.min() >= -1e-12
        assert m.values.max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_direct_convolution(self, rng, dim):
        n = 24
        spec = GridSpec(dim, (0.0,) * dim, (n,) * dim, 1.0 / n)
        u = ScalarField(spec, rng.random(spec.extent), 0.3)
        m = MollifierSpec(0.2)
        kern = m.sampled(spec)
        padded = u.values_on(spec.padded((kern.shape[0] - 1) // 2))
        ref = signal.convolve(padded, kern, mode="valid", method="direct")
        assert np.max(np.abs(mollify(u, m).values - ref)) <= 1e-15

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("exterior", ["constant", "halfspace"])
    def test_matches_direct_mollify(self, rng, dim, exterior):
        # eps is not a multiple of h, so the bump's edge falls between cells
        n = (24, 16, 10)[dim - 1]
        spec = GridSpec(dim, (0.0,) * dim, (n,) * dim, 1.0 / n)
        if exterior == "constant":
            u = ScalarField(spec, rng.random(spec.extent), 0.3)
        else:
            u = CellSet(spec, rng.random(spec.extent) < 0.5, HalfSpaceExterior(dim - 1, 0.45))
        for eps in (1.0 / n, 2.6 / n, 3.4 / n):
            m = MollifierSpec(eps)
            got = mollify(u, m)
            ref = direct_mollify(u, m)
            assert np.max(np.abs(got.values - ref.values)) <= 2e-15
            assert got.exterior == ref.exterior

    @pytest.mark.parametrize("eps", [0.0, -0.1, float("inf"), float("nan")])
    def test_eps_outside_open_half_line_raises(self, eps):
        with pytest.raises(InvalidRadius):
            MollifierSpec(eps)

    def test_3d_memory_is_the_fft_grid(self):
        # the window copy of a direct 24^3 convolution at reach 4 alone
        # is 24^3 * 9^3 doubles, about 80 MB
        n = 24
        spec = GridSpec(3, (0.0,) * 3, (n,) * 3, 1.0 / n)
        u = ScalarField(spec, np.random.default_rng(3).random(spec.extent), 0.0)
        m = MollifierSpec(4.0 / n)
        tracemalloc.start()
        try:
            mollify(u, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_eps_below_resolution_raises(self):
        E = _ball()
        with pytest.raises(EpsilonBelowResolution):
            mollify(E, MollifierSpec(0.5 / 16))

    def test_halfspace_midline_value(self):
        # mollifying a half-space indicator yields one half on the interface
        spec = GridSpec(1, (0.0,), (16,), 1.0 / 16)
        E = cellset_from_shape(spec, {"shape": "halfspace", "axis": 0, "level": 0.5})
        m = mollify(E, MollifierSpec(0.25))
        v = m.values
        # symmetry of the profile about the interface
        assert np.allclose(v + v[::-1], 1.0, atol=1e-10)


class TestSuperlevel:
    def test_threshold_recovers_indicator(self):
        E = _ball()
        u = ScalarField(E.spec, E.inside.astype(float), E.exterior)
        back = superlevel(u, 0.5)
        assert np.array_equal(back.inside, E.inside)

    def test_boundary_cells_ring(self):
        E = _ball()
        b = boundary_cells(E)
        assert b.any()
        # every flagged cell has a face neighbor of the opposite phase
        inside = E.inside
        has_opposite = np.zeros_like(inside)
        for a in range(inside.ndim):
            for sh in (1, -1):
                rolled = np.roll(inside, sh, axis=a)
                edge = [slice(None)] * inside.ndim
                edge[a] = slice(0, 1) if sh == 1 else slice(-1, None)
                rolled[tuple(edge)] = inside[tuple(edge)]
                has_opposite |= rolled != inside
        assert np.array_equal(b, has_opposite)

    def test_smooth_at_grid_scale_flags_checkerboard(self):
        spec = GridSpec(2, (0.0, 0.0), (6, 6), 1.0 / 6)
        ii, jj = np.indices(spec.extent)
        checker = (ii + jj) % 2 == 0
        assert not smooth_at_grid_scale(CellSet(spec, checker))
        assert smooth_at_grid_scale(_ball())


class TestApproximationLadder:
    def test_ball_recovery_and_containment(self):
        E = _ball()
        spec = E.spec
        win = full_window(spec, AnalyticTail())
        table = table_for(spec, 0.5, AnalyticTail())
        h = spec.h
        steps = approximate_set(E, win, [8 * h, 4 * h, 2 * h, h], table)
        assert [st.eps for st in steps] == [8 * h, 4 * h, 2 * h, h]
        assert all(st.boundary_in_neighborhood for st in steps)
        target = perimeter(E, win, table).total
        final = steps[-1].breakdown.total
        assert abs(final - target) <= 0.05 * target

    def test_schedule_validation(self):
        E = _ball()
        win = full_window(E.spec, AnalyticTail())
        table = table_for(E.spec, 0.5, AnalyticTail())
        h = E.spec.h
        with pytest.raises(InvalidSchedule):
            approximate_set(E, win, [h, 2 * h], table)
        with pytest.raises(EpsilonBelowResolution):
            approximate_set(E, win, [h / 2], table)

    def test_lipschitz_variant_converges(self):
        E = _ball()
        spec = E.spec
        mask = np.zeros(spec.extent, dtype=bool)
        mask[2:-2, 2:-2] = True
        win = DomainWindow(spec, mask, AnalyticTail())
        table = table_for(spec, 0.5, AnalyticTail())
        h = spec.h
        steps = approximate_set_lipschitz(E, win, [4 * h, 2 * h, h], table)
        assert all(st.boundary_in_neighborhood for st in steps)
        target = perimeter(E, win, table).total
        errors = [abs(st.breakdown.total - target) for st in steps]
        # the boundary cut shrinks with eps, so the ladder closes in on
        # the window perimeter even for sets reaching near the boundary
        assert errors[-1] < errors[0]

    def test_lipschitz_matches_plain_for_interior_set(self):
        spec = GridSpec(2, (0.0, 0.0), (16, 16), 1.0 / 16)
        E = cellset_from_shape(
            spec, {"shape": "ball", "center": [0.5, 0.5], "radius": 0.12}
        )
        mask = np.zeros(spec.extent, dtype=bool)
        mask[1:-1, 1:-1] = True
        win = DomainWindow(spec, mask, AnalyticTail())
        table = table_for(spec, 0.5, AnalyticTail())
        h = spec.h
        plain = approximate_set(E, win, [2 * h, h], table)
        lip = approximate_set_lipschitz(E, win, [2 * h, h], table)
        for a, b in zip(plain, lip):
            assert np.array_equal(a.approximant.inside, b.approximant.inside)


def _edge_case():
    """A set with a half-space exterior and a window that touches two
    sides of the box, with its table."""
    spec = GridSpec(2, (0.0, 0.0), (16, 16), 1.0 / 16)
    x, y = spec.centers().T.reshape(2, 16, 16)
    inside = (x < 0.55) ^ ((x - 0.6) ** 2 + (y - 0.4) ** 2 < 0.04)
    E = CellSet(spec, inside, HalfSpaceExterior(0, 0.55))
    mask = np.zeros(spec.extent, dtype=bool)
    mask[:-3, 2:] = True
    win = DomainWindow(spec, mask, TruncateAtRadius(0.25))
    return E, win, table_for(spec, 0.5, win.complement_policy)


class TestLadderPass:
    """The ladder's one FFT pass against mollifying rung by rung."""

    @pytest.mark.parametrize("cutoff", [False, True])
    def test_rung_fields_match_mollify(self, cutoff):
        E, win, _ = _edge_case()
        h = E.spec.h
        bumps = [MollifierSpec(e * h) for e in (8, 5.5, 3, 2, 1)]
        wdist = np.abs(signed_distance(win).values) if cutoff else None
        us = approx._ladder_fields(E, bumps, wdist, {})
        assert len(us) == len(bumps)
        for m, u in zip(bumps, us):
            vals = E.inside if wdist is None else E.inside & (wdist >= 2.0 * m.eps)
            ref = mollify(ScalarField(E.spec, vals.astype(float), E.exterior), m)
            assert np.max(np.abs(u.values - ref.values)) <= 2e-15
            assert u.exterior == E.exterior

    def test_cutoff_ladder_matches_direct_route(self):
        E, win, table = _edge_case()
        h = E.spec.h
        schedule = [8 * h, 4 * h, 3 * h, 2 * h, h]
        steps = approximate_set_lipschitz(E, win, schedule, table)
        # the route rung by rung: the direct convolution, then a scan of one
        wdist = np.abs(signed_distance(win).values)
        scan = approx._ThresholdScan(win, table, E.exterior)
        target = perimeter(E, win, table).total
        for eps, st in zip(schedule, steps, strict=True):
            vals = (E.inside & (wdist >= 2.0 * eps)).astype(float)
            u = direct_mollify(ScalarField(E.spec, vals, E.exterior), MollifierSpec(eps))
            [(t, sup, bd)] = approx._pick_threshold([u], scan.totals([u])[1], target, scan)
            assert st.threshold == t
            assert st.approximant.inside.tobytes() == sup.inside.tobytes()
            assert _close(st.breakdown.total, bd.total)
        assert len({st.threshold for st in steps}) > 1

    @pytest.mark.parametrize("ladder", [approximate_set, approximate_set_lipschitz])
    def test_warm_transforms_do_not_grow_with_rungs(self, monkeypatch, ladder):
        E, win, table = _edge_case()
        h = E.spec.h
        short, long = [4 * h, 2 * h], [4 * h, 3.5 * h, 3 * h, 2 * h, h]
        for schedule in (short, long):  # warm: spectra and exterior fields
            ladder(E, win, schedule, table)
        calls = []
        original = np.fft.rfftn

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfftn", counted)
        counts = []
        for schedule in (short, long):
            calls.clear()
            ladder(E, win, schedule, table)
            counts.append(len(calls))
        assert counts[0] == counts[1]


    @pytest.mark.parametrize("ladder", [approximate_set, approximate_set_lipschitz])
    def test_window_on_another_grid_raises(self, ladder):
        E, win, table = _edge_case()
        shifted = GridSpec(2, (0.5, 0.0), E.spec.extent, E.spec.h)
        other = DomainWindow(shifted, win.omega, win.complement_policy)
        with pytest.raises(SpecMismatch):
            ladder(E, other, [2 * E.spec.h], table)

    @pytest.mark.parametrize("full", [False, True], ids=["partial", "full"])
    @pytest.mark.parametrize("ladder", [approximate_set, approximate_set_lipschitz])
    def test_warm_ladder_makes_two_transforms(self, monkeypatch, ladder, full):
        # the mollify pass, then one batch: the target's fields, every
        # rung's base sets and 1_Omega (*) w
        E, win, table = _edge_case()
        if full:
            win = full_window(E.spec, win.complement_policy)
        h = E.spec.h
        schedule = [4 * h, 3 * h, 2 * h, h]
        ladder(E, win, schedule, table)  # warm: spectra, exterior fields, row totals
        calls = []
        original = np.fft.rfftn

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfftn", counted)
        ladder(E, win, schedule, table)
        assert len(calls) == 2


def _oracle_scan(u, target, window, table):
    """Per-threshold perimeter loop, one perimeter per distinct superlevel
    set: (every grid threshold's breakdown, the chosen threshold, set and
    breakdown), ties broken toward t = 1/2, then the first threshold."""
    best = None
    seen = {}
    breakdowns = []
    for t in approx._THRESHOLD_GRID:
        sup = superlevel(u, float(t))
        key = sup.inside.tobytes()
        if key not in seen:
            seen[key] = perimeter(sup, window, table)
        bd = seen[key]
        breakdowns.append(bd)
        cand = (abs(bd.total - target), abs(t - 0.5), float(t), sup, bd)
        if best is None or (cand[0], cand[1]) < (best[0], best[1]):
            best = cand
    return breakdowns, best[2], best[3], best[4]


def _scan_case(name):
    """(set, window, s) of one threshold-scan case."""
    if name == "1d-rays":
        spec = GridSpec(1, (0.0,), (32,), 1.0 / 32)
        x = spec.centers()[:, 0]
        inside = (x < 0.4) | ((x > 0.6) & (x < 0.75))
        E = CellSet(spec, inside, HalfSpaceExterior(0, 0.4))
        mask = np.zeros(spec.extent, dtype=bool)
        mask[3:-4] = True
        return E, DomainWindow(spec, mask, AnalyticTail()), 0.4
    if name == "2d-partial-truncate":
        E = _ball(16, 0.3)
        mask = np.zeros(E.spec.extent, dtype=bool)
        mask[2:-3, 1:-2] = True
        return E, DomainWindow(E.spec, mask, TruncateAtRadius(0.25)), 0.5
    if name == "2d-halfspace-analytic":
        # the exterior has cells of both phases, so both exterior fields
        # enter the scan
        spec = GridSpec(2, (0.0, 0.0), (12, 12), 1.0 / 12)
        x, y = spec.centers().T.reshape(2, 12, 12)
        inside = (y < 0.5) ^ ((x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.06)
        E = CellSet(spec, inside, HalfSpaceExterior(1, 0.5))
        mask = np.zeros(spec.extent, dtype=bool)
        mask[1:-2, 2:-1] = True
        return E, DomainWindow(spec, mask, AnalyticTail()), 0.6
    if name == "2d-full-analytic":
        E = _ball(12, 0.35)
        return E, full_window(E.spec, AnalyticTail()), 0.7
    spec = GridSpec(3, (0.0,) * 3, (6, 6, 6), 1.0 / 6)
    E = cellset_from_shape(spec, {"shape": "ball", "center": [0.5] * 3, "radius": 0.3})
    return E, full_window(spec, TruncateAtRadius(0.5)), 0.3


def _box_row_pair_sums(cells, in_om, shape, table):
    """Oracle of the S x S weights: per cell a, the sum of w(b - a) over
    the cells b listed before it, a pair counted only when a or b lies in
    the window, read from whole box-shaped weight rows."""
    flat = np.ravel_multi_index(tuple(cells.T), shape)
    out = np.empty(len(cells))
    for lo, rows in weight_rows(cells, tuple(shape), table):
        hi = lo + len(rows)
        keep = np.arange(hi) < np.arange(lo, hi)[:, None]
        keep &= in_om[lo:hi, None] | in_om[:hi]
        out[lo:hi] = (rows[:, flat[:hi]] * keep).sum(axis=1)
    return out


_SCAN_CASES = ["1d-rays", "2d-partial-truncate", "2d-halfspace-analytic",
               "2d-full-analytic", "3d-ball"]


def _close(got, ref, rel=1e-12):
    return np.all(np.abs(np.asarray(got) - ref) <= rel * np.abs(ref))


class TestThresholdScan:
    """The nested-set scan against the per-threshold perimeter loop."""

    @pytest.mark.parametrize("case", _SCAN_CASES)
    def test_pair_sums_match_box_rows(self, monkeypatch, case):
        E, win, s = _scan_case(case)
        table = table_for(E.spec, s, win.complement_policy)
        shape = E.spec.extent
        u = mollify(E, MollifierSpec(3 * E.spec.h))
        switch = (u.values > 0.01) & (u.values <= 0.99)
        cells = np.argwhere(switch)[np.argsort(-u.values[switch], kind="stable")]
        # one chunk, an empty and a single-cell S, then chunks of 3 rows
        for sub, chunk in ((cells, None), (cells[:0], None), (cells[:1], None),
                           (cells, 3 * len(cells))):
            if chunk:
                monkeypatch.setattr(functional, "_PAIR_CHUNK", chunk)
            in_om = win.omega[tuple(sub.T)]
            sums = approx._earlier_pair_sums(sub, in_om, table)
            assert sums.shape == (len(sub), 2)
            # the oracle's keep rule: every earlier cell for a in the window,
            # only the window's earlier cells for a outside it
            kept = np.where(in_om, sums.sum(axis=1), sums[:, 0])
            assert _close(kept, _box_row_pair_sums(sub, in_om, shape, table))
            every = _box_row_pair_sums(sub, np.ones(len(sub), bool), shape, table)
            assert _close(sums.sum(axis=1), every)
        assert len(cells) > 1 and win.omega[tuple(cells.T)].any()

    @pytest.mark.parametrize("case", _SCAN_CASES)
    def test_matches_per_threshold_perimeters(self, case):
        E, win, s = _scan_case(case)
        table = table_for(E.spec, s, win.complement_policy)
        h = E.spec.h
        for eps in (4 * h, 3 * h, 2 * h):
            scan = approx._ThresholdScan(win, table, E.exterior)
            target = perimeter(E, win, table).total
            u = mollify(E, MollifierSpec(eps))
            oracle = _oracle_scan(u, target, win, table)[0]
            assert len({b.total for b in oracle}) > 2  # the scan has work
            # local, nonlocal and total at every grid threshold
            ref = np.array([(b.local, b.nonlocal_, b.total) for b in oracle]).T
            local, nonlocal_ = scan.totals([u])[1][0]
            got = np.array([local, nonlocal_, local + nonlocal_])
            assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref)), (eps, got - ref)
            # E's own perimeter, and targets that pick other thresholds
            for goal in (target, 0.8 * target, 1.15 * target):
                _, t, sup, bd = _oracle_scan(u, goal, win, table)
                [(t_new, sup_new, bd_new)] = approx._pick_threshold(
                    [u], scan.totals([u])[1], goal, scan)
                assert t_new == t
                assert sup_new.inside.tobytes() == sup.inside.tobytes()
                assert (sup_new.spec, sup_new.exterior) == (sup.spec, sup.exterior)
                # the breakdown is read off the scan: the parts agree to
                # rounding, the bookkeeping exactly
                assert (bd_new.truncation_error_bound, bd_new.degenerate) == (
                    bd.truncation_error_bound, bd.degenerate)
                assert _close([bd_new.local, bd_new.nonlocal_, bd_new.total],
                              [bd.local, bd.nonlocal_, bd.total])

    @pytest.mark.parametrize("ladder", [approximate_set, approximate_set_lipschitz])
    def test_one_perimeter_per_ladder(self, monkeypatch, ladder):
        # none: the target's breakdown comes from the ladder's one batched
        # correlation and each rung reads its own off the scan, where the
        # per-threshold loop made up to 99 calls a rung
        calls = []
        original = functional.perimeter

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(functional, "perimeter", counted)
        monkeypatch.setattr(approx, "perimeter", counted, raising=False)
        E = _ball()
        mask = np.zeros(E.spec.extent, dtype=bool)
        mask[2:-2, 2:-2] = True
        win = DomainWindow(E.spec, mask, TruncateAtRadius(0.25))
        table = table_for(E.spec, 0.5, win.complement_policy)
        h = E.spec.h
        steps = ladder(E, win, [4 * h, 2 * h, h], table)
        assert len(steps) == 3
        assert len(calls) == 0
