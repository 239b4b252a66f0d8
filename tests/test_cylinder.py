"""Cylindrical windows over graphs: perimeter, divergence, confinement."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from fracperim import cylinder, functional
from fracperim.cylinder import (
    SubgraphSet,
    classical_graph_area,
    fit_tail_slope,
    graph_area_asymptotics,
    local_part_bound,
    nonlocal_divergence_scan,
    sector_divergence_scan,
    truncated_cylinder_perimeter,
    vertical_confinement_check,
)
from fracperim.errors import (
    ConfinementUndetermined,
    HypothesisViolated,
    InvalidSequence,
    SpecMismatch,
    WindowTooShort,
)
from fracperim.functional import _tail_terms
from fracperim.grid import (
    CellSet,
    DomainWindow,
    GridSpec,
    ScalarField,
    SubgraphExterior,
    full_window,
)
from fracperim.kernel import KernelParams, build_table, interval_pair_exact
from tests.conftest import explicit_interaction

_PAD_RADIUS = 1.0


def _base(n=8, h=0.25, origin=0.0):
    return GridSpec(1, (origin,), (n,), h)


def _graph(base, values, far=0.0):
    return ScalarField(base, np.asarray(values, dtype=float), far)


def _ambient_table(sg: SubgraphSet, s: float, pad_radius: float = 0.0):
    """Table reaching across the ambient box with its base axes padded
    out to ``pad_radius`` (the padded predecessor's universe)."""
    amb = sg.ambient_spec()
    pad = int(np.ceil(pad_radius / amb.h))
    reach = max(tuple(n + 2 * pad for n in amb.extent[:-1]) + (amb.extent[-1],)) - 1
    return build_table(amb, KernelParams(s, amb.dim), max_offset=reach)


def _padded_cylinder_perimeter(sg: SubgraphSet, omega_base: DomainWindow, k: float,
                               table, pad_radius: float) -> tuple[float, float]:
    """(total, bound): the padded predecessor of the exact perimeter.

    Beyond the vertical box every column is full below and empty above,
    whose masses are exact by ``functional._half_space_masses``.  Inside
    the box the base plane is padded out to ``pad_radius``; the columns
    beyond the pad are left out, and the bound is the window's mass to
    the horizontal half-spaces beyond the pad edges.
    """
    cell = sg.cellset()
    spec = cell.spec
    n_amb, h, s = spec.dim, spec.h, table.params.s
    pad = int(math.ceil(pad_radius / h))
    uni = spec.padded((pad,) * (n_amb - 1) + (0,))
    occ = cell.occupancy_on(uni)
    nz = uni.extent[-1]
    z = uni.origin[-1] + (np.arange(nz) + 0.5) * h
    om = np.pad(omega_base.omega, pad)[..., None] & (np.abs(z) < k)
    e_in = occ & om
    c_in = ~occ & om
    f_in, f_out = functional._fields((e_in, occ & ~om), table, {})
    # row r lies r cells above the lower half-space and nz - 1 - r below
    # the upper one
    masses = functional._half_space_masses(n_amb, h, s, np.arange(max(uni.extent)))
    bot = masses[:nz]
    nl = [float(f_in[~occ & ~om].sum()) + float(f_out[c_in].sum()),
          math.fsum(bot[::-1] * e_in.reshape(-1, nz).sum(axis=0)),
          math.fsum(bot * c_in.reshape(-1, nz).sum(axis=0))]
    cols = np.argwhere(om)[:, :-1]
    last = np.asarray(uni.extent[:-1]) - 1
    bound = math.fsum(masses[cols].sum(axis=1) + masses[last - cols].sum(axis=1))
    return float(f_in[c_in].sum()) + math.fsum(nl), bound


class TestSubgraphSet:
    def test_window_must_contain_graph(self):
        base = _base()
        v = _graph(base, np.full(8, 0.9))
        with pytest.raises(WindowTooShort):
            SubgraphSet(base, v, 0.5)

    def test_window_must_be_whole_cells(self):
        # 2T/h = 16.4: a box of 16 cells from -T would end at 1.95, below
        # the heights of 2.0 that T = 2.05 admits
        base = _base()
        with pytest.raises(SpecMismatch):
            SubgraphSet(base, _graph(base, np.full(8, 2.0)), 2.05)
        assert SubgraphSet(base, _graph(base, np.full(8, 2.0)), 2.125).ambient_spec().extent \
            == (8, 17)

    def test_cellset_is_monotone_in_height(self):
        base = _base()
        v = _graph(base, 0.3 * np.sin(np.arange(8)))
        sg = SubgraphSet(base, v, 2.0)
        cols = sg.cellset().inside
        diffs = np.diff(cols.astype(int), axis=-1)
        assert np.all(diffs <= 0)


def _bases():
    """(base, heights) on a 1D and a 2D base grid."""
    b1 = _base()
    b2 = GridSpec(2, (0.0, 0.0), (3, 3), 0.5)
    return [(b1, _graph(b1, 0.2 * np.cos(np.arange(8)))),
            (b2, _graph(b2, 0.3 * np.cos(np.arange(9)).reshape(3, 3), 0.1))]


class TestTruncatedPerimeter:
    def test_vertical_box_requirement(self):
        base = _base()
        v = _graph(base, np.zeros(8))
        sg = SubgraphSet(base, v, 1.5)
        table = _ambient_table(sg, 0.5)
        with pytest.raises(WindowTooShort):
            truncated_cylinder_perimeter(sg, full_window(base), 1.0, table)

    def test_flip_symmetry(self):
        # reflecting the graph through zero preserves the perimeter
        base = _base()
        vals = np.array([0.1, -0.2, 0.3, 0.0, -0.1, 0.2, -0.3, 0.1])
        k = 1.0
        totals = []
        for v_arr in (vals, -vals):
            sg = SubgraphSet(base, _graph(base, v_arr), k + 1.0)
            table = _ambient_table(sg, 0.5)
            bd = truncated_cylinder_perimeter(sg, full_window(base), k, table)
            totals.append(bd.total)
        assert totals[0] == pytest.approx(totals[1], rel=1e-9)

    def test_monotone_in_k(self):
        base = _base()
        v = _graph(base, 0.2 * np.cos(np.arange(8)))
        sg = SubgraphSet(base, v, 3.5)
        table = _ambient_table(sg, 0.5)
        win = full_window(base)
        p1 = truncated_cylinder_perimeter(sg, win, 1.0, table).total
        p2 = truncated_cylinder_perimeter(sg, win, 2.0, table).total
        assert p2 > p1

    def test_local_part_below_explicit_bound(self):
        base = _base()
        v = _graph(base, np.zeros(8))
        k = 1.0
        sg = SubgraphSet(base, v, k + 1.0)
        table = _ambient_table(sg, 0.5)
        bd = truncated_cylinder_perimeter(sg, full_window(base), k, table)
        bound = local_part_bound(full_window(base), k, bd.local, 0.5)
        assert bd.local <= bound

    def test_local_part_matches_explicit_pair_sum(self):
        base = _base()
        k = 1.0
        sg = SubgraphSet(base, _graph(base, 0.2 * np.cos(np.arange(8)), 0.1), k + 1.0)
        mask = np.zeros(8, dtype=bool)
        mask[2:7] = True
        table = _ambient_table(sg, 0.5)
        bd = truncated_cylinder_perimeter(sg, DomainWindow(base, mask), k, table)
        cell = sg.cellset()
        t = sg.ambient_spec().centers()[:, 1].reshape(cell.inside.shape)
        om = mask[:, None] & (np.abs(t) < k)
        ref = explicit_interaction(cell.inside & om, ~cell.inside & om, table)
        assert bd.local == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("s,ref", [(0.3, 45.5944020774186), (0.5, 32.989019372276),
                                       (0.7, 35.0782766982092)])
    def test_exact_total(self, s, ref):
        base, v = _bases()[0]
        sg = SubgraphSet(base, v, 2.0)
        bd = truncated_cylinder_perimeter(sg, full_window(base), 1.0, _ambient_table(sg, s))
        assert bd.total == pytest.approx(ref, rel=1e-10)
        assert bd.truncation_error_bound == 0.0

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("case", [0, 1], ids=["1d_base", "2d_base"])
    def test_complement_invariance(self, case, s):
        # the tails follow E's exterior: {t >= farfield} for the complement
        base, v = _bases()[case]
        sg = SubgraphSet(base, v, 2.0, v.exterior)
        table = _ambient_table(sg, s)
        win = full_window(base)
        p = truncated_cylinder_perimeter(sg, win, 1.0, table).total
        pc = truncated_cylinder_perimeter(sg.cellset().complement(), win, 1.0, table).total
        assert abs(p - pc) <= 1e-12 * p

    @pytest.mark.parametrize("heights,far", [((0.0,) * 7 + (2.5,), 0.0),
                                             ((0.0,) * 8, -3.0)],
                             ids=["height", "farfield"])
    def test_subgraph_beyond_the_vertical_box_is_rejected(self, heights, far):
        # beyond the box E must be the half-space {t < farfield}
        base = _base()
        amb = SubgraphSet(base, _graph(base, np.zeros(8)), 2.0).ambient_spec()
        ext = SubgraphExterior(base, heights, far)
        E = CellSet(amb, ext.contains(amb.centers()).reshape(amb.extent), ext)
        with pytest.raises(WindowTooShort):
            truncated_cylinder_perimeter(E, full_window(base), 1.0,
                                         build_table(amb, KernelParams(0.5, 2), 15))


class TestTruncationBound:
    # the padded predecessor omits the columns beyond its pad, which lie in
    # the horizontal half-spaces beyond the pad edges; its bound charges
    # each window cell's mass to those, per side
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_bound_covers_a_wider_pad_and_beats_the_ball_tail(self, s):
        base = _base()
        sg = SubgraphSet(base, _graph(base, 0.2 * np.cos(np.arange(8))), 2.0)
        amb = sg.ambient_spec()
        table = _ambient_table(sg, s, 48.0)
        win = full_window(base)
        exact = truncated_cylinder_perimeter(sg, win, 1.0, table).total
        totals = []
        for R in (_PAD_RADIUS, 4.0, 16.0, 48.0):
            total, bound = _padded_cylinder_perimeter(sg, win, 1.0, table, R)
            assert 0.0 < exact - total <= bound
            totals.append(total)
        assert totals == sorted(totals)
        # the whole point tail at each window cell's distance to the pad edge
        _, bound = _padded_cylinder_perimeter(sg, win, 1.0, table, _PAD_RADIUS)
        x = amb.centers()[:, 0].reshape(amb.extent)
        t = amb.centers()[:, 1].reshape(amb.extent)
        r = np.minimum(x + _PAD_RADIUS, 2.0 + _PAD_RADIUS - x)[np.abs(t) < 1.0]
        ball_tail = float(_tail_terms(r, amb.h, KernelParams(s, amb.dim)).sum())
        assert bound < ball_tail


def _box_growth_loss(sg: SubgraphSet, k: float, pad: int, T2: float, table) -> float:
    """What growing the vertical box from T to T2 removes from the padded
    predecessor's total.

    Each window cell in E loses its mass to the rows between T and T2
    above the box, each complement cell its mass to those below, over the
    columns beyond the padded universe: the whole row, h^m B_m(s) w_1(j)
    by the marginal identity, minus the table sum over the universe's
    columns.  B_m(s) is the product of B(1/2, (i+s)/2) over i = 1..m.
    """
    base = sg.base_spec
    m, h, s = base.dim, base.h, table.params.s
    big = SubgraphSet(base, sg.heights, T2, sg.farfield)
    uni = big.ambient_spec().padded((pad,) * m + (0,))
    occ = big.exterior().contains(uni.centers()).reshape(uni.extent)
    t = uni.origin[-1] + (np.arange(uni.extent[-1]) + 0.5) * h
    top = np.nonzero(t > sg.vertical_extent)[0]
    bot = np.nonzero(t < -sg.vertical_extent)[0]
    b_m = math.prod(special.beta(0.5, 0.5 * (i + s)) for i in range(1, m + 1))
    K = table.max_offset
    terms = []
    for col in np.ndindex(base.extent):
        col = tuple(c + pad for c in col)  # universe coordinates
        cols = tuple(slice(K - c, K - c + n) for c, n in zip(col, uni.extent[:-1]))
        for r in np.nonzero(np.abs(t) < k)[0]:
            for rb in (top if occ[col + (r,)] else bot):
                j = abs(int(rb) - int(r))
                row = h**m * b_m * interval_pair_exact(0.0, 1.0, j, j + 1.0, s)
                row *= h ** (1.0 - s)
                terms.append(row - table.weights[cols + (K + rb - r,)].sum())
    return math.fsum(terms)


class TestBoxHeight:
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_total_is_independent_of_the_box_height(self, s, dim):
        # nothing is truncated, so moving rows between the tails and the
        # box moves no mass
        base, v = _bases()[dim - 2]
        heights = (2.0, 3.0, 5.0) if dim == 2 else (2.0, 3.0)
        table = _ambient_table(SubgraphSet(base, v, heights[-1], v.exterior), s)
        totals = [truncated_cylinder_perimeter(SubgraphSet(base, v, T, v.exterior),
                                               full_window(base), 1.0, table).total
                  for T in heights]
        assert max(totals) - min(totals) <= 1e-12 * totals[0]

    # in the padded predecessor, raising T moves the rows between T and T2
    # from the half-spaces into the box, where only the universe's columns
    # are counted
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_growth_removes_exactly_the_outer_row_mass(self, s, dim):
        k = 1.0
        base, v = _bases()[dim - 2]
        heights = (2.0, 3.0, 5.0) if dim == 2 else (2.0, 3.0)
        pad = int(np.ceil(_PAD_RADIUS / base.h))
        table = _ambient_table(SubgraphSet(base, v, heights[-1]), s, _PAD_RADIUS)
        totals = []
        for T in heights:
            sg = SubgraphSet(base, v, T)
            totals.append(_padded_cylinder_perimeter(
                sg, full_window(base), k, table, _PAD_RADIUS)[0])
        for i, T in enumerate(heights[:-1]):
            loss = _box_growth_loss(SubgraphSet(base, v, T), k, pad,
                                    heights[i + 1], table)
            assert totals[i] - totals[i + 1] == pytest.approx(loss, rel=1e-12)


def _tail_kernel_oracle(d: float, T: float, s: float) -> float:
    """int_{2T}^inf (g - 2T) (d^2 + g^2)^(-p/2) dg, p = 2 + s, in closed form.

    The first moment integrates directly; the zeroth is an incomplete beta
    function in x = d^2 / (d^2 + 4T^2) (substitute x = d^2 / (d^2 + g^2)):
    int_{2T}^inf (d^2 + g^2)^(-p/2) dg = d^(1-p) B(a, 1/2) I_x(a, 1/2) / 2,
    a = (p - 1)/2, which is (2T)^(1-p) / (p - 1) at d = 0.
    """
    p = 2.0 + s
    first = (d * d + 4.0 * T * T) ** (1.0 - p / 2.0) / (p - 2.0)
    if d == 0.0:
        zeroth = (2.0 * T) ** (1.0 - p) / (p - 1.0)
    else:
        a = (p - 1.0) / 2.0
        x = d * d / (d * d + 4.0 * T * T)
        zeroth = 0.5 * d ** (1.0 - p) * special.beta(a, 0.5) * special.betainc(a, 0.5, x)
    return first - 2.0 * T * zeroth


def _cross_tail_oracle(intervals_a, intervals_b, T: float, s: float) -> float:
    """L_s(A x (-inf,-T), B x (T,inf)) by an independent route.

    The base double integral collapses onto the horizontal separation d:
    int lam(d) K(d) dd with lam the overlap density of the two interval
    unions (piecewise linear, trapezoid per interval pair), integrated by
    adaptive quadrature between the trapezoid's breakpoints.
    """
    total = 0.0
    for a0, a1 in intervals_a:
        for b0, b1 in intervals_b:
            # signed separations y - x for x in (a0,a1), y in (b0,b1)
            lo = b0 - a1
            hi = b1 - a0
            m1 = min(b0 - a0, b1 - a1)
            m2 = max(b0 - a0, b1 - a1)
            plateau = min(a1 - a0, b1 - b0)

            def lam(d):
                if d <= lo or d >= hi:
                    return 0.0
                if d <= m1:
                    return d - lo
                if d <= m2:
                    return plateau
                return hi - d

            pts = sorted({lo, m1, m2, hi})
            for c0, c1 in zip(pts[:-1], pts[1:]):
                if c1 <= c0:
                    continue
                val, _ = integrate.quad(
                    lambda d: lam(d) * _tail_kernel_oracle(abs(d), T, s),
                    c0, c1, epsabs=1e-11, epsrel=1e-10, limit=200,
                )
                total += val
    return total


# base windows on (-1, 1) with h = 1/4: all of it, (0, 1), and
# (-1, -1/4) u (1/4, 1)
_SCAN_WINDOWS = {
    "full": np.ones(8, dtype=bool),
    "right": np.arange(8) >= 4,
    "split": np.isin(np.arange(8), [0, 1, 2, 5, 6, 7]),
}


class TestDivergenceScans:
    def _scan_setup(self, s=0.5):
        base = _base(8, 0.25, origin=-1.0)  # omega = (-1, 1)
        v = _graph(base, np.zeros(8))
        return base, v, KernelParams(s, 2)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_oracle_kernel_matches_direct_quadrature(self, s):
        p = 2.0 + s
        for T in (2.0, 64.0):
            for d in (0.0, 0.01, 0.7, 3.0, 50.0):
                ref, _ = integrate.quad(
                    lambda g: (g - 2.0 * T) * (d * d + g * g) ** (-p / 2.0),
                    2.0 * T, np.inf, epsabs=1e-13, epsrel=1e-12,
                )
                got = _tail_kernel_oracle(d, T, s)
                assert got == pytest.approx(ref, rel=1e-11), (T, d)

    @pytest.mark.parametrize("window", sorted(_SCAN_WINDOWS))
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_scan_matches_quadrature_oracle(self, s, window):
        base, v, params = self._scan_setup(s)
        ob = DomainWindow(base, _SCAN_WINDOWS[window])
        Ts = [1.05] + [float(T) for T in 2.0 ** np.arange(1, 8)] + [1000.0]
        omega = cylinder._omega_intervals(ob)
        R = max(abs(omega[0][0]), abs(omega[-1][1]))
        full = nonlocal_divergence_scan(v, ob, Ts, params)
        half = sector_divergence_scan(v, 0.5, 1.0, ob, Ts, params)
        for T, f_row, h_row in zip(Ts, full, half):
            ref_half = _cross_tail_oracle(omega, [(R, T)], T, s)
            ref_full = ref_half + _cross_tail_oracle(omega, [(-T, -R)], T, s)
            assert f_row.value == pytest.approx(ref_full, rel=1e-12), T
            assert h_row.value == pytest.approx(ref_half, rel=1e-12), T

    def test_values_increase_and_dominate_bound(self):
        base, v, params = self._scan_setup()
        rows = nonlocal_divergence_scan(v, full_window(base), [2, 4, 8, 16], params)
        vals = [r.value for r in rows]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(r.lower_bound <= r.value for r in rows)

    def test_tail_slope_near_one_minus_s(self):
        base, v, params = self._scan_setup(s=0.5)
        Ts = [float(T) for T in 2.0 ** np.arange(1, 8)]
        rows = nonlocal_divergence_scan(v, full_window(base), Ts, params)
        slope = fit_tail_slope(rows)
        assert abs(slope - 0.5) <= 0.1

    def test_schedule_validation(self):
        base, v, params = self._scan_setup()
        with pytest.raises(InvalidSequence):
            nonlocal_divergence_scan(v, full_window(base), [4, 2], params)
        with pytest.raises(InvalidSequence):
            nonlocal_divergence_scan(v, full_window(base), [0.5, 2], params)

    def test_sector_fractions(self):
        base, v, params = self._scan_setup()
        full = sector_divergence_scan(v, 1.0, 0.5, full_window(base), [4, 8], params)
        half = sector_divergence_scan(v, 0.5, 0.5, full_window(base), [4, 8], params)
        for f, hrow in zip(full, half):
            assert hrow.value == pytest.approx(0.5 * f.value, rel=1e-12)
        with pytest.raises(HypothesisViolated):
            sector_divergence_scan(v, 0.25, 0.5, full_window(base), [4, 8], params)

    def test_unbounded_graph_rejected(self):
        base, v, params = self._scan_setup()
        big = _graph(base, np.full(8, 2.0))
        with pytest.raises(HypothesisViolated):
            sector_divergence_scan(big, 1.0, 0.5, full_window(base), [4, 8], params)


class TestConfinement:
    def test_flat_graph_confined_at_zero(self):
        base = _base()
        sg = SubgraphSet(base, _graph(base, np.zeros(8)), 2.0)
        M = vertical_confinement_check(sg.cellset(), full_window(base))
        assert M == pytest.approx(0.0, abs=1e-12)

    def test_bumpy_graph_confined_at_peak(self):
        base = _base()
        vals = np.zeros(8)
        vals[3] = 0.5
        sg = SubgraphSet(base, _graph(base, vals), 2.0)
        M = vertical_confinement_check(sg.cellset(), full_window(base))
        assert M == pytest.approx(0.5, abs=base.h)

    def test_short_window_rejected(self):
        base = _base()
        spec = GridSpec(2, (0.0, -0.5), (8, 4), 0.25)
        from fracperim.grid import CellSet

        E = CellSet(spec, np.ones(spec.extent, dtype=bool))
        with pytest.raises(ConfinementUndetermined):
            vertical_confinement_check(E, full_window(base))

    @pytest.mark.parametrize("extent", [(4,), (16,), (8, 8)])
    def test_base_extent_must_match(self, extent):
        sg = SubgraphSet(_base(), _graph(_base(), np.zeros(8)), 2.0)
        other = GridSpec(len(extent), (0.0,) * len(extent), extent, 0.25)
        with pytest.raises(SpecMismatch):
            vertical_confinement_check(sg.cellset(), full_window(other))


class TestAreaAsymptotics:
    def test_flat_graph_classical_area(self):
        base = _base(8, 0.125)
        u = _graph(base, np.zeros(8))
        area = classical_graph_area(u, full_window(base))
        assert area == pytest.approx(1.0, rel=1e-12)

    def test_ratio_approaches_one(self):
        def u_of(spec):
            return ScalarField(spec, np.zeros(spec.extent), 0.0)

        def om_of(spec):
            return full_window(spec)

        specs = [GridSpec(1, (0.0,), (n,), 1.0 / n) for n in (8, 16)]
        rows = graph_area_asymptotics(u_of, om_of, 1.0, [0.9], specs)
        assert len(rows) == 2
        gaps = [abs(1.0 - r.ratio) for r in rows]
        assert gaps[1] < gaps[0] + 0.05
        assert gaps[1] < 0.15

    def test_fit_tail_slope_needs_rows(self):
        with pytest.raises(InvalidSequence):
            fit_tail_slope([])
