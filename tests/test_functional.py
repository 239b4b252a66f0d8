"""Perimeter functionals and their exact structural identities."""

import math

import numpy as np
import pytest

from fracperim import functional
from fracperim.errors import (
    InvalidSchedule,
    InvalidSequence,
    NotDisjoint,
    NotNested,
    SpecMismatch,
    WindowTooShort,
)
from fracperim.functional import (
    PairEngine,
    coarea_check,
    decomposition_check,
    divergence_probe_1d,
    interaction,
    log_square_beta,
    log_square_total,
    perimeter,
    relaxed_energy,
    strip_exponent,
)
from fracperim.grid import (
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
    cellset_from_shape,
    full_window,
)
from fracperim.kernel import InteractionTable, interval_pair_exact, interval_ray_exact
from tests.conftest import (
    explicit_interaction,
    explicit_relaxed_energy,
    table_for,
    universe_table,
    weight_rows,
)


def _random_instance(rng, dim=2, n=8, s=0.5, policy=None):
    if policy is None:
        policy = AnalyticTail()
    spec = (
        GridSpec(1, (0.0,), (n,), 1.0 / n)
        if dim == 1
        else GridSpec(2, (0.0, 0.0), (n, n), 1.0 / n)
    )
    E = CellSet(spec, rng.random(spec.extent) < 0.5)
    table = table_for(spec, s, policy)
    win = DomainWindow(spec, np.ones(spec.extent, dtype=bool), policy)
    return E, win, table


class TestPerimeter:
    def test_breakdown_sums(self, rng):
        E, win, table = _random_instance(rng)
        bd = perimeter(E, win, table)
        assert bd.total == pytest.approx(bd.local + bd.nonlocal_, rel=1e-14)
        assert bd.local >= 0 and bd.nonlocal_ >= 0
        assert not bd.degenerate

    def test_complement_invariance(self, rng):
        for dim in (1, 2):
            E, win, table = _random_instance(rng, dim=dim)
            a = perimeter(E, win, table).total
            b = perimeter(E.complement(), win, table).total
            assert a == pytest.approx(b, rel=1e-12)

    def test_window_monotonicity(self, rng):
        E, win, table = _random_instance(rng)
        sub = np.zeros(win.spec.extent, dtype=bool)
        sub[2:6, 2:6] = True
        small = DomainWindow(win.spec, sub, win.complement_policy)
        assert perimeter(E, small, table).total <= perimeter(E, win, table).total

    def test_empty_window_degenerate(self, rng):
        E, win, table = _random_instance(rng)
        empty = DomainWindow(win.spec, np.zeros(win.spec.extent, dtype=bool),
                             win.complement_policy)
        bd = perimeter(E, empty, table)
        assert bd.degenerate
        assert bd.total == 0.0

    def test_halfline_1d_analytic_value(self):
        # E = (-inf, 0.5) on a unit box with analytic rays: the perimeter
        # in (0,1) is the kernel pair integral across the cut, which has
        # the closed form 2 / (s (1-s)) (2^(1-s) - 1) ... assembled from
        # interval terms; compare against a direct fine-grid computation
        s = 0.5
        spec = GridSpec(1, (0.0,), (8,), 0.125)
        centers = spec.centers().ravel()
        from fracperim.grid import HalfSpaceExterior

        E = CellSet(spec, centers < 0.5, HalfSpaceExterior(0, 0.5))
        win = full_window(spec, AnalyticTail())
        table = table_for(spec, s, AnalyticTail())
        got = perimeter(E, win, table).total
        expect = (
            # inside the window across the cut
            interval_pair_exact(0.0, 0.5, 0.5, 1.0, s)
            # occupied half of the window against the vacant right ray
            + interval_ray_exact(0.0, 0.5, 1.0, s)
            # occupied left ray against the vacant half of the window,
            # mirrored through the origin
            + interval_ray_exact(-1.0, -0.5, 0.0, s)
        )
        assert got == pytest.approx(expect, rel=1e-10)
        # closed form collapses to exactly 4 at s = 1/2
        assert got == pytest.approx(4.0, rel=1e-12)

    def test_spec_mismatch_raises(self, rng):
        E, win, table = _random_instance(rng)
        other = GridSpec(2, (0.0, 0.0), (4, 4), 0.25)
        bad = DomainWindow(other, np.ones((4, 4), dtype=bool), AnalyticTail())
        with pytest.raises(SpecMismatch):
            perimeter(E, bad, table)


class TestInteraction:
    def test_disjointness_enforced(self, rng):
        E, win, table = _random_instance(rng)
        with pytest.raises(NotDisjoint):
            interaction(E.inside, E.inside, table)

    def test_symmetry(self, rng):
        E, win, table = _random_instance(rng)
        A = E.inside
        B = ~E.inside
        assert interaction(A, B, table) == pytest.approx(
            interaction(B, A, table), rel=1e-12
        )

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 16), (1, 257)])  # 16, 256, 257 cells
    def test_direct_and_fft_paths_agree(self, rng, dim, n):
        for _ in range(4):
            E, win, table = _random_instance(rng, dim=dim, n=n)
            A, B = E.inside, ~E.inside
            d = explicit_interaction(A, B, table)
            assert d == pytest.approx(interaction(A, B, table), rel=1e-11)


def _beyond_universe(eng, exterior):
    """(mass to E, mass to cE) per box cell beyond the engine's universe,
    by ``pad_masses``: the whole exterior when the universe is the box (1D
    under AnalyticTail), nothing where a pad carries it."""
    masses = {} if eng.pad else dict(eng.pad_masses(exterior))
    zero = np.zeros(eng.spec.extent)
    return masses.get(1.0, zero), masses.get(0.0, zero)


class TestExplicitOracle:
    """FFT correlations against the explicit sum over cell pairs."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_perimeter_and_decomposition_terms(self, rng, dim):
        n = 300 if dim == 1 else 20
        spec = GridSpec(dim, (0.0,) * dim, (n,) * dim, 1.0 / n)
        E = CellSet(spec, rng.random(spec.extent) < 0.5)
        policy = AnalyticTail()
        table = universe_table(spec, 0.4, policy)
        outer = np.zeros(spec.extent, dtype=bool)
        outer[(slice(n // 8, n - n // 10),) * dim] = True
        inner = np.zeros(spec.extent, dtype=bool)
        inner[(slice(n // 4, n // 2),) * dim] = True
        eng = PairEngine(spec, policy, table)
        assert eng.padded_spec.n_cells > 256
        occ = eng.occupancy(E)
        om = eng.embed(outer)

        def exact(A, B):
            return explicit_interaction(A, B, table)

        local = exact(occ & om, ~occ & om)
        nl = [exact(occ & om, ~occ & ~om), exact(occ & ~om, ~occ & om)]
        # in 1D the universe is the box and the exterior enters whole, here
        # by ``pad_masses`` (closed forms minus box rectangle sums)
        mass_e, mass_c = _beyond_universe(eng, E.exterior)
        nl += [math.fsum(mass_c[E.inside & outer]), math.fsum(mass_e[~E.inside & outer])]
        bd = perimeter(E, DomainWindow(spec, outer, policy), table)
        assert bd.local == pytest.approx(local, rel=1e-12)
        assert bd.nonlocal_ == pytest.approx(math.fsum(nl), rel=1e-12)
        assert bd.total == pytest.approx(local + math.fsum(nl), rel=1e-12)

        strip = eng.embed(outer & ~inner)
        inner_win = DomainWindow(spec, inner, policy)
        outer_win = DomainWindow(spec, outer, policy)
        cross = functional._decomposition_terms(E, inner_win, outer_win,
                                                functional._engine_for(outer_win, table))[2:]
        # the cross terms also hold the strip's mass to the 1D exterior
        box_strip = outer & ~inner
        for A, B, got, ray in ((occ & strip, ~occ & ~eng.embed(inner), cross[0],
                                mass_c[E.inside & box_strip].sum()),
                               (occ & ~om, ~occ & strip, cross[1],
                                mass_e[~E.inside & box_strip].sum())):
            assert interaction(A, B, table) == pytest.approx(exact(A, B), rel=1e-12)
            assert got == pytest.approx(exact(A, B) + ray, rel=1e-12)
        res = decomposition_check(E, inner_win, outer_win, table)
        assert res <= 1e-12 * bd.total


# ---------------------------------------------------------------------------
# The exterior rule against its slow predecessors.
# ---------------------------------------------------------------------------


def _ray_segments_1d(spec, exterior):
    """Exterior rays as (lo, hi, in_E) segments; lo may be -inf, hi +inf.
    The level of a half-space is continuous, not sampled at cell centres."""
    x_lo = float(spec.box_lo[0])
    x_hi = float(spec.box_hi[0])
    if isinstance(exterior, EmptyExterior):
        return [(-math.inf, x_lo, False), (x_hi, math.inf, False)]
    if isinstance(exterior, FullExterior):
        return [(-math.inf, x_lo, True), (x_hi, math.inf, True)]
    lv = exterior.level
    below = exterior.below
    segs = []
    if lv >= x_lo:
        segs.append((-math.inf, x_lo, below))
    else:
        segs.append((-math.inf, lv, below))
        segs.append((lv, x_lo, not below))
    if lv <= x_hi:
        segs.append((x_hi, math.inf, not below))
    else:
        segs.append((x_hi, lv, below))
        segs.append((lv, math.inf, not below))
    return segs


def _cell_segment_mass(a, b, lo, hi, s):
    """Closed-form interaction of cell (a,b) with segment (lo,hi) outside it."""
    if hi <= a:  # segment left of the cell: reflect
        if lo == -math.inf:
            return interval_ray_exact(-b, -a, -hi, s)
        return interval_pair_exact(lo, hi, a, b, s)
    if lo >= b:  # right of the cell
        if hi == math.inf:
            return interval_ray_exact(a, b, lo, s)
        return interval_pair_exact(a, b, lo, hi, s)
    raise ValueError("segment overlaps cell")


def _ray_masses_1d(spec, exterior, s):
    """Per-cell interaction mass with the E / complement-E exterior rays."""
    n = spec.extent[0]
    mass_e = np.zeros(n)
    mass_c = np.zeros(n)
    for i in range(n):
        a = spec.origin[0] + i * spec.h
        b = a + spec.h
        for lo, hi, in_e in _ray_segments_1d(spec, exterior):
            if hi > lo:
                m = _cell_segment_mass(a, b, lo, hi, s)
                if in_e:
                    mass_e[i] += m
                else:
                    mass_c[i] += m
    return mass_e, mass_c


class TestExteriorRule:
    """Lattice half-space masses and the one-cell constant against the
    continuous 1D ray masses and against a second fit of the constant."""

    _SPEC = GridSpec(1, (0.0,), (8,), 0.125)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("exterior", [
        EmptyExterior(), FullExterior(),
        HalfSpaceExterior(0, 0.375), HalfSpaceExterior(0, 0.375, below=False),
        HalfSpaceExterior(0, 1.25), HalfSpaceExterior(0, -0.5, below=False),
        HalfSpaceExterior(0, 3.0), HalfSpaceExterior(0, 0.0),
        HalfSpaceExterior(0, math.inf), HalfSpaceExterior(0, -math.inf),
    ], ids=repr)
    def test_face_aligned_exteriors_match_the_rays(self, exterior, s):
        # on a cell face (or inside the box) the lattice half-space is the
        # continuous one, so the rule's masses equal the rays
        table = table_for(self._SPEC, s, AnalyticTail())
        eng = PairEngine(self._SPEC, AnalyticTail(), table)
        ref_e, ref_c = _ray_masses_1d(self._SPEC, exterior, s)
        got_e, got_c = eng.exterior_fields(exterior)
        scale = functional._cell_constant(1, s) * self._SPEC.h ** (1.0 - s)
        assert np.abs(got_e - ref_e).max() <= 1e-13 * scale
        assert np.abs(got_c - ref_c).max() <= 1e-13 * scale

    def test_off_face_level_outside_the_box_is_a_lattice_count(self):
        # level 1.3 beyond the box [0, 1]: the lattice cells with centres
        # below it are cells 8 and 9 (centres 1.0625, 1.1875), so E holds
        # the exterior up to the face at 1.25, not up to 1.3
        s = 0.4
        eng = PairEngine(self._SPEC, AnalyticTail(), table_for(self._SPEC, s, AnalyticTail()))
        got_e, got_c = eng.exterior_fields(HalfSpaceExterior(0, 1.3))
        ref_e, ref_c = _ray_masses_1d(self._SPEC, HalfSpaceExterior(0, 1.25), s)
        scale = functional._cell_constant(1, s) * self._SPEC.h ** (1.0 - s)
        assert np.abs(got_e - ref_e).max() <= 1e-13 * scale
        assert np.abs(got_c - ref_c).max() <= 1e-13 * scale
        continuous_e, _ = _ray_masses_1d(self._SPEC, HalfSpaceExterior(0, 1.3), s)
        assert np.all(continuous_e > got_e)

    @pytest.mark.parametrize("policy", [AnalyticTail(), TruncateAtRadius(2.0)],
                             ids=["analytic", "truncate"])
    def test_level_on_a_centre_beyond_the_box(self, policy):
        # the level sits on cell -4's centre origin + (-4 + 0.5) h, so that
        # cell is not below it: the lattice half-space of a level h/4 lower
        spec = GridSpec(1, (0.0,), (3,), 1.0 / 3)
        level = 0.0 + (-4 + 0.5) * spec.h
        table = table_for(spec, 0.5, policy)
        routes = []
        for lv in (level, level - spec.h / 4):
            eng = PairEngine(spec, policy, table)
            routes.append(eng.exterior_fields(HalfSpaceExterior(0, lv)))
        for got, ref in zip(*routes):
            assert np.abs(got - ref).max() <= 1e-13 * ref.max()

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("n,second", [(2, (31, 63, 127)), (3, (23, 31, 47))])
    def test_cell_constant_against_a_second_fit(self, n, second, s):
        ref = functional._fit_cell_constant(n, s, second)
        assert abs(functional._cell_constant(n, s) - ref) <= 1e-12 * ref

    def test_cell_constant_values(self):
        assert functional._cell_constant(1, 0.5) == 8.0
        for n, s, ref in ((2, 0.3, 31.1746471476), (2, 0.5, 27.2119083603),
                          (2, 0.7, 34.0833249684), (3, 0.3, 64.4124508799),
                          (3, 0.5, 57.8316948034), (3, 0.7, 74.9989462575)):
            assert functional._cell_constant(n, s) == pytest.approx(ref, rel=1e-10)


def _box_route_case(dim, policy, kind, seed=3):
    """A random set with one of the five exterior kinds, a partial window
    and a smaller window inside it, on a small 2D or 3D box."""
    rng = np.random.default_rng(seed)
    n = 6 if dim == 2 else 3
    spec = GridSpec(dim, (0.0,) * dim, (n,) * dim, 1.0 / n)
    base = GridSpec(dim - 1, (0.0,) * (dim - 1), (n,) * (dim - 1), 1.0 / n)
    exterior = {
        "empty": EmptyExterior(),
        "full": FullExterior(),
        "below": HalfSpaceExterior(dim - 1, 0.45),
        "above": HalfSpaceExterior(0, 0.6, below=False),
        "subgraph": SubgraphExterior(base, tuple(0.3 + 0.4 * rng.random(n ** (dim - 1))),
                                     0.5),
    }[kind]
    E = CellSet(spec, rng.random(spec.extent) < 0.5, exterior)
    outer = np.zeros(spec.extent, dtype=bool)
    outer[(slice(1, n),) * dim] = True
    outer &= rng.random(spec.extent) < 0.8
    inner = outer & (rng.random(spec.extent) < 0.5)
    return (E, DomainWindow(spec, inner, policy), DomainWindow(spec, outer, policy),
            universe_table(spec, 0.45, policy))


_KINDS = ["empty", "full", "below", "above", "subgraph"]
_POLICIES = [AnalyticTail(), TruncateAtRadius(0.34)]


class TestBoxRoute:
    """Box correlations plus cached exterior fields against explicit pair
    sums over the padded universe."""

    @staticmethod
    def _close(got, ref):
        assert abs(got - ref) <= 1e-12 * abs(ref), (got, ref)

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("policy", _POLICIES, ids=["analytic", "truncate"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_perimeter_and_cross_terms(self, dim, policy, kind):
        E, inner, outer, table = _box_route_case(dim, policy, kind)
        eng = PairEngine(E.spec, policy, table)
        occ = eng.occupancy(E)
        om_out = eng.embed(outer.omega)
        om_in = eng.embed(inner.omega)
        strip = om_out & ~om_in

        def exact(A, B):
            return explicit_interaction(A, B, table)

        bd = perimeter(E, outer, table)
        self._close(bd.local, exact(occ & om_out, ~occ & om_out))
        self._close(bd.nonlocal_, exact(occ & om_out, ~occ & ~om_out)
                    + exact(occ & ~om_out, ~occ & om_out))
        eng_route = functional._engine_for(outer, table)
        cross = functional._decomposition_terms(E, inner, outer, eng_route)[2:]
        self._close(cross[0], exact(occ & strip, ~occ & ~om_in))
        self._close(cross[1], exact(occ & ~om_out, ~occ & strip))
        assert decomposition_check(E, inner, outer, table) <= 1e-12 * bd.total

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("policy", _POLICIES, ids=["analytic", "truncate"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_condensed_linear_terms(self, dim, policy, kind):
        from fracperim.minimize import MinimizationProblem, _Condensed

        E, _, outer, table = _box_route_case(dim, policy, kind)
        eng = PairEngine(E.spec, policy, table)
        occ = eng.occupancy(E)
        om = eng.embed(outer.omega)
        cond = _Condensed(MinimizationProblem(outer, E, table))
        assert cond.m == outer.n_omega > 0
        for k, cell in enumerate(np.argwhere(om)):
            a = np.zeros(om.shape, dtype=bool)
            a[tuple(cell)] = True
            self._close(cond.p[k], explicit_interaction(a, occ & ~om, table))
            self._close(cond.q[k], explicit_interaction(a, ~occ & ~om, table))


# ---------------------------------------------------------------------------
# The rule in a padded universe against its padded-universe predecessors.
# ---------------------------------------------------------------------------


def _padded_exterior_fields(eng, exterior):
    """(X_E, X_C) as the pad cells' fields (pad_E (*) w, pad_C (*) w) read
    on the box: one correlation per pad side over the whole padded
    universe."""
    occ = eng.occupancy(CellSet(eng.spec, np.zeros(eng.spec.extent, bool), exterior))
    pad = ~eng.embed(np.ones(eng.spec.extent, dtype=bool))
    box = tuple(slice(eng.pad, eng.pad + n) for n in eng.spec.extent)
    return tuple(functional._fields((side,), eng.table, {})[0][box]
                 for side in (occ & pad, ~occ & pad))


def _padded_pad_masses(eng, exterior):
    """{v: M_v} from the explicit weight rows of the box cells over the
    whole padded universe, one column per value the pad cells hold."""
    extent = eng.spec.extent
    vals = ScalarField(eng.spec, np.zeros(extent), exterior).values_on(eng.padded_spec)
    box = eng.embed(np.ones(extent, dtype=bool))
    levels = np.unique(vals[~box])
    onehot = ((vals[..., None] == levels) & ~box[..., None]).reshape(-1, len(levels))
    masses = np.empty((int(box.sum()), len(levels)))
    for lo, rows in weight_rows(np.argwhere(box), vals.shape, eng.table):
        masses[lo:lo + len(rows)] = rows @ onehot
    return {float(v): m.reshape(extent) for v, m in zip(levels, masses.T)}


def _padded_cases(spec, pad):
    """The five exterior kinds, with half-space levels inside the box,
    beyond the padded universe on either side and on a pad cell face."""
    dim, n, h = spec.dim, spec.extent[0], spec.h
    base = GridSpec(dim - 1, (0.0,) * (dim - 1), (n,) * (dim - 1), h)
    heights = 0.3 + 0.4 * np.random.default_rng(7).random(n ** (dim - 1))
    return {
        "empty": EmptyExterior(),
        "full": FullExterior(),
        "below": HalfSpaceExterior(dim - 1, 0.45),
        "above": HalfSpaceExterior(0, 0.6, below=False),
        "subgraph": SubgraphExterior(base, tuple(heights), 0.55),
        "beyond_high": HalfSpaceExterior(0, 1.0 + (pad + 1.5) * h),
        "beyond_low": HalfSpaceExterior(dim - 1, -(pad + 1.5) * h),
        "pad_face": HalfSpaceExterior(0, -h, below=False),
    }


class TestRuleInThePaddedUniverse:
    """``exterior_fields`` and ``pad_masses`` (the lattice rule with box
    sums) against their predecessors over the whole padded universe."""

    @pytest.mark.parametrize("kind", _KINDS + ["beyond_high", "beyond_low", "pad_face"])
    @pytest.mark.parametrize("policy", [AnalyticTail(), TruncateAtRadius(0.34)],
                             ids=["analytic", "truncate"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_the_padded_universe(self, dim, policy, kind):
        n, s = (6 if dim == 2 else 3), 0.45
        spec = GridSpec(dim, (0.0,) * dim, (n,) * dim, 1.0 / n)
        eng = PairEngine(spec, policy, universe_table(spec, s, policy))
        exterior = _padded_cases(spec, eng.pad)[kind]
        tol = 1e-13 * functional._cell_constant(dim, s) * spec.h ** (dim - s)
        for got, ref in zip(eng.exterior_fields(exterior),
                            _padded_exterior_fields(eng, exterior)):
            assert np.abs(got - ref).max() <= tol
        masses = dict(eng.pad_masses(exterior))
        ref = _padded_pad_masses(eng, exterior)
        assert masses.keys() == ref.keys()
        for v, m in ref.items():
            assert np.abs(masses[v] - m).max() <= tol


class TestTableReach:
    """``table_for`` reaches from the box to the box plus its pad, and the
    outputs read nothing further."""

    @pytest.mark.parametrize("policy", _POLICIES, ids=["analytic", "truncate"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_outputs_equal_a_universe_table(self, dim, policy):
        E, _, outer, big = _box_route_case(dim, policy, "subgraph")
        spec = E.spec
        reach = max(spec.extent) + functional._pad_cells(spec, policy) - 1
        assert functional.table_for(spec, 0.45, policy).max_offset == reach < big.max_offset
        # the universe table's own weights cut at that reach: the quadrature
        # can round a weight differently at another reach
        small = InteractionTable(spec, big.params, reach, big.block(reach))
        u = ScalarField(spec, np.random.default_rng(dim).random(spec.extent), E.exterior)
        outs = []
        for table in (small, big):
            eng = PairEngine(spec, policy, table)
            outs.append((perimeter(E, outer, table), *eng.exterior_fields(E.exterior),
                         *(m for _, m in eng.pad_masses(E.exterior)),
                         relaxed_energy(u, outer, table)))
        assert outs[0][0] == outs[1][0]
        assert outs[0][-1] == outs[1][-1]
        for a, b in zip(outs[0][1:-1], outs[1][1:-1]):
            assert np.array_equal(a, b)


class TestBoxOnlyTransforms:
    """No FFT runs on a grid other than the box's, exterior fields
    included."""

    @pytest.mark.parametrize("policy", _POLICIES, ids=["analytic", "truncate"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_every_correlation_is_box_sized(self, dim, policy, monkeypatch):
        from fracperim.approx import approximate_set
        from fracperim.minimize import MinimizationProblem, solve_and_threshold

        E, inner, outer, _ = _box_route_case(dim, policy, "below")
        table = functional.table_for(E.spec, 0.45, policy)  # no engine cached yet
        shapes = []
        original = functional._correlate

        def box_only(stack, *args):
            shapes.append(stack.shape[1:])
            assert stack.shape[1:] == E.spec.extent
            return original(stack, *args)

        monkeypatch.setattr(functional, "_correlate", box_only)
        perimeter(E, outer, table)
        decomposition_check(E, inner, outer, table)
        u = ScalarField(E.spec, np.random.default_rng(1).integers(0, 3, E.spec.extent) / 2.0,
                        E.exterior)
        coarea_check(u, outer, table)
        solve_and_threshold(MinimizationProblem(outer, E, table))
        approximate_set(E, outer, [2 * E.spec.h, E.spec.h], table)
        assert shapes


class TestSubgraphExterior:
    """A subgraph exterior must lie in the box's vertical range over the
    box's base, under every policy."""

    @pytest.mark.parametrize("policy", _POLICIES, ids=["analytic", "truncate"])
    def test_leaving_the_box_raises(self, policy):
        spec = GridSpec(2, (0.0, 0.0), (6, 6), 1.0 / 6)
        base = GridSpec(1, (0.0,), (6,), 1.0 / 6)
        wide = GridSpec(1, (-1.0 / 6,), (7,), 1.0 / 6)
        table = table_for(spec, 0.45, policy)
        window = full_window(spec, policy)
        for exterior, error in (
            (SubgraphExterior(base, (0.5,) * 5 + (1.2,), 0.5), WindowTooShort),
            (SubgraphExterior(base, (0.5,) * 6, -0.1), WindowTooShort),
            (SubgraphExterior(wide, (0.5,) * 7, 0.5), SpecMismatch),
        ):
            E = CellSet(spec, np.zeros(spec.extent, dtype=bool), exterior)
            with pytest.raises(error):
                perimeter(E, window, table)
            with pytest.raises(error):
                relaxed_energy(ScalarField(spec, np.zeros(spec.extent), exterior),
                               window, table)


def test_fast_len_matches_scipy():
    from scipy.fft import next_fast_len

    assert [functional._fast_len(n) for n in range(1, 4097)] == [
        next_fast_len(n, real=True) for n in range(1, 4097)]


class TestFields:
    """``PairEngine.fields`` on a batch of masks, empty ones included,
    against explicit pair sums."""

    @pytest.mark.parametrize("dim,n", [(1, 24), (2, 8), (3, 4)])
    def test_batch_matches_explicit_sums(self, dim, n):
        rng = np.random.default_rng(dim)
        spec = GridSpec(dim, (0.0,) * dim, (n,) * dim, 1.0 / n)
        policy = TruncateAtRadius(0.25)
        table = table_for(spec, 0.35, policy)
        empty = np.zeros(spec.extent, dtype=bool)
        masks = [rng.random(spec.extent) < 0.4, empty, rng.random(spec.extent) < 0.7,
                 empty]
        masks[2][(0,) * dim] = True
        fields = PairEngine(spec, policy, table).fields(*masks)
        assert len(fields) == len(masks)
        for A, f in zip(masks, fields):
            assert f.shape == spec.extent
            if not A.any():
                assert not f.any()
                continue
            for B in (~A, ~A & (rng.random(spec.extent) < 0.5)):
                ref = explicit_interaction(A, B, table)
                assert abs(float(f[B].sum()) - ref) <= 1e-12 * ref


class TestConvolve:
    """``_convolve``'s per-axis inverse, cropped before each next axis,
    against ``irfftn`` of the whole grid followed by the crop."""

    @pytest.mark.parametrize("shape,crop", [
        ((24,), (slice(24),)),
        ((24,), (slice(5, 19),)),
        ((9, 7), (slice(9), slice(7))),
        ((9, 7), (slice(2, 8), slice(3, 5))),
        ((5, 6, 4), (slice(5), slice(6), slice(4))),
        ((5, 6, 4), (slice(1, 4), slice(2, 6), slice(0, 3))),
    ])
    def test_equals_the_irfftn_route(self, shape, crop):
        rng = np.random.default_rng(len(shape))
        fast = tuple(functional._fast_len(2 * n - 1) for n in shape)
        blocks = []
        for _ in range(3):
            b = rng.random(tuple(2 * (n // 2) + 1 for n in shape))
            blocks.append(b + np.flip(b))  # even
        spectra = functional._even_spectra(blocks, fast)
        stack = rng.random((3,) + shape)
        axes = tuple(range(1, len(shape) + 1))
        for sp in (spectra, spectra[0]):  # one kernel per array, and broadcast
            ref = np.fft.irfftn(np.fft.rfftn(stack, fast, axes) * sp, fast, axes)
            got = functional._convolve(stack, sp, fast, crop)
            assert np.array_equal(got, ref[(Ellipsis,) + crop])


class TestEngineCache:
    """One engine per (table, spec, policy): spectra and exterior fields
    are computed once, and after that every correlation is box-sized."""

    @staticmethod
    def _fresh_case():
        spec = GridSpec(2, (0.0, 0.0), (10, 10), 0.1)
        E = cellset_from_shape(spec, {"shape": "ball", "center": [0.4, 0.5],
                                      "radius": 0.3})
        E = CellSet(spec, E.inside, HalfSpaceExterior(0, 0.5))
        inner = np.zeros(spec.extent, dtype=bool)
        inner[2:8, 3:9] = True
        window = full_window(spec, AnalyticTail())
        return (E, DomainWindow(spec, inner, AnalyticTail()), window,
                functional.table_for(spec, 0.5, AnalyticTail()))

    def test_second_call_builds_no_spectrum(self, monkeypatch):
        E, inner, window, table = self._fresh_case()
        calls = []
        original = functional._even_spectra

        def counted(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(functional, "_even_spectra", counted)
        first = perimeter(E, window, table)
        assert calls  # the cold call builds the box spectrum
        calls.clear()
        assert perimeter(E, window, table) == first
        assert perimeter(E, inner, table).total > 0.0
        decomposition_check(E, inner, window, table)
        assert calls == []
        engine = functional._engine_for(window, table)
        assert functional._engine_for(inner, table) is engine

    def test_warm_decomposition_makes_one_transform(self, monkeypatch):
        # the masks of both perimeters and the cross terms in one batch
        E, inner, window, table = self._fresh_case()
        first = decomposition_check(E, inner, window, table)
        calls = []
        original = np.fft.rfftn

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfftn", counted)
        assert decomposition_check(E, inner, window, table) == first
        assert len(calls) == 1

    def test_warm_calls_correlate_box_masks_only(self, monkeypatch):
        from fracperim import approx

        E, inner, window, table = self._fresh_case()
        u = approx.mollify(E, approx.MollifierSpec(0.3))
        scan = approx._ThresholdScan(window, table, E.exterior)
        perimeter(E, window, table)  # warm-up: the exterior fields
        eng = functional._engine_for(window, table)
        assert scan.engine is eng
        shapes = []
        original = functional._correlate

        def recorded(stack, *args):
            shapes.append(stack.shape[1:])  # each batch stacks masks of one grid
            return original(stack, *args)

        monkeypatch.setattr(functional, "_correlate", recorded)
        perimeter(E, window, table)
        perimeter(E, inner, table)
        decomposition_check(E, inner, window, table)
        scan.totals([u])
        assert shapes and set(shapes) == {E.spec.extent}
        assert eng._exterior
        for parts in eng._exterior.values():
            for _, arr in parts:
                assert arr.shape == E.spec.extent and arr.base is None

    @pytest.mark.parametrize("dim,policy", [(1, AnalyticTail()), (2, AnalyticTail()),
                                            (2, TruncateAtRadius(0.25)),
                                            (2, TruncateAtRadius(0.0))],
                             ids=["1d-rays", "2d-analytic", "2d-truncate", "2d-no-pad"])
    def test_cold_exterior_masses_and_row_totals_correlate_nothing(self, dim, policy,
                                                                   monkeypatch):
        n = 12 if dim == 1 else 6
        spec = GridSpec(dim, (0.0,) * dim, (n,) * dim, 1.0 / n)
        table = functional.table_for(spec, 0.4, policy)
        rows_ref = functional._fields((np.ones(spec.extent, dtype=bool),), table, {})[0]
        calls = []
        original = functional._correlate

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(functional, "_correlate", counted)
        arrays = []
        for exterior in (EmptyExterior(), FullExterior(), HalfSpaceExterior(0, 0.45),
                         HalfSpaceExterior(dim - 1, -0.3, below=False), 0.25):
            eng = PairEngine(spec, policy, table)  # cold: nothing cached
            masses = dict(eng.pad_masses(exterior))
            x_e, x_c = eng.exterior_fields(exterior)
            for v, x in ((1.0, x_e), (0.0, x_c)):
                assert v not in masses or x is masses[v]  # one entry: M_1 and M_0
            arrays += [x_e, x_c, *masses.values(), eng.row_totals()]
        assert calls == []
        assert np.abs(arrays[-1] - rows_ref).max() <= 1e-13 * rows_ref.max()
        for arr in arrays:
            assert arr.shape == spec.extent and arr.base is None and arr.flags.c_contiguous


class TestTruncationBound:
    @staticmethod
    def _ball(n):
        spec = GridSpec(2, (0.0, 0.0), (n, n), 1.0 / n)
        return cellset_from_shape(
            spec, {"shape": "ball", "center": [0.5, 0.5], "radius": 0.3})

    @pytest.mark.parametrize("s", [0.2, 0.5])
    def test_bound_covers_larger_radius(self, s):
        E = self._ball(16)
        win = full_window(E.spec, AnalyticTail())
        table = table_for(E.spec, s, AnalyticTail())
        bd = perimeter(E, win, table)
        far = TruncateAtRadius(12.0)
        ref = perimeter(E, full_window(E.spec, far), table_for(E.spec, s, far)).total
        assert ref > bd.total
        assert bd.truncation_error_bound >= ref - bd.total
        # E's cells under an empty exterior are its complement's cells
        # under a full one
        bd_c = perimeter(E.complement(), win, table)
        assert bd_c.truncation_error_bound == bd.truncation_error_bound

    def test_bound_below_perimeter(self):
        E = self._ball(64)
        bd = perimeter(E, full_window(E.spec, AnalyticTail()),
                       table_for(E.spec, 0.5, AnalyticTail()))
        assert 0.0 < bd.truncation_error_bound < bd.total


class TestDecomposition:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("s", [0.25, 0.75])
    def test_residual_vanishes(self, rng, dim, s):
        E, win, table = _random_instance(rng, dim=dim, s=s)
        spec = win.spec
        sub = np.zeros(spec.extent, dtype=bool)
        sub[(slice(2, 6),) * dim] = True
        inner = DomainWindow(spec, sub, win.complement_policy)
        res = decomposition_check(E, inner, win, table)
        ref = perimeter(E, win, table).total
        assert res <= 1e-10 * (1.0 + ref)

    def test_equal_windows_trivial(self, rng):
        E, win, table = _random_instance(rng)
        assert decomposition_check(E, win, win, table) <= 1e-12

    def test_not_nested_raises(self, rng):
        E, win, table = _random_instance(rng)
        spec = win.spec
        sub = np.ones(spec.extent, dtype=bool)
        small = DomainWindow(spec, np.zeros(spec.extent, dtype=bool),
                             win.complement_policy)
        small2 = DomainWindow(spec, sub, win.complement_policy)
        inner_bigger = DomainWindow(
            spec, np.ones(spec.extent, dtype=bool), win.complement_policy
        )
        shrunk = np.ones(spec.extent, dtype=bool)
        shrunk[0, 0] = False
        outer = DomainWindow(spec, shrunk, win.complement_policy)
        with pytest.raises(NotNested):
            decomposition_check(E, inner_bigger, outer, table)

    def test_difference_identity(self, rng):
        # sets agreeing outside an inner window have equal perimeter gaps
        # on the inner and outer windows
        E, win, table = _random_instance(rng)
        spec = win.spec
        sub = np.zeros(spec.extent, dtype=bool)
        sub[3:6, 2:5] = True
        inner = DomainWindow(spec, sub, win.complement_policy)
        other = E.inside.copy()
        flip = sub & (rng.random(spec.extent) < 0.5)
        other[flip] = ~other[flip]
        F = CellSet(spec, other, E.exterior)
        lhs = perimeter(E, win, table).total - perimeter(F, win, table).total
        rhs = perimeter(E, inner, table).total - perimeter(F, inner, table).total
        assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(lhs)))


class TestCoarea:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_identity_random_field(self, rng, dim):
        _, win, table = _random_instance(rng, dim=dim)
        u = ScalarField(win.spec, rng.random(win.spec.extent), 0.0)
        lhs, rhs = coarea_check(u, win, table)
        assert lhs == pytest.approx(rhs, rel=1e-11)

    @pytest.mark.parametrize("policy", [AnalyticTail(), TruncateAtRadius(0.3)])
    def test_batched_levels_equal_the_perimeters(self, rng, policy):
        # more level sets than one batch takes, and an occupancy exterior,
        # whose model changes with the level
        _, win, table = _random_instance(rng, policy=policy)
        spec = win.spec
        n_levels = 2 * functional._LEVEL_BATCH + 3
        vals = rng.integers(0, n_levels, spec.extent) / (n_levels - 1)
        vals.flat[:2] = 0.0, 1.0  # the occupancy exterior's values
        for ext in (0.25, HalfSpaceExterior(0, 0.5)):
            u = ScalarField(spec, vals, ext)
            levels = sorted(set(np.unique(vals).tolist()) | {0.0, 1.0}
                            | ({ext} if isinstance(ext, float) else set()))
            parts = [(hi - lo) * perimeter(functional.superlevel(u, lo), win, table).total
                     for lo, hi in zip(levels[:-1], levels[1:])]
            assert len(parts) > functional._LEVEL_BATCH
            assert coarea_check(u, win, table)[1] == math.fsum(parts)

    def test_indicator_reduces_to_perimeter(self, rng):
        E, win, table = _random_instance(rng)
        u = ScalarField(win.spec, E.inside.astype(float), 0.0)
        f = relaxed_energy(u, win, table)
        p = perimeter(E, win, table).total
        assert f == pytest.approx(p, rel=1e-11)


def _offset_loop_energy(u, window, table):
    """F(u, Omega) by a loop over every offset of the universe: for each
    offset, the shifted products of the field, one table weight apiece."""
    eng = PairEngine(window.spec, window.complement_policy, table)
    vals = u.values_on(eng.padded_spec)
    om = eng.embed(window.omega)
    shape = vals.shape
    reaches = tuple(n - 1 for n in shape)
    partials = []
    for delta in np.ndindex(*(2 * r + 1 for r in reaches)):
        off = tuple(d - r for d, r in zip(delta, reaches))
        if not any(off):
            continue
        src = tuple(slice(max(0, -o), min(n, n - o)) for n, o in zip(shape, off))
        dst = tuple(slice(max(0, o), min(n, n + o)) for n, o in zip(shape, off))
        fac = np.where(om[dst], 0.5, 1.0)
        w = table.weight(off)
        partials.append(w * float(np.sum(np.abs(vals[src] - vals[dst]) * fac * om[src])))
    return math.fsum(partials) + _exterior_energy(u, eng, window.omega)


def _exterior_energy(u, eng, omega):
    """Sum over window cells a of |u_a - v| times the mass of a to the
    exterior cells holding v beyond the engine's universe, by
    ``exterior_fields``: the whole exterior when the universe is the box
    (1D under AnalyticTail), nothing where a pad carries it."""
    if eng.pad:
        return 0.0
    ext = u.exterior
    v = u.values[omega]
    if isinstance(ext, (int, float)):
        # a constant holds its value on every exterior cell
        x_e, x_c = eng.exterior_fields(FullExterior())
        return math.fsum(np.abs(v - ext) * (x_e + x_c)[omega])
    x_e, x_c = eng.exterior_fields(ext)
    return math.fsum(np.abs(v - 1.0) * x_e[omega]) + math.fsum(np.abs(v) * x_c[omega])


class TestRelaxedEnergyOracle:
    """The chunked pair sum against the offset loop it replaced."""

    @staticmethod
    def _check(u, window, table):
        got = relaxed_energy(u, window, table)
        ref = _offset_loop_energy(u, window, table)
        assert got == pytest.approx(ref, rel=1e-12)
        lhs, rhs = coarea_check(u, window, table)
        assert abs(lhs - rhs) <= 1e-10 * rhs

    def test_1d_analytic_rays_halfspace_exterior(self, rng):
        spec = GridSpec(1, (0.0,), (24,), 1.0 / 24)
        omega = np.zeros(spec.extent, dtype=bool)
        omega[3:20] = True
        win = DomainWindow(spec, omega, AnalyticTail())
        u = ScalarField(spec, rng.integers(0, 5, spec.extent) / 4.0,
                        HalfSpaceExterior(0, 0.4))
        table = universe_table(spec, 0.3, AnalyticTail())
        assert PairEngine(spec, AnalyticTail(), table).pad == 0
        self._check(u, win, table)

    @pytest.mark.parametrize("policy", [AnalyticTail(), TruncateAtRadius(0.3)],
                             ids=["analytic", "truncate"])
    def test_2d_partial_window(self, rng, policy):
        spec = GridSpec(2, (0.0, 0.0), (10, 10), 0.1)
        omega = np.zeros(spec.extent, dtype=bool)
        omega[2:9, 1:6] = True
        win = DomainWindow(spec, omega, policy)
        u = ScalarField(spec, rng.random(spec.extent), 1.0)
        self._check(u, win, universe_table(spec, 0.6, policy))

    def test_3d_small_field(self, rng):
        spec = GridSpec(3, (0.0,) * 3, (4, 4, 4), 0.25)
        policy = TruncateAtRadius(0.25)
        win = full_window(spec, policy)
        u = ScalarField(spec, rng.integers(0, 3, spec.extent) / 2.0, 0.0)
        self._check(u, win, universe_table(spec, 0.5, policy))

    def test_independent_of_the_fft(self, rng, monkeypatch):
        _, win, _ = _random_instance(rng, n=12)
        table = universe_table(win.spec, 0.5, win.complement_policy)
        u = ScalarField(win.spec, rng.random(win.spec.extent), 0.0)

        def forbidden(*args, **kwargs):
            raise AssertionError("relaxed_energy must not use the FFT correlation")

        monkeypatch.setattr(functional, "_correlate", forbidden)
        ref = relaxed_energy(u, win, table)  # a cold engine: the pad masses too
        assert ref == pytest.approx(_offset_loop_energy(u, win, table), rel=1e-12)
        assert relaxed_energy(u, win, table) == ref


def _padded_pair_sum_energy(u, window, table):
    """F(u, Omega) over explicit (window cell, padded-universe cell) pairs:
    w(j - a) |u_a - u_j| summed over window cells a and every cell j of
    the padded universe, halved when j lies in the window, plus the 1D
    ray terms."""
    eng = PairEngine(window.spec, window.complement_policy, table)
    vals = u.values_on(eng.padded_spec)
    om = eng.embed(window.omega)
    vflat = vals.ravel()
    half = np.where(om.ravel(), 0.5, 1.0)
    v_om = vals[om]
    total = math.fsum(
        float((np.abs(v_om[lo:lo + len(rows), None] - vflat) * half * rows).sum())
        for lo, rows in weight_rows(np.argwhere(om), vals.shape, table))
    return total + _exterior_energy(u, eng, window.omega)


class TestRelaxedEnergyOnTheBox:
    """Box pairs plus the engine's pad masses against the explicit sum over
    the whole padded universe."""

    @staticmethod
    def _check(u, window, table):
        ref = _padded_pair_sum_energy(u, window, table)
        assert abs(relaxed_energy(u, window, table) - ref) <= 1e-12 * ref
        assert abs(relaxed_energy(u, window, table) - ref) <= 1e-12 * ref  # warm

    def test_constant_non_binary_exterior(self, rng):
        for dim, n in ((1, 24), (2, 9)):
            spec = GridSpec(dim, (0.0,) * dim, (n,) * dim, 1.0 / n)
            omega = np.zeros(spec.extent, dtype=bool)
            omega[(slice(1, 7),) + (slice(2, 9),) * (dim - 1)] = True
            win = DomainWindow(spec, omega, AnalyticTail())
            u = ScalarField(spec, rng.random(spec.extent), 0.25)
            table = universe_table(spec, 0.4, AnalyticTail())
            self._check(u, win, table)
            lhs, rhs = coarea_check(u, win, table)
            assert abs(lhs - rhs) <= 1e-10 * rhs

    def test_halfspace_exterior_truncated(self, rng):
        spec = GridSpec(2, (0.0, 0.0), (10, 10), 0.1)
        omega = np.zeros(spec.extent, dtype=bool)
        omega[2:9, 1:6] = True
        policy = TruncateAtRadius(0.3)
        win = DomainWindow(spec, omega, policy)
        u = ScalarField(spec, rng.integers(0, 5, spec.extent) / 4.0,
                        HalfSpaceExterior(1, 0.45, below=False))
        self._check(u, win, universe_table(spec, 0.6, policy))

    def test_zero_radius_has_no_exterior(self, rng):
        # TruncateAtRadius(0) pads nothing: the field takes no value beyond
        # the box, and the energy is the box pairs' alone
        spec = GridSpec(2, (0.0, 0.0), (8, 8), 0.125)
        policy = TruncateAtRadius(0.0)
        win = full_window(spec, policy)
        u = ScalarField(spec, rng.random(spec.extent), HalfSpaceExterior(0, 0.3))
        table = universe_table(spec, 0.5, policy)
        assert PairEngine(spec, policy, table).pad_masses(u.exterior) == []
        self._check(u, win, table)
        lhs, rhs = coarea_check(u, win, table)
        assert abs(lhs - rhs) <= 1e-10 * rhs

    def test_1d_rays(self, rng):
        spec = GridSpec(1, (0.0,), (24,), 1.0 / 24)
        omega = np.zeros(spec.extent, dtype=bool)
        omega[3:20] = True
        win = DomainWindow(spec, omega, AnalyticTail())
        u = ScalarField(spec, rng.random(spec.extent), HalfSpaceExterior(0, 0.4))
        table = universe_table(spec, 0.3, AnalyticTail())
        assert PairEngine(spec, AnalyticTail(), table).pad == 0
        self._check(u, win, table)


def _value_order_case(dim, where, exterior, field):
    """(u, window, table) of one value-order case: a 1D, 2D or 3D box;
    the full window, an interior block or a window of 10 % of the box;
    a constant or half-space exterior; a 4-level, random continuous or
    near-constant field."""
    n = {1: 40, 2: 12, 3: 6}[dim]
    spec = GridSpec(dim, (0.0,) * dim, (n,) * dim, 1.0 / n)
    rng = np.random.default_rng(dim * 100 + len(where) * 10 + len(field))
    if where == "full":
        omega = np.ones(spec.extent, dtype=bool)
    elif where == "interior":
        omega = np.zeros(spec.extent, dtype=bool)
        omega[(slice(1, n - 2),) * dim] = True
    else:
        omega = np.zeros(spec.n_cells, dtype=bool)
        omega[rng.choice(spec.n_cells, spec.n_cells // 10, replace=False)] = True
        omega = omega.reshape(spec.extent)
    ext = 0.5 if exterior == "constant" else HalfSpaceExterior(dim - 1, 0.45)
    if field == "levels":
        vals = rng.integers(0, 4, spec.extent) / 3.0
    elif field == "random":
        vals = rng.random(spec.extent)
    else:
        vals = 0.5 + 1e-6 * rng.random(spec.extent)
    policy = TruncateAtRadius(0.25)
    return (ScalarField(spec, vals, ext), DomainWindow(spec, omega, policy),
            table_for(spec, 0.4, policy))


def _pairs_gathered(monkeypatch):
    """A list that receives the number of weights of every
    ``InteractionTable.pairs`` call from now on."""
    sizes = []
    original = InteractionTable.pairs

    def counted(self, a, b):
        sizes.append(len(a) * len(b))
        return original(self, a, b)

    monkeypatch.setattr(InteractionTable, "pairs", counted)
    return sizes


class TestRelaxedEnergyValueOrder:
    """Each pair once, in value order, against the explicit sum over every
    (window cell, box cell) pair (``explicit_relaxed_energy``)."""

    @pytest.mark.parametrize("field", ["levels", "random", "near-constant"])
    @pytest.mark.parametrize("exterior", ["constant", "halfspace"])
    @pytest.mark.parametrize("where", ["full", "interior", "tenth"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_the_explicit_sum(self, dim, where, exterior, field):
        u, win, table = _value_order_case(dim, where, exterior, field)
        ref = explicit_relaxed_energy(u, win, table)
        assert ref > 0.0
        assert abs(relaxed_energy(u, win, table) - ref) <= 1e-12 * ref

    def test_full_window_gathers_each_pair_once(self, monkeypatch):
        # 900 cells: chunks of 72 rows
        spec = GridSpec(2, (0.0, 0.0), (30, 30), 1.0 / 30)
        u = ScalarField(spec, np.random.default_rng(3).random(spec.extent), 0.5)
        win = full_window(spec, TruncateAtRadius(0.1))
        table = table_for(spec, 0.4, win.complement_policy)
        relaxed_energy(u, win, table)  # warm: the pad masses gather every box pair
        sizes = _pairs_gathered(monkeypatch)
        relaxed_energy(u, win, table)
        n = spec.n_cells
        assert len(sizes) > 1
        assert n * (n - 1) // 2 <= sum(sizes) <= n * (n - 1) // 2 + functional._PAIR_CHUNK

    def test_small_window_gathers_no_more_than_its_rows(self, monkeypatch):
        u, win, table = _value_order_case(2, "tenth", "halfspace", "random")
        relaxed_energy(u, win, table)
        sizes = _pairs_gathered(monkeypatch)
        relaxed_energy(u, win, table)
        assert 0 < sum(sizes) <= int(win.omega.sum()) * u.spec.n_cells


class TestDivergenceProbe:
    def test_partial_values_increase(self):
        v8 = divergence_probe_1d(log_square_beta, 8, 0.5)
        v16 = divergence_probe_1d(log_square_beta, 16, 0.5)
        assert 0 < v8 < v16

    def test_bad_sequences_rejected(self):
        with pytest.raises(InvalidSequence):
            divergence_probe_1d(log_square_beta, 0, 0.5)
        with pytest.raises(InvalidSequence):
            divergence_probe_1d(lambda k: -1.0, 4, 0.5)
        with pytest.raises(InvalidSequence):
            divergence_probe_1d(log_square_beta, 4, 0.5, total_length=0.1)

    def test_total_length_converges(self):
        total = log_square_total()
        partial = sum(log_square_beta(k) for k in range(1, 2000))
        assert total > partial
        assert total < partial + 0.2


class TestStripExponent:
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("r", [2.0, 3.0])
    def test_linear_term_is_removed(self, p, r):
        deltas = 0.25 / r ** np.arange(5)
        values = 28.0 * deltas ** p - 1.06 * 28.0 * deltas
        assert strip_exponent(deltas, values) == pytest.approx(p, abs=1e-10)

    def test_increasing_schedule(self):
        deltas = 2.0 ** -np.arange(6, 1, -1)
        values = 3.0 * deltas ** 0.4 + 5.0 * deltas
        assert strip_exponent(deltas, values) == pytest.approx(0.4, abs=1e-10)

    def test_too_few_widths_is_nan(self):
        assert np.isnan(strip_exponent([0.25, 0.125], [1.0, 0.8]))
        assert np.isnan(strip_exponent([0.25], [1.0]))

    def test_sign_change_is_nan(self):
        deltas = [0.25, 0.125, 0.0625, 0.03125]
        assert np.isnan(strip_exponent(deltas, [1.0, 0.6, 0.25, 0.13]))

    @pytest.mark.parametrize("deltas", [
        [0.25, 0.125, 0.05],
        [0.25, 0.25, 0.25],
        [0.25, -0.125, 0.0625],
    ])
    def test_non_geometric_schedule_rejected(self, deltas):
        with pytest.raises(InvalidSchedule):
            strip_exponent(deltas, [1.0] * len(deltas))
