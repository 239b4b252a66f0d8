"""Convex relaxation, thresholding, and exhaustive oracles."""

import gc
import math
import weakref

import numpy as np
import pytest
from scipy import optimize, signal, sparse
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from fracperim import minimize
from fracperim.errors import InvalidTolerance, NotNested, OracleTooLarge, SpecMismatch
from fracperim.functional import PairEngine
from fracperim.grid import (
    AnalyticTail,
    CellSet,
    DomainWindow,
    EmptyExterior,
    FullExterior,
    GridSpec,
    HalfSpaceExterior,
    ScalarField,
    TruncateAtRadius,
    cellset_from_shape,
    signed_distance,
    window_from_shape,
)
from fracperim.minimize import (
    MinimizationProblem,
    brute_force_minimum,
    check_minimality_equivalence,
    solve_and_threshold,
    solve_locally_minimal,
)
from tests.conftest import table_for, universe_table


def _problem_1d(n=12, free=slice(4, 9), level=0.5, tables=table_for):
    spec = GridSpec(1, (0.0,), (n,), 1.0 / n)
    E0 = cellset_from_shape(spec, {"shape": "halfspace", "axis": 0, "level": level})
    omega = np.zeros(spec.extent, dtype=bool)
    omega[free] = True
    win = DomainWindow(spec, omega, AnalyticTail())
    table = tables(spec, 0.5, AnalyticTail())
    return MinimizationProblem(win, E0, table)


def _problem_2d(rng, n=6, s=0.5, policy=AnalyticTail(), tables=table_for):
    spec = GridSpec(2, (0.0, 0.0), (n, n), 1.0 / n)
    E0 = CellSet(spec, rng.random(spec.extent) < 0.5)
    omega = np.zeros(spec.extent, dtype=bool)
    omega[1:-1, 1:-1] = rng.random((n - 2, n - 2)) < 0.7
    if not omega.any():
        omega[2, 2] = True
    win = DomainWindow(spec, omega, policy)
    table = tables(spec, s, policy)
    return MinimizationProblem(win, E0, table)


def _direct_linear_terms(p):
    """p and q by direct convolution over the padded universe (the
    reference for the FFT assembly), plus, when the universe is the box
    (1D under AnalyticTail), the whole exterior by ``pad_masses``."""
    eng = PairEngine(p.window.spec, p.window.complement_policy, p.table)
    om = eng.embed(p.window.omega)
    occ = eng.occupancy(p.exterior_data)
    block = p.table.block(tuple(n - 1 for n in om.shape))
    sel = tuple(np.argwhere(om).T)
    beyond = {} if eng.pad else dict(eng.pad_masses(p.exterior_data.exterior))
    lin = []
    for fixed, v in ((occ & ~om, 1.0), (~occ & ~om, 0.0)):
        conv = signal.convolve(fixed.astype(float), block, mode="same",
                               method="direct")
        lin.append(conv[sel] + beyond.get(v, np.zeros(om.shape))[sel])
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
        rep = solve_and_threshold(p)
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

    @pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300])
    def test_tol_below_zero_or_nan_raises(self, tol):
        p = _problem_1d()
        for solve in (solve_and_threshold, minimize.solve_relaxed):
            with pytest.raises(InvalidTolerance):
                solve(p, tol=tol)
        with pytest.raises(InvalidTolerance):
            solve_locally_minimal(p, [p.window], tol=tol)

    def test_infinite_tol_is_valid(self):
        p = _problem_1d()
        rep = solve_and_threshold(p, tol=math.inf)
        assert math.isfinite(rep.energy) and rep.gap >= 0.0
        minimize.solve_relaxed(p, tol=math.inf)

    def test_data_on_another_grid_raise(self):
        # same extent and cell size, origin shifted by half a unit
        spec = GridSpec(2, (0.0, 0.0), (6, 6), 1.0 / 6)
        shifted = GridSpec(2, (0.5, 0.5), (6, 6), 1.0 / 6)
        omega = np.zeros(spec.extent, dtype=bool)
        omega[1:5, 1:5] = True
        win = DomainWindow(spec, omega, AnalyticTail())
        E0 = cellset_from_shape(shifted, {"shape": "ball", "center": [0.9, 0.9],
                                          "radius": 0.3})
        table = table_for(spec, 0.5, AnalyticTail())
        with pytest.raises(SpecMismatch):
            MinimizationProblem(win, E0, table)
        with pytest.raises(SpecMismatch):
            check_minimality_equivalence(E0, win, table)

    def test_empty_window(self):
        spec = GridSpec(1, (0.0,), (6,), 1.0 / 6)
        E0 = cellset_from_shape(spec, {"shape": "halfspace", "axis": 0, "level": 0.5})
        win = DomainWindow(spec, np.zeros(spec.extent, dtype=bool), AnalyticTail())
        p = MinimizationProblem(win, E0, table_for(spec, 0.5, AnalyticTail()))
        rep = solve_and_threshold(p)
        assert np.array_equal(rep.minimizer.inside, E0.inside)


def _random_small_problem(seed, m=None):
    """At most 20 random free cells (m when given) in 1D or 2D, over random
    data with an empty or a half-space exterior."""
    rng = np.random.default_rng(3000 + seed)
    dim = 1 + seed % 2
    n = 20 if dim == 1 else 6
    spec = GridSpec(dim, (0.0,) * dim, (n,) * dim, 1.0 / n)
    exterior = EmptyExterior()
    if seed % 4 >= 2:
        exterior = HalfSpaceExterior(int(rng.integers(dim)),
                                     float(rng.uniform(0.2, 0.8)))
    E0 = CellSet(spec, rng.random(spec.extent) < 0.5, exterior)
    omega = np.zeros(spec.n_cells, dtype=bool)
    # drawn even when m is given, so the draws after it stay the same
    count = int(rng.integers(1, 21))
    omega[rng.choice(spec.n_cells, count if m is None else m, replace=False)] = True
    win = DomainWindow(spec, omega.reshape(spec.extent), AnalyticTail())
    s = float(rng.choice([0.3, 0.5, 0.7]))
    return MinimizationProblem(win, E0, table_for(spec, s, AnalyticTail()))


def _lp_minimum(cond):
    """HiGHS optimum of min sum W_ab t_ab + sum (q_a - p_a) x_a + sum p_a
    subject to t_ab >= +-(x_a - x_b), x in [0,1]^m."""
    m = cond.m
    a, b = np.triu_indices(m, 1)
    keep = cond.W[a, b] > 0.0
    a, b = a[keep], b[keep]
    k = len(a)
    rows = np.tile(np.arange(k), 3)
    cols = np.concatenate([a, b, m + np.arange(k)])
    ones = np.ones(k)
    A = sparse.vstack([
        sparse.csr_matrix((np.concatenate([ones, -ones, -ones]), (rows, cols)),
                          shape=(k, m + k)),
        sparse.csr_matrix((np.concatenate([-ones, ones, -ones]), (rows, cols)),
                          shape=(k, m + k)),
    ])
    c = np.concatenate([cond.q - cond.p, cond.W[a, b]])
    res = optimize.linprog(c, A_ub=A, b_ub=np.zeros(2 * k),
                           bounds=[(0.0, 1.0)] * m + [(0.0, None)] * k,
                           method="highs")
    assert res.status == 0, res.message
    return res.fun + float(cond.p.sum())


# SciPy's max-flow takes int32 capacities only; a capacity plus the flow
# on its reverse edge must stay below 2^31 as well
_CAP_MAX = 2**30 - 1


def _source_side(adj, s):
    """Nodes reachable from s along the True entries of ``adj``."""
    bits = np.zeros(len(adj), dtype=bool)
    bits[breadth_first_order(sparse.csr_matrix(adj), s, return_predecessors=False)] = True
    return bits


def _scipy_min_cut(W, p, q, tol):
    """The former solver, kept as the oracle of ``minimize._min_cut``.

    SciPy's int32 maximum flow refines the float capacities in rounds:
    round k floors the float residual at the quantum C_max 2^(-20-10k),
    clips it to 2^30 - 1 and subtracts the round's maximum flow.  Each
    round's cut is the set reachable from the source in its integer
    residual; the lowest-energy cut of all rounds is returned, the later
    one on ties.  Returns (bits, flow, rounds)."""
    m = len(p)
    s, t = m, m + 1
    residual = np.zeros((m + 2, m + 2))
    residual[:m, :m] = W
    residual[s, :m] = p
    residual[:m, t] = q
    c_max = float(residual.max(initial=0.0))
    if not c_max > 0.0:
        return np.zeros(m, dtype=bool), 0.0, 0
    quantum = c_max / 2.0**30
    flow = 0.0
    rounds = 0
    best, best_energy = None, np.inf
    while True:
        # the lower clip absorbs residuals a rounding left an ulp below 0
        caps = np.clip(np.floor(residual / quantum), 0, _CAP_MAX).astype(np.int32)
        res = maximum_flow(sparse.csr_matrix(caps), s, t, method="dinic")
        f = res.flow.toarray()  # skew-symmetric net flow
        residual -= quantum * f
        flow += quantum * float(res.flow_value)
        rounds += 1
        bits = _source_side(caps > f, s)
        x = bits[:m].astype(float)
        energy = float(p.sum() + x @ (q - p) + x @ W @ (1.0 - x))
        if energy <= best_energy:
            best, best_energy = bits[:m], energy
        quantum /= 2.0**10
        if (best_energy - flow <= tol * (1.0 + abs(best_energy))
                or quantum < c_max * 2.0**-52):
            return best, flow, rounds


def _cut_energy(cond, bits):
    return float(cond.energies_binary(bits[None, :])[0])


def _enumerate_bits(m, batch=1 << 14):
    """Yield batches of all binary vectors of length m, cell 0 most
    significant, so ascending integer order is lexicographic bit order."""
    total = 1 << m
    shifts = np.arange(m - 1, -1, -1, dtype=np.uint64)
    for start in range(0, total, batch):
        ints = np.arange(start, min(start + batch, total), dtype=np.uint64)
        yield ((ints[:, None] >> shifts[None, :]) & 1).astype(bool)


def _all_energies(cond):
    """``energies_binary`` of every binary vector, in lexicographic bit
    order."""
    return np.concatenate([cond.energies_binary(X) for X in _enumerate_bits(cond.m)])


def _enumerated_minimum(cond):
    """The former exhaustive oracle, kept as the reference of
    ``brute_force_minimum``: every vector's energy, batch by batch; a
    batch keeps its first argmin and a later batch replaces the best only
    when lower by more than 1e-15.  Returns (bits, energy)."""
    best_e, best_bits = np.inf, None
    for X in _enumerate_bits(cond.m):
        E = cond.energies_binary(X)
        i = int(np.argmin(E))
        if E[i] < best_e - 1e-15:
            best_e, best_bits = float(E[i]), X[i]
    return best_bits, best_e


def _oracle_case(case):
    """Condensed energies for the oracle comparison: random windows, the
    stalled ball, and data that already minimize (at s = 1/2 every
    interface position of the 1D half line ties)."""
    if case.startswith("random"):
        return minimize._Condensed(_random_small_problem(int(case[6:])))
    if case == "stalled":
        return minimize._Condensed(_stalled_problem())
    spec = GridSpec(1, (0.0,), (8,), 0.125)
    E0 = cellset_from_shape(spec, {"shape": "halfspace", "axis": 0, "level": 0.5})
    win = window_from_shape(spec, {"shape": "ball", "center": [0.5],
                                   "radius": 0.2}, AnalyticTail())
    return minimize._Condensed(
        MinimizationProblem(win, E0, table_for(spec, 0.5, AnalyticTail())))


def _integer_cut_data(seed, sparse=False):
    """(W, p, q) with small integer capacities on 24 cells, whose ties are
    exact; ``sparse`` keeps about one weight in seven and widens p, q."""
    rng = np.random.default_rng(5000 + seed)
    m = 24
    W = np.triu(rng.integers(0, 3, (m, m)), 1).astype(float)
    p, q = rng.integers(0, 4, (2, m)).astype(float)
    if sparse:
        W *= rng.random((m, m)) < 0.15
        p, q = 2.0 * p, 2.0 * q
    return W + W.T, p, q


def _halfspace_interior_problem(n):
    """Half-space data (axis 0, level 1/2) on an n^2 grid at s = 1/2 with
    the (n - 2)^2 interior window."""
    spec = GridSpec(2, (0.0, 0.0), (n, n), 1.0 / n)
    E0 = cellset_from_shape(spec, {"shape": "halfspace", "axis": 0, "level": 0.5})
    omega = np.zeros(spec.extent, dtype=bool)
    omega[1:-1, 1:-1] = True
    win = DomainWindow(spec, omega, AnalyticTail())
    return MinimizationProblem(win, E0, table_for(spec, 0.5, AnalyticTail()))


class TestMinCut:
    @pytest.mark.parametrize("case", [f"random{i}" for i in range(12)]
                             + ["stalled", "optimal_1d"])
    def test_matches_scipy_oracle(self, case):
        cond = _oracle_case(case)
        bits, flow, _ = minimize._min_cut(cond.W, cond.p, cond.q, 0.0)
        ref, ref_flow, _ = _scipy_min_cut(cond.W, cond.p, cond.q, 0.0)
        energy = _cut_energy(cond, bits)
        scale = 1.0 + abs(energy)
        # the push-relabel helper on the whole problem, no cell fixed in
        # advance, is the oracle of the reduced route
        whole, whole_flow, _ = minimize._push_relabel(cond.W, cond.p, cond.q, 0.0, 0.0)
        assert np.array_equal(bits, whole)
        assert abs(flow - whole_flow) <= 1e-12 * scale
        assert abs(energy - _cut_energy(cond, ref)) <= 1e-12 * scale
        assert abs(flow - ref_flow) <= 1e-12 * scale
        assert -1e-14 * scale <= energy - flow <= 1e-12 * scale
        # the same bits, unless an exhaustive search finds another cut
        # within 1e-12: the two solvers' roundings may then part
        if cond.m <= 20:
            if np.sum(_all_energies(cond) <= energy + 1e-12 * scale) > 1:
                return
        assert np.array_equal(bits, ref)

    def test_exact_ties_take_the_inclusion_minimal_cut(self):
        # free cells with no weights and p = q tie exactly: the cut leaves
        # them out, and elsewhere agrees with the oracle
        cond = minimize._Condensed(_problem_2d(np.random.default_rng(11), n=7))
        tied = np.arange(cond.m) % 3 == 0
        cond.W[tied] = 0.0
        cond.W[:, tied] = 0.0
        cond.p[tied] = cond.q[tied] = np.where(np.arange(tied.sum()) % 2, 0.0, 0.25)
        bits, flow, _ = minimize._min_cut(cond.W, cond.p, cond.q, 0.0)
        ref, ref_flow, _ = _scipy_min_cut(cond.W, cond.p, cond.q, 0.0)
        assert not bits[tied].any()
        assert np.array_equal(bits, ref)
        assert flow == pytest.approx(ref_flow, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_integer_ties_give_the_inclusion_minimal_cut(self, seed):
        # small integer capacities tie exactly; one exact int32 maximum flow
        # gives the inclusion-minimal minimum cut.  (The quantised rounds
        # floor at a quantum that is no power of two, and some of their
        # cuts are other minimizers.)
        W, p, q = _integer_cut_data(seed)
        m = len(p)
        bits, flow, _ = minimize._min_cut(W, p, q, 0.0)
        caps = np.zeros((m + 2, m + 2), dtype=np.int32)
        caps[:m, :m], caps[m, :m], caps[:m, m + 1] = W, p, q
        res = maximum_flow(sparse.csr_matrix(caps), m, m + 1)
        assert flow == res.flow_value
        assert np.array_equal(bits, _source_side(caps > res.flow.toarray(), m)[:m])
        whole, whole_flow, _ = minimize._push_relabel(W, p, q, 0.0, 0.0)
        assert np.array_equal(bits, whole)
        assert flow == whole_flow

    @pytest.mark.parametrize("seed", range(8))
    def test_reduction_is_exact_on_sparse_integer_data(self, seed):
        # integer sums are exact, so the fixed part's energy plus the
        # remainder's flow is the whole flow to the last bit; these ties
        # fix 3 to 23 of the 24 cells (the dense ones above fix none)
        W, p, q = _integer_cut_data(seed, sparse=True)
        bits, flow, _ = minimize._min_cut(W, p, q, 0.0)
        ref, ref_flow, _ = minimize._push_relabel(W, p, q, 0.0, 0.0)
        assert np.array_equal(bits, ref)
        assert flow == ref_flow

    @pytest.mark.parametrize("n", [16, 30])
    def test_decided_cells_need_no_pulse(self, n):
        # half-space data on the interior window at s = 1/2: every cell's
        # bias outweighs its ties to the open cells, round by round, so no
        # pulse runs (the whole problem takes 35 and 76)
        cond = minimize._Condensed(_halfspace_interior_problem(n))
        assert cond.m == (n - 2) ** 2
        bits, flow, pulses = minimize._min_cut(cond.W, cond.p, cond.q, 0.0)
        ref, ref_flow, _ = minimize._push_relabel(cond.W, cond.p, cond.q, 0.0, 0.0)
        assert pulses == 0
        assert np.array_equal(bits, ref)
        energy = _cut_energy(cond, bits)
        assert abs(flow - ref_flow) <= 1e-12 * (1.0 + abs(energy))
        assert -1e-14 * (1.0 + abs(energy)) <= energy - flow <= 1e-12 * (1.0 + abs(energy))

    def test_undecided_ties_keep_their_pulses(self):
        # at s = 1/2 every interface position of the 1D half line ties, so
        # no cell is forced and the flow runs on all four cells
        cond = _oracle_case("optimal_1d")
        _, _, pulses = minimize._min_cut(cond.W, cond.p, cond.q, 0.0)
        _, _, whole = minimize._push_relabel(cond.W, cond.p, cond.q, 0.0, 0.0)
        assert pulses == whole == 7

    @pytest.mark.parametrize("case", [f"random{i}" for i in range(12)]
                             + ["stalled", "optimal_1d"])
    def test_tolerance_bounds_the_whole_gap(self, case):
        # the stop rule weighs the remainder's gap against the whole
        # energy, fixed part included
        tol = 1e-6
        cond = _oracle_case(case)
        bits, flow, _ = minimize._min_cut(cond.W, cond.p, cond.q, tol)
        energy = _cut_energy(cond, bits)
        assert -1e-14 * (1.0 + abs(energy)) <= energy - flow <= tol * (1.0 + abs(energy))

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_oracle_bits(self, seed):
        p = _random_small_problem(seed)
        cond = minimize._Condensed(p)
        energies = _all_energies(cond)
        best_set, best = brute_force_minimum(p)
        rep = solve_and_threshold(p, tol=0.0)
        scale = 1.0 + abs(best)
        assert rep.gap <= 1e-12 * scale
        assert abs(rep.energy - best) <= 1e-12 * scale
        runner_up = np.partition(energies, 1)[1]
        if runner_up - best > 1e-9:
            assert np.array_equal(rep.minimizer.inside, best_set.inside)

    @pytest.mark.parametrize("case", ["1d", "2d_ball", "2d_box"])
    def test_matches_linprog(self, case):
        if case == "1d":
            spec = GridSpec(1, (0.0,), (128,), 1.0 / 128)
            E0 = cellset_from_shape(spec, {"shape": "halfspace", "axis": 0,
                                           "level": 0.45})
            omega = np.zeros(spec.extent, dtype=bool)
            omega[20:120] = True
            win = DomainWindow(spec, omega, AnalyticTail())
        else:
            spec = GridSpec(2, (0.0, 0.0), (16, 16), 1.0 / 16)
            E0 = cellset_from_shape(spec, {"shape": "ball",
                                           "center": [0.45, 0.55], "radius": 0.3})
            if case == "2d_ball":
                omega = window_from_shape(spec, {"shape": "ball", "center": [0.5, 0.5],
                                                 "radius": 0.3}).omega
            else:
                omega = np.zeros(spec.extent, dtype=bool)
                omega[1:-1, 1:-1] = True
            win = DomainWindow(spec, omega, TruncateAtRadius(0.25))
        p = MinimizationProblem(win, E0, table_for(spec, 0.4, win.complement_policy))
        rep = solve_and_threshold(p, tol=0.0)
        lp = _lp_minimum(minimize._Condensed(p))
        scale = 1.0 + abs(lp)
        assert p.n_free >= 60
        assert abs(rep.energy - lp) <= 1e-9 * scale
        assert rep.gap <= 1e-12 * (1.0 + abs(rep.relaxed_energy))

    def test_clipped_round_keeps_the_minimum(self):
        # perfbench's minimize job 2 of seed 51: with capacities clipped at
        # 2^31 - 1, the third round at tol=0 returned a cut of energy 4.797
        # in place of round 2's minimizing cut (3.968)
        spec = GridSpec(2, (0.0, 0.0), (6, 6), 1.0 / 6)

        def rows(*bits):
            return np.array([[c == "1" for c in r] for r in bits])

        omega = rows("000000", "001100", "011110", "011110", "001110", "000000")
        data = rows("111000", "110000", "110000", "111000", "111100", "111100")
        E0 = CellSet(spec, data, HalfSpaceExterior(axis=1, level=0.5113048032166843))
        win = DomainWindow(spec, omega, AnalyticTail())
        p = MinimizationProblem(win, E0, table_for(spec, 0.5, AnalyticTail()))
        rep = solve_and_threshold(p, tol=0.0)
        _, best = brute_force_minimum(p)
        assert rep.energy == pytest.approx(best, abs=1e-9)

    def test_scale_invariant(self):
        cond = minimize._Condensed(_problem_2d(np.random.default_rng(7)))
        ref, ref_flow, _ = minimize._min_cut(cond.W, cond.p, cond.q, 0.0)
        for c in (1e-12, 1e12):
            bits, flow, _ = minimize._min_cut(c * cond.W, c * cond.p,
                                              c * cond.q, 0.0)
            assert np.array_equal(bits, ref)
            assert flow == pytest.approx(c * ref_flow, rel=1e-12)

    def test_optimal_data_stops_after_few_pulses(self):
        # the 1D minimize example of the cli_cold benchmark workload: the
        # data already minimize, and a few pulses must certify that
        spec = GridSpec(1, (0.0,), (8,), 0.125)
        E0 = cellset_from_shape(spec, {"shape": "halfspace", "axis": 0, "level": 0.5})
        win = window_from_shape(spec, {"shape": "ball", "center": [0.5],
                                       "radius": 0.2}, AnalyticTail())
        p = MinimizationProblem(win, E0, table_for(spec, 0.5, AnalyticTail()))
        rep = solve_and_threshold(p)
        assert rep.iterations <= 7  # measured: 7 pulses on 4 free cells
        assert rep.gap <= 1e-9 * (1.0 + abs(rep.energy))
        _, best = brute_force_minimum(p)
        assert rep.energy <= best + 1e-12 * (1.0 + abs(best))
        u = minimize.solve_relaxed(p)
        assert set(np.unique(u.values)) <= {0.0, 1.0}


class TestCondensedEnergy:
    @pytest.mark.parametrize("case", ["1d_rays", "2d_analytic", "2d_truncate",
                                      "2d_halfspace", "3d_full", "empty"])
    def test_fft_linear_terms_match_direct_convolution(self, case, rng):
        if case == "1d_rays":
            p = _problem_1d(tables=universe_table)
        elif case == "2d_analytic":
            p = _problem_2d(rng, tables=universe_table)
        elif case == "2d_truncate":
            p = _problem_2d(rng, policy=TruncateAtRadius(0.5), tables=universe_table)
        elif case in ("2d_halfspace", "3d_full"):
            dim = int(case[0])
            spec = GridSpec(dim, (0.0,) * dim, (5,) * dim, 0.2)
            ext = HalfSpaceExterior(0, 0.3, below=False) if dim == 2 else FullExterior()
            omega = np.zeros(spec.extent, dtype=bool)
            omega[(slice(1, 4),) * dim] = rng.random((3,) * dim) < 0.7
            policy = AnalyticTail() if dim == 2 else TruncateAtRadius(0.4)
            p = MinimizationProblem(DomainWindow(spec, omega, policy),
                                    CellSet(spec, rng.random(spec.extent) < 0.5, ext),
                                    universe_table(spec, 0.5, policy))
        else:
            base = _problem_2d(rng, tables=universe_table)
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
            assert cond.energy(x) == pytest.approx(ref, rel=1e-12)
        # a fractional point, pair by pair over a < b
        x = rng.random(cond.m)
        a, b = np.triu_indices(cond.m, 1)
        ref = (np.sum(cond.W[a, b] * np.abs(x[a] - x[b]))
               + cond.p @ (1.0 - x) + cond.q @ x)
        assert cond.energy(x) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_weights_equal_the_offset_gather(self, dim, rng):
        # the flat-index gather against indexing the table by each pair's
        # offset tuple
        n = {1: 16, 2: 7, 3: 5}[dim]
        spec = GridSpec(dim, (0.0,) * dim, (n,) * dim, 1.0 / n)
        policy = AnalyticTail() if dim < 3 else TruncateAtRadius(0.4)
        win = DomainWindow(spec, rng.random(spec.extent) < 0.6, policy)
        p = MinimizationProblem(win, CellSet(spec, rng.random(spec.extent) < 0.5),
                                table_for(spec, 0.5, policy))
        cond = minimize._Condensed(p)
        K = p.table.max_offset
        diff = cond.free_idx[None, :, :] - cond.free_idx[:, None, :]
        ref = p.table.weights[tuple((diff + K).transpose(2, 0, 1))]
        np.fill_diagonal(ref, 0.0)
        assert cond.m > 1
        assert np.array_equal(cond.W, ref)

    def test_one_build_per_problem_and_per_window_check(self, monkeypatch):
        builds = []

        class Counting(minimize._Condensed):
            def __init__(self, p):
                builds.append(1)
                super().__init__(p)

        monkeypatch.setattr(minimize, "_Condensed", Counting)
        p = _problem_1d(free=slice(2, 10))
        rep = solve_and_threshold(p)
        brute_force_minimum(p)
        minimize.threshold_minimizer(minimize.solve_relaxed(p), p)
        assert len(builds) == 1
        del builds[:]
        assert minimize._is_minimal_on(rep.minimizer, p.window, p.table)
        assert len(builds) == 1

    def test_energy_is_freed_with_its_problem(self, rng):
        # no reference cycle: with the collector off, dropping the problem
        # frees its energy at once
        gc.disable()
        try:
            p = _problem_2d(rng)
            solve_and_threshold(p)
            cond = weakref.ref(p._condensed)
            assert cond() is p._condensed
            del p
            assert cond() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("seed", range(8))
    def test_fold_matches_a_fresh_build(self, seed):
        # every sub-window, the empty and the whole one included, against
        # the condensed energy built for it
        p = _random_small_problem(seed)
        rng = np.random.default_rng(seed)
        cond = minimize._Condensed(p)
        om = p.window.omega
        for keep in (np.zeros_like(om), om, om & (rng.random(om.shape) < 0.5)):
            sub = DomainWindow(p.window.spec, keep, p.window.complement_policy)
            fold = cond.fold(sub)
            ref = minimize._Condensed(MinimizationProblem(sub, p.exterior_data, p.table))
            assert fold.m == ref.m == int(keep.sum())
            assert np.array_equal(fold.free_idx, ref.free_idx)
            assert np.array_equal(fold.W, ref.W)
            scale = 1.0 + max(np.abs(ref.p).max(initial=0.0), np.abs(ref.q).max(initial=0.0))
            assert np.abs(fold.p - ref.p).max(initial=0.0) <= 1e-12 * scale
            assert np.abs(fold.q - ref.q).max(initial=0.0) <= 1e-12 * scale
            X = rng.random((4, ref.m)) < 0.5
            assert np.allclose(fold.energies_binary(X), ref.energies_binary(X),
                               rtol=1e-12, atol=0.0)
            assert np.array_equal(fold.set_from(X[0]).inside, ref.set_from(X[0]).inside)
        assert cond.fold(p.window) is cond


class TestOracle:
    def test_limit_enforced(self):
        spec = GridSpec(2, (0.0, 0.0), (6, 6), 1.0 / 6)
        E0 = CellSet(spec, np.zeros(spec.extent, dtype=bool))
        win = DomainWindow(spec, np.ones(spec.extent, dtype=bool), AnalyticTail())
        p = MinimizationProblem(win, E0, table_for(spec, 0.5, AnalyticTail()))
        with pytest.raises(OracleTooLarge):
            brute_force_minimum(p)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("m", [0, 1, 2, 7, 12, 17, 18])
    def test_matches_enumeration(self, m, dim):
        p = _random_small_problem(2 * m + dim - 1, m)
        cond = minimize._Condensed(p)
        ref_bits, ref = _enumerated_minimum(cond)
        best_set, best = brute_force_minimum(p)
        om = p.window.omega
        scale = 1.0 + abs(ref)
        assert p.n_free == m and p.window.spec.dim == dim
        assert abs(best - ref) <= 1e-12 * scale
        assert np.array_equal(best_set.inside[~om], p.exterior_data.inside[~om])
        # the same bits, unless several vectors lie within 1e-12 of the
        # minimum (in 1D a half line ties with its translates): then
        # rounding may pick another of them
        energies = _all_energies(cond)
        if np.sum(energies <= ref + 1e-12 * scale) > 1:
            assert _cut_energy(cond, best_set.inside[om]) <= ref + 1e-12 * scale
        else:
            assert np.array_equal(best_set.inside[om], ref_bits)

    @pytest.mark.parametrize("chunk_rows", [None, 2])
    def test_tie_break_is_lexicographic(self, chunk_rows, monkeypatch):
        # integer weights and linear terms make every energy exact; this
        # draw has two minimizers, in rows 16 and 18 of the high half
        rng = np.random.default_rng(1)
        m = 10
        W = np.triu(rng.random((m, m)) < 0.2, 1).astype(float)
        W += W.T
        p_ints, q_ints = rng.integers(0, 3, (2, m)).astype(float)

        class Tied(minimize._Condensed):
            def __init__(self, prob):
                super().__init__(prob)
                self.W, self.p, self.q = W, p_ints, q_ints

        monkeypatch.setattr(minimize, "_Condensed", Tied)
        prob = _problem_1d(free=slice(1, 11))
        energies = _all_energies(Tied(prob))
        ties = np.flatnonzero(energies == energies.min())
        assert len(ties) >= 2
        if chunk_rows:
            # the minimizers fall in different chunks of the 5 + 5 split
            monkeypatch.setattr(minimize, "_ORACLE_CHUNK", chunk_rows << (m - m // 2))
            assert len(np.unique((ties >> (m - m // 2)) // chunk_rows)) >= 2
        best_set, best = brute_force_minimum(prob)
        first = int(np.argmin(energies))
        assert np.array_equal(best_set.inside[prob.window.omega],
                              (first >> np.arange(m - 1, -1, -1)) & 1)
        assert best == energies[first]


class TestThreshold:
    def test_cut_indicator_gives_the_cut(self, rng):
        p = _problem_2d(rng)
        rep = solve_and_threshold(p, tol=0.0)
        u = minimize.solve_relaxed(p, tol=0.0)
        got = minimize.threshold_minimizer(u, p)
        assert np.array_equal(got.minimizer.inside, rep.minimizer.inside)
        assert got.energy == rep.energy
        assert got.relaxed_energy == pytest.approx(rep.relaxed_energy, rel=1e-12)

    def test_exact_tie_takes_the_smaller_set(self):
        # reflected about x = 1/2 and complemented, the data (cells 0-3 and
        # the half-line below 1/2) map to themselves and the filled window
        # {3, 4} to the empty one, so both superlevel sets of a constant
        # field have one energy: the later, smaller bitmask wins the tie
        p = _problem_1d(n=8, free=slice(3, 5))
        filled, empty = p._condensed.energies_binary(np.array([[1, 1], [0, 0]]))
        assert abs(filled - empty) <= 1e-14 * filled
        u = ScalarField(p.window.spec, p.window.omega.astype(float),
                        p.exterior_data.exterior)
        rep = minimize.threshold_minimizer(u, p)
        assert not rep.minimizer.inside[p.window.omega].any()
        assert rep.threshold == 1.0
        assert rep.relaxed_energy == filled

    @pytest.mark.parametrize("seed", range(4))
    def test_best_superlevel_set_of_a_fractional_field(self, seed):
        p = _random_small_problem(seed, 10 + 2 * seed)
        cond = minimize._Condensed(p)
        rng = np.random.default_rng(seed)
        spec = p.window.spec
        u = ScalarField(spec, rng.random(spec.extent), p.exterior_data.exterior)
        x = u.values[p.window.omega]
        rep = minimize.threshold_minimizer(u, p)
        relaxed = cond.energy(x)
        scale = 1.0 + abs(relaxed)
        assert rep.relaxed_energy == relaxed
        assert rep.energy <= relaxed + 1e-12 * scale
        # every superlevel set {x >= v}, v a free value, and the empty set
        levels = np.append(np.unique(x), np.inf)
        sets = x[None, :] >= levels[:, None]
        assert abs(rep.energy - cond.energies_binary(sets).min()) <= 1e-12 * scale
        bits = rep.minimizer.inside[p.window.omega]
        assert any(np.array_equal(bits, b) for b in sets)


def _a6_cases():
    """A6's 50 instances (the same seed and windows): each problem's
    exhaustive minimizer with its window and table."""
    rng = np.random.default_rng(606)
    spec = GridSpec(2, (0.0, 0.0), (8, 8), 1.0 / 8)
    table = table_for(spec, 0.5, AnalyticTail())
    for idx in range(50):
        omega = np.zeros(spec.extent, dtype=bool)
        r0 = int(rng.integers(1, 3))
        c0 = int(rng.integers(1, 3))
        omega[r0:r0 + 4, c0:c0 + 5] = True
        if idx % 2 == 1:
            omega[r0:r0 + 2, c0:c0 + 2] = False
        if idx % 3 == 0:
            doc = {"shape": "halfspace", "axis": idx % 2, "level": 0.5}
        else:
            doc = {"shape": "ball", "center": [0.5, 0.5], "radius": 0.3}
        win = DomainWindow(spec, omega, AnalyticTail())
        best, _ = brute_force_minimum(
            MinimizationProblem(win, cellset_from_shape(spec, doc), table))
        yield best, win, table


def _equivalence_every_depth(E, window, table):
    """The equivalence check with class (iii) starting at depth 1, which
    runs the compact window a second time: the reference for the loop
    that reuses class (ii)'s answer there."""
    spec = window.spec
    global_ok = minimize._is_minimal_on(E, window, table)
    if not window.omega.any():
        return minimize.EquivalenceReport(global_ok, True, True, True)
    sd = signed_distance(window).values
    h = spec.h
    interior = window.omega & (sd < -h)
    if not interior.any():
        return minimize.EquivalenceReport(global_ok, True, True, True)
    compact_ok = minimize._is_minimal_on(
        E, DomainWindow(spec, interior, window.complement_policy), table)
    local_ok = True
    k = 1
    while True:
        shrunk = window.omega & (sd < -k * h)
        if not shrunk.any():
            break
        if not minimize._is_minimal_on(
                E, DomainWindow(spec, shrunk, window.complement_policy), table):
            local_ok = False
            break
        k += 1
    return minimize.EquivalenceReport(global_ok, compact_ok, local_ok, False)


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

    def test_reports_match_checking_every_depth(self, rng):
        # A6's minimizers, and each with one window cell flipped
        for best, win, table in _a6_cases():
            flipped = best.inside.copy()
            cell = tuple(rng.choice(np.argwhere(win.omega)))
            flipped[cell] = ~flipped[cell]
            for E in (best, CellSet(best.spec, flipped, best.exterior)):
                assert (check_minimality_equivalence(E, win, table)
                        == _equivalence_every_depth(E, win, table))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_folds_match_checking_every_depth(self, dim):
        # random windows (scattered ones have no interior: degenerate), over
        # their minimizers, one-cell flips of them and random sets
        rng = np.random.default_rng(70 + dim)
        n = 24 if dim == 1 else 9
        spec = GridSpec(dim, (0.0,) * dim, (n,) * dim, 1.0 / n)
        table = table_for(spec, 0.5, AnalyticTail())
        for trial in range(12):
            omega = np.zeros(spec.extent, dtype=bool)
            lo = rng.integers(0, n // 3, dim)
            hi = lo + rng.integers(1 + dim, n - n // 3 + 1, dim)
            omega[tuple(slice(a, b) for a, b in zip(lo, hi))] = True
            if trial % 3 == 2:
                omega &= rng.random(spec.extent) < 0.6
            if trial % 4 == 3:
                omega[:] = False
            win = DomainWindow(spec, omega, AnalyticTail())
            data = CellSet(spec, rng.random(spec.extent) < 0.5,
                           HalfSpaceExterior(0, 0.5) if trial % 2 else EmptyExterior())
            sets = [data]
            if omega.any():
                best = solve_and_threshold(MinimizationProblem(win, data, table),
                                           tol=0.0).minimizer
                flipped = best.inside.copy()
                cell = tuple(rng.choice(np.argwhere(omega)))
                flipped[cell] = ~flipped[cell]
                sets += [best, CellSet(spec, flipped, best.exterior)]
            for E in sets:
                assert (check_minimality_equivalence(E, win, table)
                        == _equivalence_every_depth(E, win, table))

    def test_one_build_per_check(self, monkeypatch):
        builds = []

        class Counting(minimize._Condensed):
            def __init__(self, p):
                builds.append(p)
                super().__init__(p)

        # A6's windows reach depth 1 only; a 6^2 window reaches depth 2
        spec = GridSpec(2, (0.0, 0.0), (8, 8), 0.125)
        omega = np.zeros(spec.extent, dtype=bool)
        omega[1:7, 1:7] = True
        win = DomainWindow(spec, omega, AnalyticTail())
        E0 = cellset_from_shape(spec, {"shape": "halfspace", "axis": 0, "level": 0.5})
        p = MinimizationProblem(win, E0, table_for(spec, 0.5, AnalyticTail()))
        cases = [*_a6_cases(), (solve_and_threshold(p).minimizer, win, p.table)]
        monkeypatch.setattr(minimize, "_Condensed", Counting)
        depths = []
        for best, win, table in cases:
            del builds[:]
            eq = check_minimality_equivalence(best, win, table)
            assert eq.global_ok and eq.compact_ok and eq.local_ok
            sd = signed_distance(win).values
            deeper = sum(1 for k in range(2, 9)
                         if (win.omega & (sd < -k * win.spec.h)).any())
            assert len(builds) == 1
            depths.append(deeper)
        assert depths[-1] == 1

    @pytest.mark.parametrize("dim", [1, 2])
    def test_empty_window_is_degenerate(self, dim):
        spec = GridSpec(dim, (0.0,) * dim, (6,) * dim, 1.0 / 6)
        E0 = cellset_from_shape(spec, {"shape": "halfspace", "axis": 0, "level": 0.5})
        win = DomainWindow(spec, np.zeros(spec.extent, dtype=bool), AnalyticTail())
        eq = check_minimality_equivalence(E0, win, table_for(spec, 0.5, AnalyticTail()))
        assert eq == minimize.EquivalenceReport(True, True, True, True)

    def test_minimality_beyond_the_oracle_limit(self):
        spec = GridSpec(2, (0.0, 0.0), (8, 8), 0.125)
        E0 = cellset_from_shape(spec, {"shape": "halfspace", "axis": 0, "level": 0.5})
        omega = np.zeros(spec.extent, dtype=bool)
        omega[1:7, 1:7] = True
        win = DomainWindow(spec, omega, AnalyticTail())
        p = MinimizationProblem(win, E0, table_for(spec, 0.5, AnalyticTail()))
        assert p.n_free > minimize._ORACLE_LIMIT
        rep = solve_and_threshold(p)
        eq = check_minimality_equivalence(rep.minimizer, win, p.table)
        assert eq.global_ok and eq.compact_ok and eq.local_ok
        assert not eq.degenerate
        flipped = rep.minimizer.inside.copy()
        flipped[3, 3] = ~flipped[3, 3]
        bad = CellSet(spec, flipped, rep.minimizer.exterior)
        assert not check_minimality_equivalence(bad, win, p.table).global_ok


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
