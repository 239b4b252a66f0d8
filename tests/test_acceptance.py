"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single summary line.  The strip-interaction check (A3)
compares every measured row with an independent angular closed-form
reference and fits the exponent after removing the term linear in delta,
which a pure power fit on delta in [1/64, 1/4] cannot separate from
delta^(1-s); see the test body.
"""

import math

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import integrate, special

from fracperim.approx import (
    MollifierSpec,
    approximate_set,
    approximate_set_lipschitz,
    mollify,
    superlevel,
)
from fracperim.cli import main as cli_main
from fracperim.cylinder import (
    SubgraphSet,
    fit_tail_slope,
    graph_area_asymptotics,
    local_part_bound,
    nonlocal_divergence_scan,
    truncated_cylinder_perimeter,
)
from fracperim.functional import (
    coarea_check,
    decomposition_check,
    divergence_probe_1d,
    log_square_beta,
    perimeter,
)
from fracperim.grid import (
    AnalyticTail,
    CellSet,
    DomainWindow,
    GridSpec,
    ScalarField,
    TruncateAtRadius,
    cellset_from_shape,
    full_window,
    write_grid_file,
)
from fracperim.kernel import (
    KernelParams,
    build_table,
    interval_pair_exact,
    interval_ray_exact,
)
from fracperim.minimize import (
    MinimizationProblem,
    brute_force_minimum,
    check_minimality_equivalence,
    solve_and_threshold,
)
from tests.conftest import cli_output_bytes, table_for
from tests.test_kernel import _near_class_integral


def _report(tag: str, ok: bool, detail: str = "") -> None:
    line = f"{tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)


# ---------------------------------------------------------------------------
# A1: exact structural identities at scale.
# ---------------------------------------------------------------------------


def test_a1_exact_identity_suite():
    rng = np.random.default_rng(101)
    policy = TruncateAtRadius(0.75)
    svals = [0.25, 0.5, 0.75]
    worst = {"complement": 0.0, "monotone": 0.0, "decomposition": 0.0,
             "difference": 0.0, "coarea": 0.0}
    for i in range(200):
        dim = 1 if i % 3 == 0 else 2
        n = int(rng.choice([8, 12] if dim == 1 else [6, 9, 12]))
        s = svals[i % 3]
        spec = (
            GridSpec(1, (0.0,), (n,), 1.0 / n)
            if dim == 1
            else GridSpec(2, (0.0, 0.0), (n, n), 1.0 / n)
        )
        E = CellSet(spec, rng.random(spec.extent) < 0.5)
        table = table_for(spec, s, policy)
        outer = full_window(spec, policy)
        p_out = perimeter(E, outer, table).total

        # complement invariance
        p_c = perimeter(E.complement(), outer, table).total
        worst["complement"] = max(
            worst["complement"], abs(p_out - p_c) / (1.0 + p_out)
        )

        # window monotonicity + decomposition on a random inner box
        lo = int(rng.integers(1, n // 2))
        hi = int(rng.integers(n // 2 + 1, n))
        sub = np.zeros(spec.extent, dtype=bool)
        sub[(slice(lo, hi),) * dim] = True
        inner = DomainWindow(spec, sub, policy)
        p_in = perimeter(E, inner, table).total
        worst["monotone"] = max(
            worst["monotone"], (p_in - p_out) / (1.0 + p_out)
        )
        res = decomposition_check(E, inner, outer, table)
        worst["decomposition"] = max(
            worst["decomposition"], res / (1.0 + p_out)
        )

        # perimeter-difference identity for sets agreeing outside inner
        other = E.inside.copy()
        flips = sub & (rng.random(spec.extent) < 0.5)
        other[flips] = ~other[flips]
        F = CellSet(spec, other, E.exterior)
        lhs = p_out - perimeter(F, outer, table).total
        rhs = p_in - perimeter(F, inner, table).total
        worst["difference"] = max(
            worst["difference"], abs(lhs - rhs) / (1.0 + p_out)
        )

        # coarea on a random 4-level field
        u = ScalarField(spec, rng.integers(0, 4, size=spec.extent) / 3.0, 0.0)
        cl, cr = coarea_check(u, outer, table)
        worst["coarea"] = max(worst["coarea"], abs(cl - cr) / (1.0 + abs(cl)))

    ok = all(v <= 1e-10 for v in worst.values())
    _report("A1", ok, "worst relative residuals "
            + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))
    assert ok, worst


# ---------------------------------------------------------------------------
# A2: kernel oracle.
# ---------------------------------------------------------------------------


def test_a2_kernel_oracle():
    rng = np.random.default_rng(202)
    worst_pair = 0.0
    for _ in range(100):
        s = float(rng.uniform(0.1, 0.9))
        a = float(rng.uniform(-2.0, 1.0))
        b = a + float(rng.uniform(0.05, 1.5))
        c = b + float(rng.uniform(0.01, 1.5))
        d = c + float(rng.uniform(0.05, 1.5))
        exact = interval_pair_exact(a, b, c, d, s)
        quad, _ = integrate.dblquad(
            lambda y, x: abs(x - y) ** (-1.0 - s), a, b, c, d,
            epsabs=1e-13, epsrel=1e-13,
        )
        worst_pair = max(worst_pair, abs(exact - quad) / abs(quad))

    spec = GridSpec(2, (0.0, 0.0), (4, 4), 0.25)
    t6 = build_table(spec, KernelParams(0.5, 2, near_field_order=6), max_offset=2)
    t8 = build_table(spec, KernelParams(0.5, 2, near_field_order=8), max_offset=2)
    scale = spec.h ** (2 - 0.5)
    worst_near = 0.0
    worst_dblquad = 0.0
    for off in [(0, 1), (1, 1), (0, 2), (1, 2), (2, 2)]:
        w6 = t6.weight(off)
        w8 = t8.weight(off)
        worst_near = max(worst_near, abs(w8 - w6) / abs(w8))
        ref = scale * _near_class_integral(off, 0.5)
        worst_dblquad = max(worst_dblquad, abs(w8 - ref) / abs(ref))

    ok = worst_pair <= 1e-8 and worst_near == 0.0 and worst_dblquad <= 1e-10
    _report("A2", ok,
            f"pair vs quadrature {worst_pair:.2e}, "
            f"near-field depth 6->8 change {worst_near:.2%}, "
            f"near field vs dblquad {worst_dblquad:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# A3: strip-interaction scaling on the unit square.
# ---------------------------------------------------------------------------


def _side_mass(p, a, s):
    """2/B(1/2,(1+s)/2) times the integral of rho^(-s) over the directions
    that hit one side of a rectangle at perpendicular distance p, on the
    part of the side at offsets in [0, a] from the foot of the normal."""
    sin2 = a * a / (a * a + p * p)
    return p ** (-s) * special.betainc(0.5, 0.5 * (1.0 + s), sin2)


def _square_mass(p, q, side, s):
    """Sum of _side_mass over the four sides of a square of side ``side``
    seen from the point at distances p, q from its lower-left edges."""
    u, v = side - p, side - q
    return (_side_mass(p, q, s) + _side_mass(p, v, s)
            + _side_mass(u, q, s) + _side_mass(u, v, s)
            + _side_mass(q, p, s) + _side_mass(q, u, s)
            + _side_mass(v, p, s) + _side_mass(v, u, s))


def _strip_reference(s, delta, nodes=200):
    """L_s([delta, 1-delta]^2, Q minus that core) for the unit square Q.

    Per core point the inner integral is (1/s) of the angular integral of
    rho_core^(-s) - rho_Q^(-s), in closed form side by side.  The core is
    integrated over one quarter with Gauss-Legendre nodes after the
    substitution p = T t^(1/(1-s)), which absorbs the p^(-s) edge
    singularity; p is the distance to the core edge, formed directly so
    that it does not underflow.  Converged to about 1e-6 at 200^2 nodes.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    e = 1.0 / (1.0 - s)
    half = 0.5 - delta
    p = half * t ** e
    wp = w * half * e * t ** (e - 1.0)
    P, Q = np.meshgrid(p, p, indexing="ij")
    f = (_square_mass(P, Q, 1.0 - 2.0 * delta, s)
         - _square_mass(P + delta, Q + delta, 1.0, s))
    quarter = float(np.sum(np.outer(wp, wp) * f))
    return 4.0 * 0.5 * special.beta(0.5, 0.5 * (1.0 + s)) / s * quarter


def test_a3_strip_scaling():
    runner = CliRunner()
    res = runner.invoke(cli_main, ["strip-scan"])
    lines = res.output.splitlines()
    rows = [ln.split(",") for ln in lines
            if ln and not ln.startswith("#") and not ln.startswith("s,")]
    assert len(rows) == 15, res.output
    bound_ok = all(float(r[2]) <= float(r[3]) for r in rows)
    ref_err = max(
        abs(float(r[2]) / _strip_reference(float(r[0]), float(r[1])) - 1.0)
        for r in rows
    )
    ref_ok = ref_err <= 2e-3
    slopes = {}
    for ln in lines:
        if ln.startswith("# fitted_exponent"):
            key, val = ln.split(":")
            slopes[float(key.split("=")[1])] = float(val)
    exponent_ok = all(abs(sl - (1.0 - s)) <= 0.1 for s, sl in slopes.items())
    _report("A3", bound_ok and ref_ok and exponent_ok,
            f"bound line {'holds' if bound_ok else 'violated'}; "
            f"worst relative deviation from the reference {ref_err:.1e}; "
            "fitted exponents "
            + ", ".join(f"s={s:g}: {sl:.3f} (target {1 - s:g})"
                        for s, sl in sorted(slopes.items())))
    assert len(slopes) == 3, res.output
    assert bound_ok, "strip interaction exceeded its explicit bound line"
    assert ref_ok, (
        f"measured strip interaction deviates from the angular closed-form "
        f"reference by {ref_err:.2e} relative (allowed 2e-3)"
    )
    assert exponent_ok, (
        "differenced strip-interaction exponent is outside +-0.1 of 1-s: "
        + ", ".join(f"s={s:g} gives {sl:.3f} vs target {1 - s:g}"
                    for s, sl in sorted(slopes.items()))
        + ".  The rows match the independent reference, so the fault lies "
        "in the exponent estimator."
    )
    assert res.exit_code == 0, res.output


def test_strip_rows_match_reference():
    # with exact cell-pair weights the rows equal the continuum strip
    # interaction up to the reference's own accuracy (about 1e-6)
    res = CliRunner().invoke(cli_main, ["strip-scan", "--deltas", "0.25,0.125,0.0625"])
    rows = [ln.split(",") for ln in res.output.splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("s,")]
    assert len(rows) == 9, res.output
    for r in rows:
        s, delta, measured = float(r[0]), float(r[1]), float(r[2])
        ref = _strip_reference(s, delta)
        assert abs(measured / ref - 1.0) <= 1e-6, (s, delta, measured, ref)
    assert res.exit_code == 0, res.output


# ---------------------------------------------------------------------------
# A4: approximation pipeline on random smooth sets.
# ---------------------------------------------------------------------------


def _random_smooth_set(rng, n=16):
    spec = GridSpec(2, (0.0, 0.0), (n, n), 1.0 / n)
    while True:
        noise = ScalarField(spec, rng.random(spec.extent), 0.0)
        u = mollify(noise, MollifierSpec(3.0 / n))
        E = superlevel(u, float(np.median(u.values)))
        frac = E.inside.mean()
        if 0.25 <= frac <= 0.75:
            return E


def test_a4_approximation_pipeline():
    rng = np.random.default_rng(404)
    policy = TruncateAtRadius(0.5)
    n = 16
    h = 1.0 / n
    schedule = [8 * h, 4 * h, 2 * h, h]
    worst_gap = 0.0
    all_contained = True
    lip_ok = True
    for _ in range(20):
        E = _random_smooth_set(rng, n)
        spec = E.spec
        table = table_for(spec, 0.5, policy)
        for margin in (1, 3):
            mask = np.zeros(spec.extent, dtype=bool)
            mask[margin:-margin, margin:-margin] = True
            win = DomainWindow(spec, mask, policy)
            steps = approximate_set(E, win, schedule, table)
            all_contained &= all(st.boundary_in_neighborhood for st in steps)
            target = perimeter(E, win, table).total
            gap = abs(steps[-1].breakdown.total - target) / target
            worst_gap = max(worst_gap, gap)
        # cut-off variant on the full window
        win = full_window(spec, policy)
        lsteps = approximate_set_lipschitz(E, win, schedule, table)
        lip_ok &= all(st.boundary_in_neighborhood for st in lsteps)
        target = perimeter(E, win, table).total
        errs = [abs(st.breakdown.total - target) for st in lsteps]
        lip_ok &= errs[-1] <= errs[0]
        lip_ok &= errs[-1] <= 0.05 * target

    ok = worst_gap <= 0.05 and all_contained and lip_ok
    _report("A4", ok,
            f"worst interior-window gap {worst_gap:.2%}, containment "
            f"{'held' if all_contained else 'failed'}, cut-off variant "
            f"{'converged' if lip_ok else 'failed'}")
    assert ok, (worst_gap, all_contained, lip_ok)


# ---------------------------------------------------------------------------
# A5: relaxation + threshold against exhaustive search.
# ---------------------------------------------------------------------------


def _random_problem(rng, idx):
    svals = [0.25, 0.5, 0.75]
    s = svals[idx % 3]
    if idx % 2 == 0:
        n = 16
        spec = GridSpec(1, (0.0,), (n,), 1.0 / n)
        start = int(rng.integers(1, n - 9))
        width = int(rng.integers(3, 9))
        omega = np.zeros(spec.extent, dtype=bool)
        omega[start:start + width] = True
    else:
        n = 6
        spec = GridSpec(2, (0.0, 0.0), (n, n), 1.0 / n)
        omega = np.zeros(spec.extent, dtype=bool)
        omega[1:-1, 1:-1] = rng.random((n - 2, n - 2)) < 0.7
        if not omega.any():
            omega[2, 2] = True
    kind = idx % 4
    if kind == 0:
        E0 = cellset_from_shape(
            spec, {"shape": "halfspace", "axis": 0, "level": 0.5}
        )
    elif kind == 1:
        center = [0.5] * spec.dim
        E0 = cellset_from_shape(
            spec, {"shape": "ball", "center": center, "radius": 0.35}
        )
    elif kind == 2:
        E0 = CellSet(spec, rng.random(spec.extent) < 0.5)
    else:
        E0 = cellset_from_shape(spec, {"shape": "full"})
    win = DomainWindow(spec, omega, AnalyticTail())
    table = table_for(spec, s, AnalyticTail())
    return MinimizationProblem(win, E0, table)


def test_a5_minimization_oracle():
    rng = np.random.default_rng(505)
    failures = 0
    worst_excess = -np.inf
    for idx in range(200):
        p = _random_problem(rng, idx)
        rep = solve_and_threshold(p)
        _, best = brute_force_minimum(p)
        tol = 1e-9 * (1.0 + abs(best))
        if rep.energy > best + tol:
            failures += 1
        worst_excess = max(worst_excess, rep.energy - best)
        assert rep.energy <= rep.relaxed_energy + 1e-9 * (
            1.0 + abs(rep.relaxed_energy)
        )
    ok = failures == 0
    _report("A5", ok,
            f"{200 - failures}/200 problems matched the exhaustive "
            f"minimum (worst excess {worst_excess:.2e})")
    assert ok


# ---------------------------------------------------------------------------
# A6: competitor-class equivalence.
# ---------------------------------------------------------------------------


def test_a6_competitor_classes():
    rng = np.random.default_rng(606)
    agreements = 0
    for idx in range(50):
        n = 8
        spec = GridSpec(2, (0.0, 0.0), (n, n), 1.0 / n)
        omega = np.zeros(spec.extent, dtype=bool)
        r0 = int(rng.integers(1, 3))
        c0 = int(rng.integers(1, 3))
        omega[r0:r0 + 4, c0:c0 + 5] = True  # 20 free cells
        if idx % 2 == 1:
            omega[r0:r0 + 2, c0:c0 + 2] = False  # L-shape, 16 free
        if idx % 3 == 0:
            E0 = cellset_from_shape(
                spec, {"shape": "halfspace", "axis": idx % 2, "level": 0.5}
            )
        else:
            E0 = cellset_from_shape(
                spec, {"shape": "ball", "center": [0.5, 0.5], "radius": 0.3}
            )
        win = DomainWindow(spec, omega, AnalyticTail())
        table = table_for(spec, 0.5, AnalyticTail())
        p = MinimizationProblem(win, E0, table)
        best_set, _ = brute_force_minimum(p)
        eq = check_minimality_equivalence(best_set, win, table)
        if eq.global_ok == eq.compact_ok == eq.local_ok:
            agreements += 1
    ok = agreements == 50
    _report("A6", ok, f"{agreements}/50 instances with agreeing "
            "global/compact/local minimality booleans")
    assert ok


# ---------------------------------------------------------------------------
# A7: cylinder tail divergence and the finite local part.
# ---------------------------------------------------------------------------


def test_a7_cylinder_divergence():
    base = GridSpec(1, (-1.0,), (8,), 0.25)
    v = ScalarField(base, np.zeros(8), 0.0)
    ob = full_window(base)
    Ts = [float(T) for T in np.geomspace(2.0, 200.0, 9)]
    slope_msgs = []
    ok = True
    for s in (0.3, 0.5, 0.7):
        rows = nonlocal_divergence_scan(v, ob, Ts, KernelParams(s, 2))
        vals = [r.value for r in rows]
        ok &= all(b > a for a, b in zip(vals, vals[1:]))
        ok &= all(r.lower_bound <= r.value for r in rows)
        slope = fit_tail_slope(rows)
        ok &= abs(slope - (1.0 - s)) <= 0.1
        slope_msgs.append(f"s={s:g}: {slope:.3f}")

    # the local part over the full cylinder stays below its closed bound
    s = 0.5
    k = 1.0
    sg = SubgraphSet(base, v, k + 1.0)
    amb2 = sg.ambient_spec()
    t2 = build_table(amb2, KernelParams(s, 2), max_offset=max(amb2.extent) - 1)
    bd = truncated_cylinder_perimeter(sg, ob, k, t2)
    bound = local_part_bound(ob, k, bd.local, s)
    ok &= bd.local <= bound

    _report("A7", ok, "tail slopes " + ", ".join(slope_msgs)
            + f"; local part {bd.local:.4f} <= bound {bound:.4f}")
    assert ok


# ---------------------------------------------------------------------------
# A8: minimizer stability across taller cylinders.
# ---------------------------------------------------------------------------


def test_a8_tall_cylinder_stability():
    base = GridSpec(1, (0.0,), (4,), 0.25)
    policy = TruncateAtRadius(1.5)
    graphs = [
        np.zeros(4),
        np.array([0.1, 0.3, -0.2, 0.0]),
        np.array([-0.25, -0.25, 0.25, 0.25]),
    ]
    k0 = 1.0
    ok = True
    for vals in graphs:
        sg = SubgraphSet(base, ScalarField(base, vals, 0.0), 3.5)
        E0 = sg.cellset()
        amb = E0.spec
        z = amb.origin[-1] + (np.arange(amb.extent[-1]) + 0.5) * amb.h
        table = table_for(amb, 0.5, policy)
        inner = np.abs(z) < k0
        bitmasks = []
        for k in (k0, k0 + 1.0, k0 + 2.0):
            mask = np.broadcast_to(np.abs(z) < k, amb.extent).copy()
            win = DomainWindow(amb, mask, policy)
            rep = solve_and_threshold(MinimizationProblem(win, E0, table))
            bitmasks.append(rep.minimizer.inside[:, inner])
        ok &= all(np.array_equal(bitmasks[0], bm) for bm in bitmasks[1:])
    _report("A8", ok,
            "minimizers on the three cylinder heights are bitmask-identical "
            "inside the shortest window for all three exterior graphs")
    assert ok


# ---------------------------------------------------------------------------
# A9: scaled local energy against classical area as s -> 1.
# ---------------------------------------------------------------------------


def test_a9_area_asymptotics():
    svals = [0.6, 0.7, 0.8, 0.9]
    specs = [GridSpec(1, (0.0,), (n,), 1.0 / n) for n in (8, 16)]
    rows = graph_area_asymptotics(
        lambda sp: ScalarField(sp, np.zeros(sp.extent), 0.0),
        lambda sp: full_window(sp),
        1.0, svals, specs,
    )
    by_s = {s: [r.ratio for r in rows if r.s == s] for s in svals}
    # refinement converges to the fixed-s continuum ratio, which itself
    # approaches 1 only as s -> 1; a small discretization floor keeps the
    # trend check meaningful where that continuum ratio straddles 1
    # (at s = 0.6 it sits ~0.7% above 1 and refinement lands on it)
    trend_ok = all(
        abs(1.0 - rr[1]) <= abs(1.0 - rr[0]) + 5e-4 for rr in by_s.values()
    )
    finest_ok = abs(1.0 - by_s[0.9][1]) <= 0.15
    ok = trend_ok and finest_ok
    _report("A9", ok, "ratios under refinement "
            + ", ".join(f"s={s:g}: {rr[0]:.4f}->{rr[1]:.4f}"
                        for s, rr in by_s.items()))
    assert ok, by_s


# ---------------------------------------------------------------------------
# A10: divergence probe with locally finite windows.
# ---------------------------------------------------------------------------


def _windowed_probe_value(m: int, s: float, a: float) -> float:
    """Perimeter of the interval-union probe inside the window (0, a)."""
    n_terms = 2 * m + 2
    b = np.array([log_square_beta(k) for k in range(1, n_terms + 1)])
    sigma = np.concatenate([[0.0], np.cumsum(b)])
    e_pieces = [(sigma[2 * j], sigma[2 * j + 1]) for j in range(1, m + 1)]
    last_end = sigma[2 * m + 1]
    assert a < last_end
    c_pieces = [(0.0, sigma[2])]
    c_pieces += [(sigma[2 * j + 1], sigma[2 * j + 2]) for j in range(1, m)]

    def clip(piece, lo, hi):
        x, y = piece
        return (max(x, lo), min(y, hi)) if max(x, lo) < min(y, hi) else None

    def pair(p, q):
        if p[1] <= q[0]:
            return interval_pair_exact(p[0], p[1], q[0], q[1], s)
        return interval_pair_exact(q[0], q[1], p[0], p[1], s)

    parts = []
    for e in e_pieces:
        e_in = clip(e, 0.0, a)
        e_out_pieces = [p for p in (clip(e, a, np.inf),) if p]
        if e_in:
            for c in c_pieces:
                parts.append(pair(e_in, c))
            # complement rays: everything left of 0 and right of the
            # last listed interval is vacant
            parts.append(interval_ray_exact(-e_in[1], -e_in[0], 0.0, s))
            parts.append(interval_ray_exact(e_in[0], e_in[1], last_end, s))
        for e_out in e_out_pieces:
            for c in c_pieces:
                c_in = clip(c, 0.0, a)
                if c_in:
                    parts.append(pair(e_out, c_in))
    return math.fsum(parts)


def test_a10_divergence_probe():
    s = 0.5
    v8 = divergence_probe_1d(log_square_beta, 8, s)
    v64 = divergence_probe_1d(log_square_beta, 64, s)
    growth_ok = v64 > 2.0 * v8

    # a window strictly inside (0, M): values stabilize as intervals
    # accumulate far to the right of it
    b = np.array([log_square_beta(k) for k in range(1, 12)])
    a = float(np.cumsum(b)[8])  # covers the first four probe intervals
    vals = [_windowed_probe_value(m, s, a) for m in (8, 16, 32, 64)]
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[3] - vals[2])
    # stability contrast: the windowed value drifts by a shrinking
    # fraction of a percent per doubling while the unbounded value more
    # than doubles over the same range
    stable_ok = d2 < d1 and d2 <= 0.005 * vals[-1]
    ok = growth_ok and stable_ok
    _report("A10", ok,
            f"value(64)={v64:.3f} vs 2*value(8)={2 * v8:.3f}; windowed "
            f"drift per doubling {d1 / vals[-1]:.2%} -> {d2 / vals[-1]:.2%}")
    assert ok, (v8, v64, vals)


# ---------------------------------------------------------------------------
# A11: byte-identical outputs from fresh processes with different hash seeds.
# ---------------------------------------------------------------------------


def test_a11_hash_seed_determinism(tmp_path):
    spec = GridSpec(2, (0.0, 0.0), (16, 16), 1.0 / 16)
    grid = tmp_path / "ball.fracgrid"
    write_grid_file(grid, cellset_from_shape(
        spec, {"shape": "ball", "center": [0.45, 0.55], "radius": 0.3}))
    ladder = ["approx", "--s", "0.5", "--grid", str(grid), "--eps",
              "0.25,0.125,0.0625", "--policy", "truncate:0.5", "--omega",
              '{"shape": "ball", "center": [0.5, 0.5], "radius": 0.45}']
    commands = {
        "strip": ["strip-scan", "--s", "0.3,0.5", "--strip-cells", "4",
                  "--deltas", "0.25,0.125,0.0625"],
        "cylinder": ["cylinder-scan", "--s", "0.5",
                     "--t-schedule", "2,4,8,16,32,64"],
        "coarea": ["coarea-check", "--s", "0.5", "--extent", "8,8",
                   "--h", "0.125", "--seed", "7", "--policy", "truncate:0.5"],
        "approx": ladder,
        "approx-lipschitz": [*ladder, "--lipschitz"],
    }
    ok = True
    for name, args in commands.items():
        outs = [cli_output_bytes(args, tmp_path / f"{name}-{seed}.txt", seed)
                for seed in (0, 1)]
        ok &= outs[0] == outs[1]
    _report("A11", ok, "outputs byte-identical across fresh processes with "
            "PYTHONHASHSEED 0 and 1 for all sampled commands")
    assert ok
