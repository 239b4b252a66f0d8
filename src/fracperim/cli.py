"""Batch command-line front end.

Every subcommand parses its flags, dispatches to a library call, and
writes CSV or JSON; no numerics live here.  Output files start with
comment lines echoing the full configuration so each run is reproducible
from its artifact alone.  Floats are printed with 17 significant digits
so the CSV round-trips 64-bit values losslessly.
"""

from __future__ import annotations

import json
import sys

import click
import numpy as np

from . import approx as approx_mod
from . import cylinder as cyl
from . import minimize as min_mod
from .errors import FracPerimError, SpecMismatch
from .functional import (
    coarea_check,
    decomposition_check,
    divergence_probe_1d,
    geometric_ratio,
    interaction,
    log_square_beta,
    perimeter,
    strip_exponent,
    table_for,
)
from .grid import (
    AnalyticTail,
    CellSet,
    DomainWindow,
    GridSpec,
    ScalarField,
    TruncateAtRadius,
    cellset_from_shape,
    full_window,
    read_grid_file,
    sublevel_window,
    window_from_shape,
    write_grid_file,
)
from .kernel import InteractionTable, KernelParams, build_table, unit_ball_volume

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PROPERTY = 2


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit(output: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w") as f:
            f.write(text)
    else:
        click.echo(text, nl=False)


def _emit_csv(output: str | None, config: dict, header: str, rows,
              notes=()) -> None:
    """One CSV artifact: the configuration echo (sorted ``# key=value``
    lines), the header, one line per row (ints and bools as integers,
    floats by ``_fmt``) and the ``# `` note lines."""
    lines = [f"# {k}={v}" for k, v in sorted(config.items())]
    lines.append(header)
    lines += [",".join(str(int(v)) if isinstance(v, (bool, int)) else _fmt(v)
                       for v in row) for row in rows]
    lines += [f"# {note}" for note in notes]
    _emit(output, lines)


def _fail_config(message: str, **extra) -> "NoReturn":
    diag = {"error": "config", "message": message, **extra}
    click.echo(json.dumps(diag, sort_keys=True), err=True)
    sys.exit(EXIT_CONFIG)


def _guard(fn):
    """Map library errors onto the documented exit codes."""

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (FracPerimError, ValueError, OSError, json.JSONDecodeError) as err:
            _fail_config(str(err), kind=type(err).__name__)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _policy_from(policy: str):
    if policy == "analytic":
        return AnalyticTail()
    if policy.startswith("truncate:"):
        return TruncateAtRadius(float(policy.split(":", 1)[1]))
    raise ValueError(f"policy must be 'analytic' or 'truncate:<radius>', got {policy!r}")


def _window(spec: GridSpec, omega: str | None, policy) -> DomainWindow:
    """The window of a shape DSL document, or the full box without one."""
    if omega:
        return window_from_shape(spec, json.loads(omega), policy)
    return full_window(spec, policy)


def _load_set(grid: str | None, shape: str | None, extent, h, origin) -> CellSet:
    if grid:
        return read_grid_file(grid)
    if shape is None:
        raise ValueError("either --grid or --shape is required")
    if extent is None:
        raise ValueError("a shape needs --extent")
    ext = tuple(int(v) for v in extent.split(","))
    org = tuple(float(v) for v in origin.split(",")) if origin else (0.0,) * len(ext)
    spec = GridSpec(len(ext), org, ext, float(h))
    return cellset_from_shape(spec, json.loads(shape))


@click.group()
def main():
    """Fractional s-perimeter toolkit."""


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


@main.command()
@click.option("--s", "s", type=float, required=True)
@click.option("--grid", type=click.Path(exists=True), default=None)
@click.option("--shape", default=None, help="shape DSL JSON instead of a grid file")
@click.option("--extent", default=None, help="comma list of cell counts (with --shape)")
@click.option("--h", "h", type=float, default=1.0)
@click.option("--origin", default=None, help="comma list of origin coordinates")
@click.option("--omega", default=None, help="window shape DSL JSON (default: full box)")
@click.option("--policy", default="analytic", show_default=True)
@click.option("--output", default=None)
@_guard
def compute(s, grid, shape, extent, h, origin, omega, policy, output):
    """s-perimeter of a set in a window, as JSON."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0,1), got {s}")
    E = _load_set(grid, shape, extent, h, origin)
    pol = _policy_from(policy)
    bd = perimeter(E, _window(E.spec, omega, pol), table_for(E.spec, s, pol))
    result = {
        "s": s,
        "local": bd.local,
        "nonlocal": bd.nonlocal_,
        "total": bd.total,
        "truncation_error_bound": bd.truncation_error_bound,
        "degenerate": bd.degenerate,
    }
    _emit(output, [json.dumps(result, sort_keys=True)])


# ---------------------------------------------------------------------------
# approx
# ---------------------------------------------------------------------------


@main.command("approx")
@click.option("--s", "s", type=float, required=True)
@click.option("--grid", type=click.Path(exists=True), required=True)
@click.option("--eps", "eps_list", required=True, help="comma list, non-increasing")
@click.option("--omega", default=None)
@click.option("--policy", default="truncate:2.0", show_default=True)
@click.option("--lipschitz", is_flag=True)
@click.option("--output", default=None)
@_guard
def approx_cmd(s, grid, eps_list, omega, policy, lipschitz, output):
    """Mollify-threshold ladder; one CSV row per radius."""
    E = read_grid_file(grid)
    pol = _policy_from(policy)
    schedule = [float(v) for v in eps_list.split(",")]
    run = approx_mod.approximate_set_lipschitz if lipschitz else approx_mod.approximate_set
    steps = run(E, _window(E.spec, omega, pol), schedule, table_for(E.spec, s, pol))
    _emit_csv(output, dict(command="approx", s=s, grid=grid, eps=eps_list,
                           lipschitz=lipschitz, policy=policy),
              "eps,threshold,perimeter,boundary_in_neighborhood",
              [(st.eps, st.threshold, st.breakdown.total, st.boundary_in_neighborhood)
               for st in steps])


# ---------------------------------------------------------------------------
# minimize
# ---------------------------------------------------------------------------


@main.command("minimize")
@click.option("--s", "s", type=float, required=True)
@click.option("--grid", type=click.Path(exists=True), default=None,
              help="exterior data bitmask (fracgrid)")
@click.option("--exterior", default=None, help="exterior data shape DSL JSON")
@click.option("--extent", default=None)
@click.option("--h", "h", type=float, default=1.0)
@click.option("--origin", default=None)
@click.option("--omega", required=True, help="window shape DSL JSON")
@click.option("--policy", default="analytic", show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True,
              help="certified gap tolerance, relative to 1 + |energy|")
@click.option("--oracle", is_flag=True, help="verify against exhaustive search")
@click.option("--out-grid", default=None, help="write the minimizer as a grid file")
@click.option("--output", default=None)
@_guard
def minimize_cmd(s, grid, exterior, extent, h, origin, omega, policy, tol,
                 oracle, out_grid, output):
    """Exact minimum cut with a certified gap; solver report as JSON."""
    E0 = _load_set(grid, exterior, extent, h, origin)
    if grid and exterior:
        # bitmask from the file, exterior model from the DSL
        model = cellset_from_shape(E0.spec, json.loads(exterior)).exterior
        E0 = CellSet(E0.spec, E0.inside, model)
    pol = _policy_from(policy)
    win = window_from_shape(E0.spec, json.loads(omega), pol)
    table = table_for(E0.spec, s, pol)
    prob = min_mod.MinimizationProblem(win, E0, table)
    rep = min_mod.solve_and_threshold(prob, tol=tol)
    result = {
        "s": s,
        "relaxed_energy": rep.relaxed_energy,
        "threshold": rep.threshold,
        "energy": rep.energy,
        "iterations": rep.iterations,
        "gap": rep.gap,
    }
    status = EXIT_OK
    if oracle:
        _, best = min_mod.brute_force_minimum(prob)
        result["oracle_energy"] = best
        result["oracle_ok"] = bool(rep.energy <= best + 1e-9 * (1.0 + abs(best)))
        if not result["oracle_ok"]:
            status = EXIT_PROPERTY
    if out_grid:
        write_grid_file(out_grid, rep.minimizer)
    _emit(output, [json.dumps(result, sort_keys=True)])
    sys.exit(status)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


@main.command("coarea-check")
@click.option("--s", "s", type=float, required=True)
@click.option("--extent", required=True)
@click.option("--h", "h", type=float, default=1.0)
@click.option("--levels", type=int, default=4, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--policy", default="truncate:2.0", show_default=True)
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("--output", default=None)
@_guard
def coarea_cmd(s, extent, h, levels, seed, policy, tol, output):
    """Discrete coarea identity on a seeded random piecewise-constant field."""
    if levels < 1:
        raise ValueError(f"--levels must be at least 1, got {levels}")
    min_mod._check_tol(tol)
    ext = tuple(int(v) for v in extent.split(","))
    spec = GridSpec(len(ext), (0.0,) * len(ext), ext, h)
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, levels, size=ext) / max(levels - 1, 1)
    u = ScalarField(spec, vals.astype(float), 0.0)
    pol = _policy_from(policy)
    win = full_window(spec, pol)
    table = table_for(spec, s, pol)
    lhs, rhs = coarea_check(u, win, table)
    residual = abs(lhs - rhs) / (1.0 + abs(lhs))
    result = {"s": s, "lhs": lhs, "rhs": rhs, "residual": residual, "seed": seed}
    _emit(output, [json.dumps(result, sort_keys=True)])
    sys.exit(EXIT_OK if residual <= tol else EXIT_PROPERTY)


@main.command("decomposition-check")
@click.option("--s", "s", type=float, required=True)
@click.option("--grid", type=click.Path(exists=True), required=True)
@click.option("--inner", required=True, help="inner window shape DSL JSON")
@click.option("--outer", required=True, help="outer window shape DSL JSON")
@click.option("--policy", default="truncate:2.0", show_default=True)
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("--output", default=None)
@_guard
def decomposition_cmd(s, grid, inner, outer, policy, tol, output):
    """Window-decomposition identity residual for a set from a grid file."""
    min_mod._check_tol(tol)
    E = read_grid_file(grid)
    pol = _policy_from(policy)
    wi = window_from_shape(E.spec, json.loads(inner), pol)
    wo = window_from_shape(E.spec, json.loads(outer), pol)
    table = table_for(E.spec, s, pol)
    res = decomposition_check(E, wi, wo, table)
    po = perimeter(E, wo, table).total
    rel = res / (1.0 + abs(po))
    _emit(output, [json.dumps({"s": s, "residual": res, "relative": rel},
                              sort_keys=True)])
    sys.exit(EXIT_OK if rel <= tol else EXIT_PROPERTY)


# ---------------------------------------------------------------------------
# strip scan
# ---------------------------------------------------------------------------


@main.command("strip-scan")
@click.option("--s", "s_list", default="0.3,0.5,0.7", show_default=True)
@click.option("--strip-cells", type=int, default=8, show_default=True,
              help="grid cells across the strip width (resolution per delta)")
@click.option("--deltas", default="0.25,0.125,0.0625,0.03125,0.015625",
              show_default=True)
@click.option("--output", default=None)
@_guard
def strip_scan(s_list, strip_cells, deltas, output):
    """Inner-strip interaction on the unit square with the lemma bound line.

    Both sets live inside the square, so no exterior data enters; each
    delta gets its own grid with the strip resolved by --strip-cells
    cells so the relative discretization error is uniform across rows.

    The --deltas schedule must be geometric, with every width below 1/2,
    where the core is not empty.  Each ``fitted_exponent`` is
    the least-squares slope of log|M_k| against log delta_k, where
    M_k = r L(delta_{k+1}) - L(delta_k) and r = delta_k / delta_{k+1}:
    the difference removes the term linear in delta and keeps the
    exponent of the delta^(1-s) term.  It is nan with fewer than three
    widths.  Exit code 2 unless every row lies under its bound line and
    every exponent lies within 0.1 of 1-s.
    """
    if strip_cells < 1:
        raise ValueError(f"--strip-cells must be at least 1, got {strip_cells}")
    svals = [float(v) for v in s_list.split(",")]
    dvals = [float(v) for v in deltas.split(",")]
    geometric_ratio(dvals)  # reject a bad schedule before building tables
    wide = [d for d in dvals if not d < 0.5]
    if wide:
        # the core [delta, 1 - delta]^2 is empty from 1/2 on
        raise ValueError(f"--deltas widths must be below 1/2, got {wide[0]:g}")

    geo = {}
    for d in dvals:
        n = max(4, int(round(strip_cells / d)))
        spec = GridSpec(2, (0.0, 0.0), (n, n), 1.0 / n)
        win = full_window(spec)
        shrunk = sublevel_window(win, -d)
        geo[d] = (spec, shrunk.omega, win.omega & ~shrunk.omega)
    reach = max(spec.extent[0] for spec, _, _ in geo.values()) - 1
    unit_spec = GridSpec(2, (0.0, 0.0), (reach + 1,) * 2, 1.0)

    rows = []
    for s in svals:
        params = KernelParams(s, 2)
        # one unit-spacing table per s: each grid's weights are its block
        # times h^(2-s), by kernel homogeneity
        unit = build_table(unit_spec, params, max_offset=reach)
        # slices of the square at inner offsets have perimeter at most 4
        c_const = 2.0 * unit_ball_volume(2) / (s * (1.0 - s)) * 4.0
        for d in dvals:
            spec, core, strip = geo[d]
            k = spec.extent[0] - 1
            table = InteractionTable(spec, params, k,
                                     unit.block(k) * spec.h ** (2.0 - s))
            rows.append((s, d, interaction(core, strip, table),
                         c_const * d ** (1.0 - s)))
    slopes = [strip_exponent(dvals, [v for ss, _, v, _ in rows if ss == s]) for s in svals]
    _emit_csv(output, dict(command="strip-scan", s=s_list, strip_cells=strip_cells,
                           deltas=deltas),
              "s,delta,measured,bound", rows,
              [f"fitted_exponent s={_fmt(s)}: {_fmt(p)}" for s, p in zip(svals, slopes)])
    ok = all(v <= b for _, _, v, b in rows) and all(
        abs(p - (1.0 - s)) <= 0.1 for s, p in zip(svals, slopes))
    sys.exit(EXIT_OK if ok else EXIT_PROPERTY)


# ---------------------------------------------------------------------------
# cylinder family
# ---------------------------------------------------------------------------


def _tail_scan(output, config: dict, scan, s, n_cells, h, v0, tsched):
    """The body of cylinder-scan and sector-scan: ``scan`` (rows of a
    constant graph v0 over n_cells base cells) as CSV with the fitted tail
    slope.  Exit code 2 unless every row lies above its lower bound and
    the slope lies within 0.1 of 1-s."""
    base = GridSpec(1, (0.0,), (n_cells,), h)
    v = ScalarField(base, np.full(n_cells, v0), v0)
    rows = scan(v, full_window(base), [float(t) for t in tsched.split(",")],
                KernelParams(s, 2))
    slope = cyl.fit_tail_slope(rows)
    _emit_csv(output, config, "T,lower_bound,value",
              [(r.T, r.lower_bound, r.value) for r in rows],
              [f"fitted_slope: {_fmt(slope)}"])
    ok = abs(slope - (1.0 - s)) <= 0.1 and all(r.lower_bound <= r.value for r in rows)
    sys.exit(EXIT_OK if ok else EXIT_PROPERTY)


@main.command("cylinder-scan")
@click.option("--s", "s", type=float, required=True)
@click.option("--n", "n_cells", type=int, default=8, show_default=True)
@click.option("--h", "h", type=float, default=0.125, show_default=True)
@click.option("--v0", type=float, default=0.0, show_default=True)
@click.option("--t-schedule", "tsched", required=True, help="comma list, increasing")
@click.option("--output", default=None)
@_guard
def cylinder_scan(s, n_cells, h, v0, tsched, output):
    """Nonlocal tail divergence rows (T, lower bound, value) plus slope."""
    config = dict(command="cylinder-scan", s=s, n=n_cells, h=h, v0=v0, t_schedule=tsched)
    _tail_scan(output, config, cyl.nonlocal_divergence_scan, s, n_cells, h, v0, tsched)


@main.command("sector-scan")
@click.option("--s", "s", type=float, required=True)
@click.option("--sigma", type=float, default=0.5, show_default=True)
@click.option("--m-bound", "m_bound", type=float, default=1.0, show_default=True)
@click.option("--n", "n_cells", type=int, default=8, show_default=True)
@click.option("--h", "h", type=float, default=0.125, show_default=True)
@click.option("--v0", type=float, default=0.0, show_default=True)
@click.option("--t-schedule", "tsched", required=True)
@click.option("--output", default=None)
@_guard
def sector_scan(s, sigma, m_bound, n_cells, h, v0, tsched, output):
    """Sector-restricted divergence rows and slope."""
    config = dict(command="sector-scan", s=s, sigma=sigma, n=n_cells, h=h, t_schedule=tsched)

    def scan(v, ob, Ts, params):
        return cyl.sector_divergence_scan(v, sigma, m_bound, ob, Ts, params)

    _tail_scan(output, config, scan, s, n_cells, h, v0, tsched)


@main.command("confinement")
@click.option("--grid", type=click.Path(exists=True), required=True,
              help="ambient (n+1)-dim set as a fracgrid file")
@click.option("--base-extent", required=True, help="comma list of base cell counts")
@click.option("--output", default=None)
@_guard
def confinement(grid, base_extent, output):
    """Measured vertical confinement bound M of a computed set."""
    E = read_grid_file(grid)
    ext = tuple(int(v) for v in base_extent.split(","))
    if ext != E.spec.extent[:-1]:
        raise SpecMismatch(f"--base-extent {base_extent} must be the grid's extent less "
                           f"its vertical axis, {E.spec.extent[:-1]}")
    base = GridSpec(E.spec.dim - 1, E.spec.origin[:-1], ext, E.spec.h)
    ob = full_window(base)
    m = cyl.vertical_confinement_check(E, ob)
    _emit(output, [json.dumps({"measured_M": m}, sort_keys=True)])


@main.command("davila-scan")
@click.option("--s-schedule", "ssched", default="0.6,0.7,0.8,0.9", show_default=True)
@click.option("--n-schedule", "nsched", default="8,16", show_default=True,
              help="base cells per refinement level on the unit interval")
@click.option("--k", "k", type=float, default=1.0, show_default=True)
@click.option("--output", default=None)
@_guard
def davila_scan(ssched, nsched, k, output):
    """Scaled local energy vs classical graph area across (s, h) pairs."""
    svals = [float(v) for v in ssched.split(",")]
    nvals = [int(v) for v in nsched.split(",")]
    if min(nvals) < 1:
        raise ValueError(f"--n-schedule entries must be at least 1, got {nsched}")
    specs = [GridSpec(1, (0.0,), (n,), 1.0 / n) for n in nvals]
    rows = cyl.graph_area_asymptotics(
        lambda sp: ScalarField(sp, np.zeros(sp.extent), 0.0),
        lambda sp: full_window(sp),
        k, svals, specs,
    )
    _emit_csv(output, dict(command="davila-scan", s_schedule=ssched, n_schedule=nsched, k=k),
              "s,h,scaled_local,classical,ratio",
              [(r.s, r.h, r.scaled_local, r.classical, r.ratio) for r in rows])


@main.command("diverge-1d")
@click.option("--s", "s", type=float, default=0.5, show_default=True)
@click.option("--m-schedule", "msched", default="8,16,32,64", show_default=True)
@click.option("--output", default=None)
@_guard
def diverge_1d(s, msched, output):
    """Partial perimeters of the canonical interval-union probe."""
    ms = [int(v) for v in msched.split(",")]
    _emit_csv(output, dict(command="diverge-1d", s=s, m_schedule=msched), "m,value",
              [(m, divergence_probe_1d(log_square_beta, m, s)) for m in ms])


if __name__ == "__main__":
    main()
