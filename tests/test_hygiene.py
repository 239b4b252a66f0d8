"""Source hygiene: every name a module imports is used by that module,
no module imports SciPy, calls tensordot or uses sliding_window_view,
only the kernel reads the weight table's layout and only the functional
module reads numpy.fft; importing the command line loads no SciPy
module, and neither does any command while it runs, nor the cylinder
perimeter with its one-cell constant, nor an exact minimization or the
minimality-equivalence check called from Python."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fracperim.grid import GridSpec, cellset_from_shape, write_grid_file

SRC = Path(__file__).resolve().parent.parent / "src" / "fracperim"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # names listed in __all__ are used by being exported
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == [], f"{path.name} imports names it never uses"


def _scipy_imports(tree: ast.Module) -> list[str]:
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for a in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module]
    return [n for n in names if n.split(".")[0] == "scipy"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _scipy_imports(tree) == [], f"{path.name} imports SciPy"


def _layout_reads(tree: ast.Module) -> list[str]:
    return [f".{node.attr} (line {node.lineno})" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("weights", "max_offset")]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "kernel.py"),
                         ids=lambda p: p.name)
def test_table_layout_stays_in_kernel(path):
    # the weight table's flat layout is read through block, pairs and weight
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _layout_reads(tree) == [], f"{path.name} reads the weight table's layout"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_tensordot(path):
    # mollification is the FFT pass; the direct convolution is the tests' oracle
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "tensordot"]
    assert calls == [], f"{path.name} calls tensordot (lines {calls})"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_sliding_window_view(path):
    # pair sums gather through InteractionTable.pairs; the sliding-window
    # weight rows are the tests' oracle
    tree = ast.parse(path.read_text(), filename=str(path))
    uses = [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "sliding_window_view")
            or (isinstance(node, ast.Name) and node.id == "sliding_window_view")
            or (isinstance(node, ast.alias) and node.name == "sliding_window_view")]
    assert uses == [], f"{path.name} uses sliding_window_view (lines {uses})"


def _fft_reads(tree: ast.Module) -> list[int]:
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "fft")
            or (isinstance(node, ast.alias) and "fft" in node.name.split("."))
            or (isinstance(node, ast.ImportFrom) and "fft" in (node.module or "").split("."))]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "functional.py"),
                         ids=lambda p: p.name)
def test_fft_stays_in_functional(path):
    # every convolution is functional._convolve against functional._even_spectra
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _fft_reads(tree) == [], f"{path.name} reads .fft (lines {_fft_reads(tree)})"


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120)


_SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_skips_signal_and_integrate():
    # no SciPy module at all: the pair sums run on numpy.fft
    out = _fresh_python("-c", f"import sys, fracperim.cli; print(*{_SCIPY_LOADED})")
    assert out.stdout.split() == []


@pytest.mark.parametrize("args", [
    ["compute", "--s", "0.5", "--extent", "16,16", "--h", "0.0625",
     "--shape", '{"shape": "ball", "center": [0.5, 0.5], "radius": 0.3}'],
    ["davila-scan", "--s-schedule", "0.9", "--n-schedule", "8"],
    ["cylinder-scan", "--s", "0.5", "--t-schedule", "2,4,8,16,32,64,128"],
    ["sector-scan", "--s", "0.5", "--sigma", "0.5", "--t-schedule", "2,4,8,16,32,64,128"],
    pytest.param(["minimize", "--s", "0.5", "--exterior",
                  '{"shape": "halfspace", "axis": 0, "level": 0.5}', "--extent", "8",
                  "--h", "0.125", "--omega",
                  '{"shape": "ball", "center": [0.5], "radius": 0.2}', "--oracle"],
                 id="minimize-1d"),
    pytest.param(["minimize", "--s", "0.5", "--exterior",
                  '{"shape": "halfspace", "axis": 1, "level": 0.375}', "--extent", "8,8",
                  "--h", "0.125", "--omega",
                  '{"shape": "ball", "center": [0.5, 0.5], "radius": 0.25}', "--oracle"],
                 id="minimize-2d"),
    ["strip-scan", "--s", "0.5", "--deltas", "0.25,0.125,0.0625"],
    pytest.param(["approx", "--s", "0.5", "--grid", "{grid}", "--eps", "0.25,0.125"],
                 id="approx"),
    pytest.param(["approx", "--s", "0.5", "--grid", "{grid}", "--eps", "0.25,0.125",
                  "--lipschitz", "--omega",
                  '{"shape": "ball", "center": [0.5, 0.5], "radius": 0.4}'],
                 id="approx-lipschitz"),
], ids=lambda a: a[0])
def test_command_runs_without_scipy(args, tmp_path):
    # the scans end in sys.exit with their gate's code, which must be 0
    grid = tmp_path / "ball.fracgrid"
    spec = GridSpec(2, (0.0, 0.0), (16, 16), 1.0 / 16)
    write_grid_file(grid, cellset_from_shape(
        spec, {"shape": "ball", "center": [0.5, 0.5], "radius": 0.3}))
    args = [str(grid) if a == "{grid}" else a for a in args]
    code = ("import sys\nfrom fracperim.cli import main\n"
            "try:\n    main(sys.argv[1:], standalone_mode=False)\n"
            f"finally:\n    print('scipy:', *{_SCIPY_LOADED}, file=sys.stderr)")
    out = _fresh_python("-c", code, *args)
    assert out.stdout
    assert out.stderr.split() == ["scipy:"]


@pytest.mark.parametrize("base_dim", [1, 2], ids=["2d", "3d"])
def test_cylinder_perimeter_runs_without_scipy(base_dim):
    # a fresh process fits the one-cell constant C_n(s) from a cold cache
    code = f"""
import sys
import numpy as np
from fracperim.cylinder import SubgraphSet, truncated_cylinder_perimeter
from fracperim.functional import _cell_constant
from fracperim.grid import GridSpec, ScalarField, full_window
from fracperim.kernel import KernelParams, build_table
n = {base_dim}
base = GridSpec(n, (0.0,) * n, (3,) * n, 0.5)
sg = SubgraphSet(base, ScalarField(base, 0.2 * np.ones((3,) * n)), 2.0)
amb = sg.ambient_spec()
table = build_table(amb, KernelParams(0.5, n + 1), max(amb.extent) - 1)
assert _cell_constant.cache_info().currsize == 0
print(truncated_cylinder_perimeter(sg, full_window(base), 1.0, table).total)
assert _cell_constant.cache_info().currsize == 1
print('scipy:', *{_SCIPY_LOADED}, file=sys.stderr)
"""
    out = _fresh_python("-c", code)
    assert float(out.stdout) > 0.0
    assert out.stderr.split() == ["scipy:"]


def test_solve_runs_without_scipy():
    # the exact minimum cut is a NumPy push-relabel
    code = f"""
import sys
import numpy as np
from fracperim.functional import table_for
from fracperim.grid import AnalyticTail, GridSpec, cellset_from_shape, window_from_shape
from fracperim.minimize import MinimizationProblem, solve_and_threshold
spec = GridSpec(2, (0.0, 0.0), (10, 10), 0.1)
E0 = cellset_from_shape(spec, {{"shape": "halfspace", "axis": 0, "level": 0.45}})
win = window_from_shape(spec, {{"shape": "ball", "center": [0.5, 0.5], "radius": 0.42}},
                        AnalyticTail())
rep = solve_and_threshold(MinimizationProblem(win, E0, table_for(spec, 0.3, AnalyticTail())))
print(rep.energy)
print('scipy:', *{_SCIPY_LOADED}, file=sys.stderr)
"""
    out = _fresh_python("-c", code)
    assert float(out.stdout) > 0.0
    assert out.stderr.split() == ["scipy:"]


def test_equivalence_check_runs_without_scipy():
    # the signed distance behind the competitor windows is NumPy only
    code = """
import sys
sys.modules["scipy"] = None
import numpy as np
from fracperim.functional import table_for
from fracperim.grid import AnalyticTail, DomainWindow, GridSpec, cellset_from_shape
from fracperim.minimize import (MinimizationProblem, check_minimality_equivalence,
                                solve_and_threshold)
spec = GridSpec(2, (0.0, 0.0), (8, 8), 0.125)
E0 = cellset_from_shape(spec, {"shape": "halfspace", "axis": 0, "level": 0.5})
omega = np.zeros(spec.extent, dtype=bool)
omega[1:7, 1:7] = True
win = DomainWindow(spec, omega, AnalyticTail())
table = table_for(spec, 0.5, AnalyticTail())
rep = solve_and_threshold(MinimizationProblem(win, E0, table))
print(check_minimality_equivalence(rep.minimizer, win, table))
"""
    out = _fresh_python("-c", code)
    assert "degenerate=False" in out.stdout
    assert "_ok=False" not in out.stdout


def test_3d_compute_peak_memory():
    # a 16^3 ball under the default policy: a 95^3 weight table and
    # box-sized transforms, where the padded universe would be 80^3 cells.
    # The compute process reads its own peak RSS.  A small launcher starts
    # it, since a peak read by getrusage includes the process it forked from.
    child = ("import resource, sys; from fracperim.cli import main; "
             "main(sys.argv[1:], standalone_mode=False); "
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "
             "file=sys.stderr)")
    launcher = ("import subprocess, sys; sys.exit(subprocess.run("
                f"[sys.executable, '-c', {child!r}, *sys.argv[1:]]).returncode)")
    out = _fresh_python("-c", launcher, "compute", "--s", "0.5", "--extent", "16,16,16",
                        "--h", "0.0625", "--shape",
                        '{"shape": "ball", "center": [0.5, 0.5, 0.5], "radius": 0.3}')
    assert '"total"' in out.stdout
    # measured 52 MB on one core (x86-64, NumPy 2.4); about 50 % margin
    assert float(out.stderr) < 80.0  # MB
