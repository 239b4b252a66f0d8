"""Source hygiene: every name a module imports is used by that module;
importing the command line loads no SciPy module, and neither do
`compute` and `davila-scan` while they run."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
], ids=lambda a: a[0])
def test_command_runs_without_scipy(args):
    code = ("import sys; from fracperim.cli import main; "
            "main(sys.argv[1:], standalone_mode=False); "
            f"print('scipy:', *{_SCIPY_LOADED}, file=sys.stderr)")
    out = _fresh_python("-c", code, *args)
    assert out.stdout
    assert out.stderr.split() == ["scipy:"]
