"""Source hygiene: every name a module imports is used by that module, and
the command line loads no SciPy module it does not need."""

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


def test_cli_import_skips_signal_and_integrate():
    code = ("import sys, fracperim.cli; "
            "print(*(m for m in ('scipy.signal', 'scipy.integrate', 'scipy.sparse.csgraph',"
            " 'scipy.ndimage') if m in sys.modules))")
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120)
    assert out.stdout.split() == []
