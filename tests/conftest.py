"""Shared fixtures: cached kernel tables, deterministic RNG streams and
the command line run in a fresh interpreter.

Table construction is the expensive step in almost every test, so tables
are cached per (grid spec, s, complement policy) for the whole session.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracperim import functional
from fracperim.approx import MollifierSpec, _as_field
from fracperim.grid import AnalyticTail, GridSpec, ScalarField, TruncateAtRadius
from fracperim.kernel import InteractionTable, KernelParams, build_table

_TABLE_CACHE: dict = {}
_SRC = Path(__file__).resolve().parent.parent / "src"


def _policy_key(policy) -> tuple:
    if isinstance(policy, AnalyticTail):
        return ("analytic",)
    if isinstance(policy, TruncateAtRadius):
        return ("truncate", policy.radius)
    raise TypeError(f"unknown policy {policy!r}")


def table_for(spec: GridSpec, s: float, policy) -> InteractionTable:
    """The program's table for the policy (``functional.table_for``):
    reach max(extent) + pad - 1, from the box to the box plus its pad."""
    key = (spec, float(s), _policy_key(policy))
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = functional.table_for(spec, float(s), policy)
    return _TABLE_CACHE[key]


def universe_table(spec: GridSpec, s: float, policy) -> InteractionTable:
    """Table reaching across the whole padded universe of the policy, for
    explicit references that sum over it (the reach perfbench's
    ``worker.table_for`` builds): max(padded extent) - 1."""
    key = (spec, float(s), _policy_key(policy), "universe")
    if key not in _TABLE_CACHE:
        pad = functional._pad_cells(spec, policy)
        _TABLE_CACHE[key] = build_table(spec, KernelParams(float(s), spec.dim),
                                        max_offset=max(spec.padded(pad).extent) - 1)
    return _TABLE_CACHE[key]


def box_table(spec: GridSpec, s: float) -> InteractionTable:
    """Table reaching across the box only (for in-box interactions)."""
    key = (spec, float(s), "box")
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = build_table(
            spec, KernelParams(float(s), spec.dim),
            max_offset=max(spec.extent) - 1,
        )
    return _TABLE_CACHE[key]


def weight_rows(cells: np.ndarray, shape: tuple[int, ...], table: InteractionTable):
    """Yield (start, rows): the weight rows of ``cells`` in chunks of about
    ``functional._PAIR_CHUNK`` cell pairs.

    Row k of a chunk holds w(j - a) over every cell j of a universe of
    ``shape``, flattened, for its cell a.  It is the slice
    block[reach - a : reach - a + shape] of the weight block, read from
    one sliding window view of it, so no offset array is formed: a route
    to the weights apart from ``InteractionTable.pairs``' flat gather.
    """
    reach = np.asarray(shape) - 1
    windows = np.lib.stride_tricks.sliding_window_view(table.block(tuple(reach)), shape)
    size = math.prod(shape)
    step = max(1, functional._PAIR_CHUNK // size)
    for lo in range(0, len(cells), step):
        corner = reach - cells[lo:lo + step]
        yield lo, windows[tuple(corner.T)].reshape(len(corner), size)


def explicit_interaction(A: np.ndarray, B: np.ndarray, table: InteractionTable) -> float:
    """L_s(A, B) with the table weight of every cell pair summed
    explicitly, one chunk of weight rows at a time: the independent
    oracle of ``functional.interaction``'s correlation."""
    A = np.asarray(A, dtype=bool)
    b = np.asarray(B, dtype=bool).ravel().astype(float)
    return math.fsum(float(rows.dot(b).sum())
                     for _, rows in weight_rows(np.argwhere(A), A.shape, table))


def explicit_relaxed_energy(u: ScalarField, window, table: InteractionTable) -> float:
    """F(u, Omega) as the sum over (window cell a, box cell j) pairs of
    w(j - a) |u_a - u_j|, halved when j lies in the window, one chunk of
    weight rows at a time, plus the engine's exterior terms: the oracle
    of ``functional.relaxed_energy``'s value-ordered route, which counts
    each pair once."""
    eng = functional._engine_for(window, table)
    om = window.omega
    vals = u.values
    vflat = vals.ravel()
    half = np.where(om.ravel(), 0.5, 1.0)
    v_om = vals[om]
    parts = []
    for lo, rows in weight_rows(np.argwhere(om), vals.shape, table):
        terms = v_om[lo:lo + len(rows), None] - vflat
        np.abs(terms, out=terms)
        terms *= half
        terms *= rows
        parts.append(float(terms.sum()))
    parts += [float(np.abs(v_om - v) @ mass[om]) for v, mass in eng.pad_masses(u.exterior)]
    return math.fsum(parts)


def direct_mollify(u, m: MollifierSpec) -> ScalarField:
    """u (*) the sampled bump as a direct "valid" convolution: a tensordot
    over every window of the box padded by the bump's reach, the
    independent oracle of ``approx.mollify``'s FFT pass."""
    field = _as_field(u)
    spec = field.spec
    kern = m.sampled(spec)
    padded = field.values_on(spec.padded(m.reach(spec)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, kern.shape)
    return ScalarField(spec, np.tensordot(windows, np.flip(kern), axes=kern.ndim),
                       field.exterior)


@pytest.fixture
def get_table():
    return table_for


@pytest.fixture
def get_box_table():
    return box_table


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def cli_output_bytes(args, output: Path, hash_seed: int) -> bytes:
    """Bytes a fresh ``python -m fracperim.cli`` process writes to
    ``output``, run with PYTHONHASHSEED=hash_seed.

    Exit code 2 (a scan's gate tripped) still writes the output."""
    path = os.pathsep.join(p for p in (str(_SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run([sys.executable, "-m", "fracperim.cli", *args,
                           "--output", str(output)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode in (0, 2), proc.stderr
    return output.read_bytes()
