"""Shared fixtures: cached kernel tables and deterministic RNG streams.

Table construction is the expensive step in almost every test, so tables
are cached per (grid spec, s, complement policy) for the whole session.
"""

from __future__ import annotations

import numpy as np
import pytest

from fracperim import functional
from fracperim.grid import AnalyticTail, GridSpec, TruncateAtRadius
from fracperim.kernel import InteractionTable, KernelParams, build_table

_TABLE_CACHE: dict = {}


def _policy_key(policy) -> tuple:
    if isinstance(policy, AnalyticTail):
        return ("analytic", policy.fallback_radius)
    if isinstance(policy, TruncateAtRadius):
        return ("truncate", policy.radius)
    raise TypeError(f"unknown policy {policy!r}")


def table_for(spec: GridSpec, s: float, policy) -> InteractionTable:
    """Table whose reach covers the padded universe of the policy."""
    key = (spec, float(s), _policy_key(policy))
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = functional.table_for(spec, float(s), policy)
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


@pytest.fixture
def get_table():
    return table_for


@pytest.fixture
def get_box_table():
    return box_table


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
