"""Uniform-grid geometry: cell sets, scalar fields, windows, signed distance.

Cell-center semantics throughout: a cell belongs to a set iff its center
does, and every integral becomes a sum over cells.  Mass outside the grid
box is described by an explicit exterior model, never silently truncated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDomain, InvalidRadius, InvalidShape, SpecMismatch

__all__ = [
    "GridSpec",
    "EmptyExterior",
    "FullExterior",
    "HalfSpaceExterior",
    "SubgraphExterior",
    "CellSet",
    "ScalarField",
    "TruncateAtRadius",
    "AnalyticTail",
    "DomainWindow",
    "full_window",
    "window_from_shape",
    "signed_distance",
    "sublevel_window",
    "tubular_neighborhood",
    "read_grid_file",
    "write_grid_file",
    "cellset_from_shape",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform Cartesian grid: dimension, origin, cell counts and cell size."""

    dim: int
    origin: tuple[float, ...]
    extent: tuple[int, ...]
    h: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if len(self.origin) != self.dim or len(self.extent) != self.dim:
            raise ValueError("origin/extent length must match dim")
        if any(n < 1 for n in self.extent):
            raise ValueError("all extents must be >= 1")
        if not self.h > 0:
            raise ValueError("h must be positive")
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        object.__setattr__(self, "extent", tuple(int(n) for n in self.extent))

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.extent))

    @property
    def box_lo(self) -> np.ndarray:
        return np.asarray(self.origin)

    @property
    def box_hi(self) -> np.ndarray:
        return np.asarray(self.origin) + self.h * np.asarray(self.extent)

    def axis_centers(self, axis: int, i) -> np.ndarray:
        """Centres origin + (i + 0.5) h along ``axis`` of the box-relative
        cell indices ``i``: one expression for the box, its pad and beyond,
        so a level splits them all alike."""
        return self.origin[axis] + (np.asarray(i) + 0.5) * self.h

    def centers(self, pad_cells=0) -> np.ndarray:
        """Cell centers as an (n_cells, dim) array in C order, of the box
        padded by ``pad_cells`` (one int or one per axis) on both sides."""
        pads = np.broadcast_to(pad_cells, (self.dim,))
        axes = [self.axis_centers(a, np.arange(-k, n + k))
                for a, (n, k) in enumerate(zip(self.extent, pads))]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def padded(self, pad_cells) -> "GridSpec":
        """Spec enlarged by ``pad_cells`` cells on both sides of each axis.

        ``pad_cells`` is one int for every axis or a tuple with one per axis.
        """
        pads = (pad_cells,) * self.dim if np.ndim(pad_cells) == 0 else tuple(pad_cells)
        return GridSpec(
            self.dim,
            tuple(o - k * self.h for o, k in zip(self.origin, pads)),
            tuple(n + 2 * k for n, k in zip(self.extent, pads)),
            self.h,
        )


def _sample_padded(spec: GridSpec, box: np.ndarray, exterior, target: GridSpec) -> np.ndarray:
    """``box`` (on ``spec``) placed into ``target``, the box padded by whole
    cells; the pad holds ``exterior``, a constant or an exterior model
    evaluated at the pad's cell centers (Empty and Full fill as constants).
    The centers are placed from the box's origin (``GridSpec.centers``),
    so the pad and the box round a level on a cell centre alike.

    Raises SpecMismatch unless ``target == spec.padded(k)`` for some
    non-negative per-axis cell counts k.
    """
    pads = tuple(round((o - t) / spec.h) for o, t in zip(spec.origin, target.origin))
    if target.dim != spec.dim or min(pads) < 0 or spec.padded(pads) != target:
        raise SpecMismatch(f"{target} is not {spec} padded by whole cells")
    if isinstance(exterior, (EmptyExterior, FullExterior)):
        exterior = isinstance(exterior, FullExterior)
    if isinstance(exterior, (int, float)):
        out = np.full(target.extent, exterior, dtype=box.dtype)
    else:
        out = exterior.contains(spec.centers(pads)).astype(box.dtype, copy=False)
        out = out.reshape(target.extent)
    out[tuple(slice(k, k + n) for k, n in zip(pads, spec.extent))] = box
    return out


# ---------------------------------------------------------------------------
# Exterior models: occupancy of E outside the grid box.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmptyExterior:
    """E contains nothing outside the box."""

    def contains(self, points: np.ndarray) -> np.ndarray:
        return np.zeros(len(points), dtype=bool)

    def complement(self):
        return FullExterior()


@dataclass(frozen=True)
class FullExterior:
    """E contains everything outside the box."""

    def contains(self, points: np.ndarray) -> np.ndarray:
        return np.ones(len(points), dtype=bool)

    def complement(self):
        return EmptyExterior()


@dataclass(frozen=True)
class HalfSpaceExterior:
    """E = {x_axis < level} outside the box (or its complement if flipped)."""

    axis: int
    level: float
    below: bool = True  # True: E is the side x_axis < level

    def contains(self, points: np.ndarray) -> np.ndarray:
        side = points[:, self.axis] < self.level
        return side if self.below else ~side

    def complement(self):
        return HalfSpaceExterior(self.axis, self.level, not self.below)


@dataclass(frozen=True)
class SubgraphExterior:
    """E = {(x, t): t < v(x)} outside the box.

    ``v`` is tabulated per cell on the base grid (the first dim-1 axes of
    the ambient spec) and equals ``farfield`` outside the base box.
    """

    base_spec: GridSpec
    heights: tuple  # flattened, C order over base_spec
    farfield: float
    above: bool = False  # True means the complementary region

    def _v(self, x: np.ndarray) -> np.ndarray:
        hv = np.asarray(self.heights, dtype=float).reshape(self.base_spec.extent)
        idx = np.floor((x - self.base_spec.box_lo) / self.base_spec.h).astype(int)
        inside = np.all(idx >= 0, axis=1) & np.all(
            idx < np.asarray(self.base_spec.extent), axis=1
        )
        out = np.full(len(x), float(self.farfield))
        if inside.any():
            out[inside] = hv[tuple(idx[inside].T)]
        return out

    def contains(self, points: np.ndarray) -> np.ndarray:
        t = points[:, -1]
        v = self._v(points[:, :-1])
        below = t < v
        return ~below if self.above else below

    def complement(self):
        return SubgraphExterior(self.base_spec, self.heights, self.farfield, not self.above)


# ---------------------------------------------------------------------------
# Core data types.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellSet:
    """Binary occupancy over grid cells plus an exterior model."""

    spec: GridSpec
    inside: np.ndarray  # bool, shape spec.extent
    exterior: object = field(default_factory=EmptyExterior)

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.inside, dtype=bool))
        if arr.shape != tuple(self.spec.extent):
            raise SpecMismatch(
                f"inside shape {arr.shape} does not match extent {self.spec.extent}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "inside", arr)

    def complement(self) -> "CellSet":
        return CellSet(self.spec, ~self.inside, self.exterior.complement())

    def occupancy_on(self, spec: GridSpec) -> np.ndarray:
        """Occupancy on ``spec``, the box padded by whole cells."""
        return _sample_padded(self.spec, self.inside, self.exterior, spec)


@dataclass(frozen=True)
class ScalarField:
    """Per-cell real values, optionally with an exterior continuation.

    ``exterior`` is either a constant float or an exterior-model object
    (occupancy interpreted as the {0, 1} extension of the field).
    """

    spec: GridSpec
    values: np.ndarray
    exterior: object = 0.0

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if arr.shape != tuple(self.spec.extent):
            raise SpecMismatch(
                f"values shape {arr.shape} does not match extent {self.spec.extent}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def values_on(self, spec: GridSpec) -> np.ndarray:
        """Field values on ``spec``, the box padded by whole cells."""
        return _sample_padded(self.spec, self.values, self.exterior, spec)


@dataclass(frozen=True)
class TruncateAtRadius:
    """Resolve exterior mass on a padded grid out to the given radius.

    The radius is finite and non-negative; 0 pads nothing.
    """

    radius: float

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius >= 0):
            raise InvalidRadius(f"truncation radius must be finite and >= 0, got {self.radius}")


@dataclass(frozen=True)
class AnalyticTail:
    """Resolve exterior mass analytically where closed forms exist.

    Exact for dim 1 (lattice half-space masses over all of Z).  In higher
    dimensions the exterior is taken over the box padded by twice its
    longest side, by the same lattice rule, with the mass beyond reported
    in ``truncation_error_bound``.
    """


@dataclass(frozen=True)
class DomainWindow:
    """Subset of cells marking the open set in which energy is measured."""

    spec: GridSpec
    omega: np.ndarray  # bool, shape spec.extent
    complement_policy: object = field(default_factory=lambda: AnalyticTail())

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.omega, dtype=bool))
        if arr.shape != tuple(self.spec.extent):
            raise SpecMismatch(
                f"omega shape {arr.shape} does not match extent {self.spec.extent}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "omega", arr)

    @property
    def n_omega(self) -> int:
        return int(self.omega.sum())


def full_window(spec: GridSpec, policy=None) -> DomainWindow:
    """Window covering the whole box."""
    pol = policy if policy is not None else AnalyticTail()
    return DomainWindow(spec, np.ones(spec.extent, dtype=bool), pol)


# ---------------------------------------------------------------------------
# Signed distance and derived windows.
# ---------------------------------------------------------------------------


def _squared_distance_to(features: np.ndarray) -> np.ndarray:
    """Squared distance, in units of (h/2)^2, from every cell centre to the
    nearest closed cell of ``features``, for each mask of a stack
    (k, *shape) of nonempty masks.

    Along one axis a centre and a closed cell d >= 1 cells away are
    (2d - 1) h/2 apart, and 0 apart when d = 0, so the squared distance to
    cell k is the sum over axes of c(|a_i - k_i|), with c(0) = 0 and
    c(d) = (2d - 1)^2.  That sum separates, one axis at a time
    (Saito-Toriwaki): the first grid axis takes c of the nearest feature's
    offset on each line, for the whole stack at once; every later axis
    takes min over k of c(|k|) + the previous axis shifted by k, sweeping
    k = 1, 2, ... until c(k) reaches the largest value left, beyond which
    no shift can lower any entry.  Each mask sweeps alone, so one that
    stops early (the in-cells of a full window) costs the other nothing,
    and a large grid's sweep stays within one mask's memory.
    """
    # a line with no feature gets an offset longer than any distance in
    # the grid, so its entries stay above every finite sum until replaced
    far = sum(features.shape[1:])
    j = np.arange(features.shape[1]).reshape((-1,) + (1,) * (features.ndim - 2))
    left = np.maximum.accumulate(np.where(features, j, -far), axis=1)
    right = np.minimum.accumulate(np.where(features, j, far + j.size)[:, ::-1],
                                  axis=1)[:, ::-1]
    d = np.minimum(j - left, right - j)
    out = []
    for dist in np.where(d > 0, (2 * d - 1) ** 2, 0):
        for axis in range(1, dist.ndim):
            g = np.moveaxis(dist, axis, 0)
            dist = g.copy()
            k = 1
            while k < len(g) and (2 * k - 1) ** 2 < dist.max():
                ck = (2 * k - 1) ** 2
                np.minimum(dist[k:], g[:-k] + ck, out=dist[k:])
                np.minimum(dist[:-k], g[k:] + ck, out=dist[:-k])
                k += 1
            dist = np.moveaxis(dist, 0, axis)
        out.append(dist)
    return np.stack(out)


def signed_distance(window: DomainWindow) -> ScalarField:
    """Signed distance from the in/out interface, negative inside omega.

    The interface is the boundary of the union of closed in-cells; cells
    outside the box count as out, so omega touching the box edge measures
    to the box surface.  A cell centre lies in no closed cell of the other
    phase, and the segment to the nearest point of that phase's union
    runs through its own phase, so that point is on the interface: the
    distance of an in-centre is its distance to the nearest closed
    out-cell, and of an out-centre to the nearest closed in-cell.  Both
    are exact integer transforms on the box plus one ring of out-cells,
    which stands for everything beyond the box, from one call on the
    stacked pair (``_squared_distance_to``).
    """
    omega = window.omega
    if not omega.any():
        raise DegenerateDomain("omega must be nonempty")
    # the out-cells and the in-cells of the box plus one ring of out-cells
    box = (slice(1, -1),) * omega.ndim
    pair = np.zeros((2,) + tuple(n + 2 for n in omega.shape), dtype=bool)
    pair[0] = True
    pair[(0,) + box] = ~omega
    pair[(1,) + box] = omega
    to_out, to_in = _squared_distance_to(pair)[(slice(None),) + box]
    dist = np.sqrt(np.where(omega, to_out, to_in)) * (window.spec.h / 2)
    return ScalarField(window.spec, np.where(omega, -dist, dist))


def sublevel_window(window: DomainWindow, r: float) -> DomainWindow:
    """Sublevel set of the signed distance: cells with d < r."""
    sd = signed_distance(window)
    return DomainWindow(window.spec, sd.values < r, window.complement_policy)


def tubular_neighborhood(window: DomainWindow, rho: float) -> np.ndarray:
    """Cells within distance rho of the boundary, as a bitmask."""
    if not rho > 0:
        raise ValueError("rho must be positive")
    sd = signed_distance(window)
    return np.abs(sd.values) < rho


# ---------------------------------------------------------------------------
# Grid file format.
# ---------------------------------------------------------------------------


def write_grid_file(path, cellset: CellSet) -> None:
    """Write the ASCII grid format: header line, then row-major 0/1 chars."""
    spec = cellset.spec
    parts = ["fracgrid", str(spec.dim)]
    parts += [str(n) for n in spec.extent]
    parts.append(repr(spec.h))
    parts += [repr(o) for o in spec.origin]
    bits = "".join("1" if v else "0" for v in cellset.inside.ravel())
    lines = [" ".join(parts)]
    row = spec.extent[-1]
    for start in range(0, len(bits), row):
        lines.append(bits[start : start + row])
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_grid_file(path) -> CellSet:
    """Parse the ASCII grid format back into a CellSet (Empty exterior)."""
    with open(path) as f:
        header = f.readline().split()
        body = f.read()
    if not header or header[0] != "fracgrid":
        raise InvalidShape("not a fracgrid file")
    try:
        dim = int(header[1])
        extent = tuple(int(v) for v in header[2 : 2 + dim])
        h = float(header[2 + dim])
        spec = GridSpec(dim, tuple(float(v) for v in header[3 + dim :]), extent, h)
    except (IndexError, ValueError) as err:
        raise InvalidShape(f"bad fracgrid header {' '.join(header)!r}: {err}") from None
    bits = [c for c in body if c in "01"]
    if len(bits) != spec.n_cells:
        raise InvalidShape(
            f"expected {spec.n_cells} occupancy chars, found {len(bits)}"
        )
    inside = np.array([c == "1" for c in bits], dtype=bool).reshape(extent)
    return CellSet(spec, inside)


# ---------------------------------------------------------------------------
# Shape DSL.
# ---------------------------------------------------------------------------


# the keys a shape document of each kind may carry
_SHAPE_KEYS = {
    "union": {"union"},
    "complement": {"complement"},
    "ball": {"shape", "center", "radius"},
    "halfspace": {"shape", "axis", "level"},
    "empty": {"shape"},
    "full": {"shape"},
    "subgraph": {"shape", "heights", "farfield"},
}


def _shape_occupancy(doc, pts: np.ndarray):
    """Occupancy at the given points plus the matching exterior model.

    A key that the document's kind does not take raises, so that a
    misspelt key cannot fall back to a default; so does a key it needs."""
    if not isinstance(doc, dict):
        raise InvalidShape(f"shape document must be an object, got {type(doc)}")
    kind = next((op for op in ("union", "complement") if op in doc), doc.get("shape"))
    if not isinstance(kind, str) or kind not in _SHAPE_KEYS:
        raise InvalidShape(f"unknown shape kind: {doc!r}")
    unknown = sorted(set(doc) - _SHAPE_KEYS[kind])
    if unknown:
        raise InvalidShape(f"unknown keys {unknown} in a {kind} shape: {doc!r}")
    try:
        return _kind_occupancy(kind, doc, pts)
    except KeyError as err:
        raise InvalidShape(f"missing key {err} in a {kind} shape: {doc!r}") from None
    except (TypeError, ValueError) as err:
        raise InvalidShape(f"bad value in a {kind} shape ({err}): {doc!r}") from None


def _kind_occupancy(kind: str, doc: dict, pts: np.ndarray):
    """``_shape_occupancy`` of a document whose keys are checked."""
    if kind == "union":
        if not isinstance(doc["union"], list):
            raise InvalidShape(f"a union takes a list of shapes, got {doc!r}")
        occ = np.zeros(len(pts), dtype=bool)
        exts = []
        for sub in doc["union"]:
            o, e = _shape_occupancy(sub, pts)
            occ |= o
            exts.append(e)
        ext = EmptyExterior()
        for e in exts:
            if isinstance(e, FullExterior):
                ext = FullExterior()
                break
            if not isinstance(e, EmptyExterior):
                if isinstance(ext, EmptyExterior):
                    ext = e
                else:
                    raise InvalidShape("union of two unbounded shapes is unsupported")
        return occ, ext
    if kind == "complement":
        o, e = _shape_occupancy(doc["complement"], pts)
        return ~o, e.complement()
    if kind == "ball":
        c = np.asarray(doc["center"], dtype=float)
        r = float(doc["radius"])
        if c.shape != pts.shape[1:] or not np.isfinite(c).all():
            raise InvalidShape(f"a ball center takes {pts.shape[1]} finite coordinates: {doc!r}")
        if not 0 < r < np.inf:
            raise InvalidRadius(f"a ball radius must be positive and finite: {doc!r}")
        occ = ((pts - c) ** 2).sum(axis=1) < r * r
        return occ, EmptyExterior()
    if kind == "halfspace":
        axis = doc.get("axis", 0)
        level = float(doc.get("level", 0.0))
        if type(axis) is not int or not 0 <= axis < pts.shape[1]:
            raise InvalidShape(f"a half-space axis is an integer in [0, {pts.shape[1]}): {doc!r}")
        if np.isnan(level):
            raise InvalidShape(f"a half-space level is a number or +-Infinity: {doc!r}")
        occ = pts[:, axis] < level
        return occ, HalfSpaceExterior(axis, level)
    if kind == "empty":
        return np.zeros(len(pts), dtype=bool), EmptyExterior()
    if kind == "full":
        return np.ones(len(pts), dtype=bool), FullExterior()
    if kind == "subgraph":
        base = doc["heights"]
        far = float(doc.get("farfield", 0.0))
        base_spec = GridSpec(
            int(base["dim"]),
            tuple(base["origin"]),
            tuple(base["extent"]),
            float(base["h"]),
        )
        ext = SubgraphExterior(base_spec, tuple(base["values"]), far)
        occ = ext.contains(pts)
        return occ, ext
    raise InvalidShape(f"unknown shape kind: {doc!r}")


def cellset_from_shape(spec: GridSpec, doc) -> CellSet:
    """Evaluate a shape DSL document (dict or JSON string) on a grid."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    occ, ext = _shape_occupancy(doc, spec.centers())
    return CellSet(spec, occ.reshape(spec.extent), ext)


def window_from_shape(spec: GridSpec, doc, policy=None) -> DomainWindow:
    """Evaluate a shape DSL document as a window bitmask."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    occ, _ = _shape_occupancy(doc, spec.centers())
    pol = policy if policy is not None else AnalyticTail()
    return DomainWindow(spec, occ.reshape(spec.extent), pol)
