"""Grid geometry: specs, sets, signed distance, shapes, file format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from fracperim import grid
from fracperim.errors import DegenerateDomain, InvalidRadius, InvalidShape, SpecMismatch
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
    read_grid_file,
    signed_distance,
    sublevel_window,
    tubular_neighborhood,
    window_from_shape,
    write_grid_file,
)


def _spec2(n=8, h=0.25):
    return GridSpec(2, (0.0, 0.0), (n, n), h)


def _window(spec, mask):
    return DomainWindow(spec, mask, AnalyticTail())


def _boundary_faces(spec, inside):
    """Brute-force reference: the axis-aligned faces separating in-cells
    from out-cells (cells beyond the box count as out), as per-face (lo, hi)
    corners; a face is degenerate (lo == hi) along its normal axis."""
    ext = np.asarray(spec.extent)
    padded = np.pad(inside, 1)
    lo_list, hi_list = [], []
    for a in range(spec.dim):
        # face between padded cells k and k+1 along axis a
        idx = np.argwhere(padded != np.roll(padded, -1, axis=a))
        keep = np.ones(len(idx), dtype=bool)
        for b in range(spec.dim):
            first = 0 if b == a else 1
            keep &= (idx[:, b] >= first) & (idx[:, b] <= ext[b])
        idx = idx[keep]
        lo = spec.box_lo + (idx - 1 + np.eye(spec.dim)[a]) * spec.h
        hi = lo + spec.h
        hi[:, a] = lo[:, a]
        lo_list.append(lo)
        hi_list.append(hi)
    return np.concatenate(lo_list), np.concatenate(hi_list)


def _signed_distance_reference(spec, inside):
    """Every cell center measured against every boundary face: O(cells x faces)."""
    lo, hi = _boundary_faces(spec, inside)
    p = spec.centers()[:, None, :]
    gap = np.maximum(np.maximum(lo[None] - p, 0.0), p - hi[None])
    dist = np.sqrt((gap * gap).sum(axis=2)).min(axis=1).reshape(spec.extent)
    return np.where(inside, -dist, dist)


def _ndimage_signed_distance(window):
    """The half-cell lattice route: the interface is where the closures of
    the in-cells and the out-cells (cells beyond the box out) meet, and
    one SciPy Euclidean distance transform on the lattice of step h/2 is
    read at the centres."""
    omega = window.omega
    cells = np.pad(omega, 1)
    cube = np.ones((3,) * cells.ndim, dtype=bool)

    def closure(mask):
        # cell k covers lattice points 2k, 2k+1 (its center) and 2k+2
        lattice = np.zeros(tuple(2 * n + 1 for n in mask.shape), dtype=bool)
        lattice[(slice(1, None, 2),) * mask.ndim] = mask
        return ndimage.binary_dilation(lattice, cube)

    interface = closure(cells) & closure(~cells)
    dist = ndimage.distance_transform_edt(~interface, sampling=window.spec.h / 2)
    dist = dist[(slice(3, -3, 2),) * cells.ndim]
    return np.where(omega, -dist, dist)


def _assert_matches_ndimage(window):
    sd = signed_distance(window).values
    ref = _ndimage_signed_distance(window)
    assert np.array_equal(np.sign(sd), np.sign(ref))
    assert np.all(np.abs(sd - ref) <= 1e-15 * np.abs(ref))


class TestGridSpec:
    def test_centers_shape_and_values(self):
        spec = GridSpec(2, (1.0, -1.0), (3, 2), 0.5)
        pts = spec.centers()
        assert pts.shape == (6, 2)
        assert np.allclose(pts[0], [1.25, -0.75])
        assert np.allclose(pts[-1], [2.25, -0.25])

    def test_padded_preserves_alignment(self):
        spec = _spec2(4, 0.5)
        pad = spec.padded(3)
        assert pad.extent == (10, 10)
        assert np.allclose(pad.box_lo, spec.box_lo - 1.5)
        # original centers are a subset of the padded centers
        orig = spec.centers()
        padded = pad.centers().reshape(10, 10, 2)[3:-3, 3:-3].reshape(-1, 2)
        assert np.allclose(orig, padded)

    def test_padded_per_axis(self):
        spec = GridSpec(2, (1.0, -1.0), (3, 2), 0.5)
        pad = spec.padded((2, 0))
        assert pad == GridSpec(2, (0.0, -1.0), (7, 2), 0.5)
        assert spec.padded((3, 3)) == spec.padded(3)
        assert spec.padded(0) == spec

    def test_box_corners(self):
        spec = GridSpec(1, (2.0,), (4,), 0.25)
        assert np.allclose(spec.box_lo, [2.0])
        assert np.allclose(spec.box_hi, [3.0])


class TestTruncateAtRadius:
    @pytest.mark.parametrize("radius", [-0.1, float("nan"), float("inf")])
    def test_rejects_negative_or_non_finite_radius(self, radius):
        with pytest.raises(InvalidRadius):
            TruncateAtRadius(radius)


class TestCellSet:
    def test_shape_mismatch_raises(self):
        spec = _spec2(4)
        with pytest.raises(SpecMismatch):
            CellSet(spec, np.ones((3, 4), dtype=bool))

    def test_complement_involution(self, rng):
        spec = _spec2(6)
        E = CellSet(spec, rng.random(spec.extent) < 0.5)
        F = E.complement().complement()
        assert np.array_equal(E.inside, F.inside)

    def test_occupancy_on_padded_uses_exterior(self):
        spec = GridSpec(1, (0.0,), (4,), 1.0)
        doc = {"shape": "halfspace", "axis": 0, "level": 2.0}
        E = cellset_from_shape(spec, doc)
        occ = E.occupancy_on(spec.padded(2))
        # pad cells left of the box are inside the half space, right are not
        assert occ.tolist() == [True, True, True, True, False, False, False, False]

    _SPEC = GridSpec(2, (-0.5, 0.25), (5, 4), 0.25)
    _TARGETS = [0, 1, 3, (2, 0), (0, 3), (1, 2)]

    @staticmethod
    def _reference(spec, box, exterior, target):
        """Per target cell, at box-relative index j: the box value when j
        lies in the box, otherwise the exterior at the cell's centre
        origin + (j + 0.5) h, placed from the box's origin."""
        pads = np.rint((spec.box_lo - target.box_lo) / spec.h).astype(int)
        out = np.empty(target.extent, dtype=box.dtype)
        for idx in np.ndindex(*target.extent):
            j = np.asarray(idx) - pads
            if np.all(j >= 0) and np.all(j < spec.extent):
                out[idx] = box[tuple(j)]
            elif isinstance(exterior, float):
                out[idx] = exterior
            else:
                c = spec.box_lo + (j + 0.5) * spec.h
                out[idx] = exterior.contains(c[None, :])[0]
        return out

    def test_level_on_a_centre_splits_box_and_pad_alike(self):
        # box row 4 has its centres on the level 0.45, so it is out of E;
        # the pad cells of that row must be out of E too
        spec = GridSpec(2, (0.0, 0.0), (10, 10), 0.1)
        E = cellset_from_shape(spec, {"shape": "halfspace", "axis": 1, "level": 0.45})
        assert not E.inside[:, 4].any() and E.inside[:, 3].all()
        occ = E.occupancy_on(spec.padded(3))
        assert np.array_equal(occ[:, 3 + 4], np.zeros(16, dtype=bool))
        assert np.array_equal(occ[3:-3, 3:-3], E.inside)
        assert np.array_equal(occ, np.broadcast_to(occ[0], occ.shape))

    @pytest.mark.parametrize("exterior", [
        EmptyExterior(),
        FullExterior(),
        HalfSpaceExterior(1, 0.6),
        HalfSpaceExterior(0, 0.1, below=False),
        SubgraphExterior(GridSpec(1, (-0.5,), (5,), 0.25),
                         (0.3, 0.9, 0.5, 0.1, 0.7), 0.55),
    ], ids=["empty", "full", "halfspace", "halfspace_above", "subgraph"])
    @pytest.mark.parametrize("pad", _TARGETS, ids=str)
    def test_occupancy_on_matches_per_cell_reference(self, exterior, pad, rng):
        E = CellSet(self._SPEC, rng.random(self._SPEC.extent) < 0.5, exterior)
        target = self._SPEC.padded(pad)
        occ = E.occupancy_on(target)
        assert occ.dtype == bool
        assert np.array_equal(occ, self._reference(E.spec, E.inside, exterior, target))

    @pytest.mark.parametrize("exterior", [0.0, 1.0, 0.3, HalfSpaceExterior(1, 0.6),
                                          EmptyExterior(), FullExterior()],
                             ids=["zero", "one", "fraction", "halfspace", "empty", "full"])
    @pytest.mark.parametrize("pad", _TARGETS, ids=str)
    def test_values_on_matches_per_cell_reference(self, exterior, pad, rng):
        u = ScalarField(self._SPEC, rng.random(self._SPEC.extent), exterior)
        target = self._SPEC.padded(pad)
        vals = u.values_on(target)
        assert vals.dtype == float
        assert np.array_equal(vals, self._reference(u.spec, u.values, exterior, target))

    @pytest.mark.parametrize("target", [
        GridSpec(2, (-0.5, 0.25), (10, 8), 0.125),  # another h
        GridSpec(2, (-0.875, 0.0), (7, 6), 0.25),  # half a cell off
        GridSpec(2, (-0.25, 0.5), (3, 2), 0.25),  # the box shrunk by a cell
        GridSpec(2, (-0.5, 0.25), (4, 4), 0.25),  # smaller extent
        GridSpec(2, (-0.75, 0.25), (6, 4), 0.25),  # one side padded only
        GridSpec(1, (-0.5,), (5,), 0.25),  # another dimension
    ], ids=["h", "half_cell", "shrunk", "smaller", "one_sided", "dim"])
    def test_sampling_off_the_padded_lattice_raises(self, target):
        E = CellSet(self._SPEC, np.ones(self._SPEC.extent, dtype=bool))
        u = ScalarField(self._SPEC, np.zeros(self._SPEC.extent), 0.3)
        with pytest.raises(SpecMismatch):
            E.occupancy_on(target)
        with pytest.raises(SpecMismatch):
            u.values_on(target)


class TestSignedDistance:
    def test_sign_convention(self):
        spec = _spec2(8, 0.25)
        mask = np.zeros(spec.extent, dtype=bool)
        mask[2:6, 2:6] = True
        sd = signed_distance(_window(spec, mask)).values
        assert np.all(sd[mask] < 0)
        assert np.all(sd[~mask] > 0)

    def test_exact_values_single_row(self):
        spec = GridSpec(1, (0.0,), (6,), 1.0)
        mask = np.array([False, False, True, True, False, False])
        sd = signed_distance(_window(spec, mask)).values
        assert np.allclose(sd, [1.5, 0.5, -0.5, -0.5, 0.5, 1.5])

    def test_antisymmetry_under_complement(self, rng):
        spec = _spec2(7, 0.5)
        mask = rng.random(spec.extent) < 0.5
        if not mask.any() or mask.all():
            mask[0, 0] = True
            mask[1, 1] = False
        sd = signed_distance(_window(spec, mask)).values
        sd_c = signed_distance(_window(spec, ~mask)).values
        # interface faces between in/out cells are shared, so wherever the
        # nearest face is interior the two fields are exact negatives
        interior = np.minimum(np.abs(sd), np.abs(sd_c))
        box_edge = np.min(
            np.stack(
                [
                    (spec.centers() - spec.box_lo).min(axis=1),
                    (spec.box_hi - spec.centers()).min(axis=1),
                ]
            ),
            axis=0,
        ).reshape(spec.extent)
        realized_inside = interior < box_edge
        assert np.allclose(sd[realized_inside], -sd_c[realized_inside])

    @staticmethod
    def _cases(rng):
        """Masks in dims 1-3 on shifted origins and several h: random fills,
        a mask touching the box edge, a single cell and the full window."""
        for dim, extent in ((1, (9,)), (2, (7, 5)), (3, (4, 5, 3))):
            for h in (1.0, 0.25, 1 / 3):
                spec = GridSpec(dim, tuple(rng.uniform(-2, 2, dim)), extent, h)
                for fill in (0.2, 0.5, 0.8):
                    mask = rng.random(extent) < fill
                    mask.flat[0] = True
                    yield spec, mask
                edge = np.zeros(extent, dtype=bool)
                edge[(slice(None),) * (dim - 1) + (slice(0, 2),)] = True
                yield spec, edge
                single = np.zeros(extent, dtype=bool)
                single[tuple(n // 2 for n in extent)] = True
                yield spec, single
                yield spec, np.ones(extent, dtype=bool)

    def test_matches_face_enumeration(self, rng):
        for spec, mask in self._cases(rng):
            sd = signed_distance(_window(spec, mask)).values
            ref = _signed_distance_reference(spec, mask)
            assert np.array_equal(np.sign(sd), np.sign(ref))
            assert np.all(np.abs(sd - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    def test_matches_ndimage_route(self, rng):
        for spec, mask in self._cases(rng):
            _assert_matches_ndimage(_window(spec, mask))

    @pytest.mark.parametrize("shape", [(30,), (23, 17), (40, 40), (9, 7, 8)])
    def test_stacked_pass_equals_separate_passes(self, shape, rng):
        # the pair signed_distance stacks, on random masks and on full ones,
        # whose in-cells stop sweeping early, and a stack of three
        full = np.pad(np.ones(shape, dtype=bool), 1)
        stacks = [np.stack([~full, full]), np.stack([~full, full, ~full])]
        for fill in (0.05, 0.5, 0.95):
            cells = np.pad(rng.random(shape) < fill, 1)
            cells.flat[len(cells.flat) // 2] = True
            stacks.append(np.stack([~cells, cells]))
        for stack in stacks:
            alone = [grid._squared_distance_to(mask[None])[0] for mask in stack]
            assert np.array_equal(grid._squared_distance_to(stack), np.stack(alone))

    @pytest.mark.parametrize("extent", [(128, 128), (20, 20, 20)])
    @pytest.mark.parametrize("fill", [0.05, 0.5, 0.95])
    def test_matches_ndimage_route_on_random_masks(self, extent, fill, rng):
        spec = GridSpec(len(extent), (0.0,) * len(extent), extent, 1.0 / extent[0])
        mask = rng.random(extent) < fill
        mask.flat[0] = True
        _assert_matches_ndimage(_window(spec, mask))

    @pytest.mark.parametrize("n", [32, 64, 128, 512])
    def test_matches_ndimage_route_on_strip_scan_squares(self, n):
        # strip-scan's full unit squares, where every distance is to the box
        _assert_matches_ndimage(full_window(GridSpec(2, (0.0, 0.0), (n, n), 1.0 / n)))

    def test_exact_value_3d_full_window(self):
        spec = GridSpec(3, (0.5, -1.0, 2.0), (3, 3, 3), 0.25)
        sd = signed_distance(full_window(spec)).values
        assert sd[1, 1, 1] == pytest.approx(-1.5 * spec.h, rel=1e-15)

    def test_empty_window_raises(self):
        spec = _spec2(4)
        with pytest.raises(DegenerateDomain):
            signed_distance(_window(spec, np.zeros(spec.extent, dtype=bool)))

    def test_full_window_measures_to_box_surface(self):
        spec = GridSpec(2, (0.0, 0.0), (4, 4), 0.25)
        sd = signed_distance(full_window(spec)).values
        assert np.isclose(sd[0, 0], -0.125)
        assert np.isclose(sd[1, 1], -0.375)

    @given(r1=st.floats(-0.9, 0.9), r2=st.floats(-0.9, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_sublevel_monotone(self, r1, r2):
        spec = GridSpec(2, (0.0, 0.0), (6, 6), 0.25)
        mask = np.zeros(spec.extent, dtype=bool)
        mask[1:5, 2:6] = True
        win = _window(spec, mask)
        lo, hi = sorted((r1, r2))
        a = sublevel_window(win, lo).omega
        b = sublevel_window(win, hi).omega
        assert not np.any(a & ~b)

    def test_tubular_equals_sublevel_difference(self):
        spec = _spec2(8, 0.25)
        mask = np.zeros(spec.extent, dtype=bool)
        mask[2:7, 1:6] = True
        win = _window(spec, mask)
        rho = 0.3
        tube = tubular_neighborhood(win, rho)
        expect = sublevel_window(win, rho).omega & ~sublevel_window(win, -rho).omega
        assert np.array_equal(tube, expect)


class TestShapes:
    def test_ball_area(self):
        spec = GridSpec(2, (-1.0, -1.0), (64, 64), 2.0 / 64)
        E = cellset_from_shape(spec, {"shape": "ball", "center": [0, 0], "radius": 0.7})
        area = E.inside.sum() * spec.h**2
        assert abs(area - np.pi * 0.49) < 0.02

    def test_union_and_complement(self):
        spec = GridSpec(1, (0.0,), (10,), 0.1)
        doc = {
            "union": [
                {"shape": "ball", "center": [0.2], "radius": 0.1},
                {"shape": "ball", "center": [0.8], "radius": 0.1},
            ]
        }
        E = cellset_from_shape(spec, doc)
        F = cellset_from_shape(spec, {"complement": doc})
        assert np.array_equal(E.inside, ~F.inside)

    def test_window_from_shape_policy(self):
        spec = _spec2(6)
        win = window_from_shape(spec, {"shape": "full"})
        assert win.omega.all()
        assert isinstance(win.complement_policy, AnalyticTail)

    def test_unknown_shape_raises(self):
        spec = _spec2(4)
        with pytest.raises(InvalidShape):
            cellset_from_shape(spec, {"shape": "torus"})

    @pytest.mark.parametrize("doc", [
        {"shape": "ball", "center": [0.5, 0.5]},
        {"union": 3},
        {"shape": "subgraph",
         "heights": {"dim": 1, "extent": [4], "h": 0.25, "values": [0.5] * 4}},
    ], ids=["ball_without_radius", "union_of_int", "heights_without_origin"])
    def test_incomplete_shape_raises(self, doc):
        spec = _spec2(4)
        with pytest.raises(InvalidShape):
            cellset_from_shape(spec, doc)


class TestGridFile:
    def test_round_trip(self, tmp_path, rng):
        spec = GridSpec(2, (0.5, -0.25), (5, 7), 0.125)
        E = CellSet(spec, rng.random(spec.extent) < 0.4)
        path = tmp_path / "set.fracgrid"
        write_grid_file(path, E)
        back = read_grid_file(path)
        assert back.spec == spec
        assert np.array_equal(back.inside, E.inside)

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "bad.fracgrid"
        path.write_text("nonsense 2 2 2 0.5 0 0\n0101\n")
        with pytest.raises(InvalidShape):
            read_grid_file(path)

    @pytest.mark.parametrize("header", [
        "fracgrid", "fracgrid 2 4", "fracgrid 2 2 2 0.5 0.0", "fracgrid two 2 2 0.5 0.0 0.0",
        "fracgrid 2 2 2 half 0.0 0.0",
    ])
    def test_malformed_header_raises(self, tmp_path, header):
        path = tmp_path / "bad.fracgrid"
        path.write_text(header + "\n0101\n")
        with pytest.raises(InvalidShape):
            read_grid_file(path)

    def test_truncated_body_raises(self, tmp_path):
        path = tmp_path / "short.fracgrid"
        path.write_text("fracgrid 2 2 2 0.5 0.0 0.0\n01\n")
        with pytest.raises(InvalidShape):
            read_grid_file(path)
