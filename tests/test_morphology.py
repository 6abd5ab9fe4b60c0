"""Component labeling, distance transforms, throat statistics, calibration.

Reference implementations used here are deliberately naive: scan-order
flood fill for components, all-pairs minimum distance for the distance
transform, and a quadratic covering-ball sweep for local thickness.
"""

import json
import logging
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drt import (
    BadParams,
    IntensityThroatCalibration,
    NoPoreVoxels,
    TooFewPoints,
    Volume,
    VolumeHeader,
    apply_calibration,
    binary_mask,
    connected_components,
    euclidean_distance_transform,
    fit_intensity_calibration,
    local_thickness,
    make_phantom,
    PoreThroatDistribution,
    throat_distribution,
)
from drt.morphology import (_ball, _chord_plan, _containing_r2, _paint,
                            _paint_chords, _painted_r2, _pore_throat_distribution,
                            _prominent_peaks, _squared_distances, _STRUCTS,
                            _uncontained)

from conftest import PIECES

_OFFSETS_6 = [(0, 0, 1), (0, 0, -1), (0, 1, 0), (0, -1, 0), (1, 0, 0), (-1, 0, 0)]
_OFFSETS_26 = [(dz, dy, dx)
               for dz in (-1, 0, 1) for dy in (-1, 0, 1) for dx in (-1, 0, 1)
               if (dz, dy, dx) != (0, 0, 0)]


def flood_components(mask, connectivity):
    """Depth-first flood fill, assigning ids in flat scan order."""
    offsets = _OFFSETS_6 if connectivity == 6 else _OFFSETS_26
    nz, ny, nx = mask.shape
    comp = np.zeros(mask.shape, dtype=np.int32)
    next_id = 0
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if not mask[z, y, x] or comp[z, y, x]:
                    continue
                next_id += 1
                stack = [(z, y, x)]
                comp[z, y, x] = next_id
                while stack:
                    cz, cy, cx = stack.pop()
                    for dz, dy, dx in offsets:
                        tz, ty, tx = cz + dz, cy + dy, cx + dx
                        if (0 <= tz < nz and 0 <= ty < ny and 0 <= tx < nx
                                and mask[tz, ty, tx] and not comp[tz, ty, tx]):
                            comp[tz, ty, tx] = next_id
                            stack.append((tz, ty, tx))
    return comp, next_id


def edt_reference(mask):
    """Minimum distance to background by checking every background voxel."""
    out = np.zeros(mask.shape, dtype=np.float64)
    bg = np.argwhere(mask == 0)
    if bg.size == 0:
        out[:] = np.inf
        return out
    for v in np.argwhere(mask != 0):
        d2 = ((bg - v) ** 2).sum(axis=1)
        out[tuple(v)] = math.sqrt(int(d2.min()))
    return out


def thickness_reference(mask, vs):
    """thickness(v) = 2*vs*max{ r(c) : |c-v| <= r(c) } over all centers c."""
    out = np.zeros(mask.shape, dtype=np.float64)
    fg = np.argwhere(mask != 0)
    if fg.size == 0:
        return out
    bg = np.argwhere(mask == 0)
    if bg.size == 0:
        out[:] = np.inf
        return out
    r2 = np.empty(len(fg), dtype=np.int64)
    for i, c in enumerate(fg):
        r2[i] = ((bg - c) ** 2).sum(axis=1).min()
    for v in fg:
        d2 = ((fg - v) ** 2).sum(axis=1)
        covered = r2[d2 <= r2]
        out[tuple(v)] = 2.0 * vs * math.sqrt(int(covered.max()))
    return out


def paint_every_voxel(mask, vs):
    """local_thickness with every foreground voxel painted as a centre."""
    fg = mask != 0
    sq = _squared_distances(fg)
    th2 = np.where(fg, _paint(fg, sq[fg], *_ball(fg.shape, int(sq.max()))), 0)
    return 2.0 * vs * np.sqrt(th2.astype(np.float64))


def held_balls(r2):
    """The centres of the r² grid r2 whose ball, clipped to the volume, lies
    in the ball of a centre among their 26 neighbours, voxel by voxel."""
    grid = np.indices(r2.shape).reshape(3, -1).T
    held = np.zeros(r2.shape, dtype=bool)
    for c in np.argwhere(r2 > 0):
        ball = grid[((grid - c) ** 2).sum(axis=1) <= r2[tuple(c)]]
        for d in _OFFSETS_26:
            n = c + d
            if ((n >= 0) & (n < r2.shape)).all() and r2[tuple(n)] > 0 and (
                    ((ball - n) ** 2).sum(axis=1) <= r2[tuple(n)]).all():
                held[tuple(c)] = True
                break
    return held


def throat_distribution_per_voxel(thickness, cutoffs=(10.0, 100.0), n_bins=32):
    """throat_distribution as it was before it binned distinct levels: the
    histogram and band fractions of every positive finite voxel value."""
    t_micro_um, t_macro_um = (float(c) for c in cutoffs)
    values = np.asarray(thickness.data, dtype=np.float64).ravel()
    values = values[np.isfinite(values) & (values > 0)]
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        lo, hi = lo / 1.01, hi * 1.01
    edges = np.geomspace(lo, hi, n_bins + 1)
    edges[0], edges[-1] = lo, hi
    counts, _ = np.histogram(values, bins=edges)
    f_micro = float(np.mean(values < t_micro_um))
    f_macro = float(np.mean(values > t_macro_um))
    centers = np.sqrt(edges[:-1] * edges[1:])
    peaks = [float(centers[i])
             for i in _prominent_peaks(counts, 0.05 * values.size)]
    return PoreThroatDistribution(
        bin_edges_um=edges, counts=counts, n_values=int(values.size),
        f_micro=f_micro, f_meso=1.0 - f_micro - f_macro, f_macro=f_macro,
        t_micro_um=t_micro_um, t_macro_um=t_macro_um, peaks_um=peaks)


def sphere_mask(shape, centres, radii):
    """Union of balls; centres may lie outside the box, balls may be cut."""
    grid = np.indices(shape)
    mask = np.zeros(shape, dtype=bool)
    for c, r in zip(centres, radii):
        mask |= ((grid - np.reshape(c, (3, 1, 1, 1))) ** 2).sum(axis=0) <= r * r
    return mask


def label_volume(data, voxel_size=1.0):
    nz, ny, nx = np.asarray(data).shape
    header = VolumeHeader(dims=(nx, ny, nz), voxel_size_um=voxel_size,
                          value_kind="label", element_encoding="u8")
    return Volume(header=header, data=np.asarray(data, dtype=np.uint8))


def thickness_volume(data, voxel_size=1.0):
    nz, ny, nx = np.asarray(data).shape
    header = VolumeHeader(dims=(nx, ny, nz), voxel_size_um=voxel_size,
                          value_kind="throat_size", element_encoding="f32")
    return Volume(header=header, data=np.asarray(data, dtype=np.float32))


class TestBinaryMask:
    def test_single_class(self):
        labels = label_volume([[[0, 1], [2, 0]], [[1, 1], [0, 2]]])
        for class_id in (0, np.uint8(0), [np.int64(0)]):
            mask = binary_mask(labels, class_id)
            np.testing.assert_array_equal(mask.data,
                                          [[[1, 0], [0, 1]], [[0, 0], [1, 0]]])

    def test_class_set(self):
        labels = label_volume([[[0, 1], [2, 0]], [[1, 1], [0, 2]]])
        mask = binary_mask(labels, {0, 2})
        np.testing.assert_array_equal(mask.data,
                                      [[[1, 0], [1, 1]], [[0, 0], [1, 1]]])

    def test_rejects_empty_set(self):
        labels = label_volume(np.zeros((2, 2, 2)))
        with pytest.raises(BadParams):
            binary_mask(labels, set())

    @pytest.mark.parametrize("classes", [{-1}, [0, -1], {0.7}, {"0"}, "0", 0.0])
    def test_rejects_ids_that_are_not_integers_from_zero(self, classes):
        labels = label_volume(np.zeros((2, 2, 2)))
        with pytest.raises(BadParams, match="class ids must be"):
            binary_mask(labels, classes)

    @pytest.mark.parametrize("piece", PIECES)
    @pytest.mark.parametrize("ids", [[0, 2], range(255), range(0, 255, 3)])
    @pytest.mark.parametrize("dtype", [np.uint8, np.float32])
    def test_pieces_equal_one_whole_volume_isin(self, piece, ids, dtype):
        # past some 50 ids np.isin sorts instead of comparing; either way a
        # piece's mask is the whole volume's
        data = np.random.default_rng(7).integers(0, 256, (9, 5, 6)).astype(dtype)
        if dtype == np.float32:
            data.flat[:4] = (np.nan, -1.0, 0.5, 2.5)
        labels = Volume(header=VolumeHeader((6, 5, 9), 1.0, "label", "f32"),
                        data=data)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("drt.volume.PIECE", piece)
            got = binary_mask(labels, ids).data
        assert got.dtype == bool
        np.testing.assert_array_equal(got, np.isin(data, list(ids)))

    def test_many_ids_are_tested_a_piece_at_a_time(self, monkeypatch):
        # a whole-volume sort of 255 ids would hold some 20 B/voxel; a
        # one-plane piece holds the bool mask and little more
        labels = label_volume(
            np.random.default_rng(3).integers(0, 256, (64, 64, 64), dtype=np.uint8))
        monkeypatch.setattr("drt.volume.PIECE", 64 * 64)
        binary_mask(labels, range(255))  # numpy's first-use imports
        tracemalloc.start()
        try:
            binary_mask(labels, range(255))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 64 ** 3 < 2.0


class TestConnectedComponents:
    @settings(max_examples=120, deadline=None)
    @given(shape=st.tuples(*[st.integers(1, 14)] * 3),
           pore_fraction=st.floats(0.0, 1.0),
           connectivity=st.sampled_from([6, 26]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_flood_fill_on_random_masks(self, shape, pore_fraction,
                                                connectivity, seed):
        # scipy's ids are taken as they come, so this is what pins them to
        # first-voxel scan order
        mask = np.random.default_rng(seed).random(shape) < pore_fraction
        mask = mask.astype(np.uint8)
        got = connected_components(label_volume(mask), connectivity)
        want, n_want = flood_components(mask, connectivity)
        assert got.n_components == n_want
        np.testing.assert_array_equal(got.volume.data, want)
        np.testing.assert_array_equal(got.sizes, np.bincount(want.ravel())[1:])

    @settings(max_examples=120, deadline=None)
    @given(shape=st.tuples(*[st.integers(1, 10)] * 3),
           n_labels=st.integers(1, 5),
           classes=st.sets(st.integers(0, 5), min_size=1),
           connectivity=st.sampled_from([6, 26]),
           seed=st.integers(0, 2**32 - 1))
    def test_class_set_masks_match_flood_fill(self, shape, n_labels, classes,
                                              connectivity, seed):
        data = np.random.default_rng(seed).integers(0, n_labels, shape)
        got = connected_components(binary_mask(label_volume(data), classes),
                                   connectivity)
        mask = np.zeros(shape, dtype=bool)
        for c in classes:
            mask |= data == c
        want, n_want = flood_components(mask, connectivity)
        assert got.n_components == n_want
        np.testing.assert_array_equal(got.volume.data, want)
        np.testing.assert_array_equal(
            got.sizes, np.bincount(want.ravel(), minlength=n_want + 1)[1:])
        faces = [want[:, :, 0], want[:, :, -1], want[:, 0, :], want[:, -1, :],
                 want[0], want[-1]]
        touch = [[i in face for face in faces] for i in range(1, n_want + 1)]
        np.testing.assert_array_equal(
            got.face_touch, np.array(touch, dtype=bool).reshape(n_want, 6))

    def test_ids_follow_first_scan_encounter(self):
        data = np.ones((3, 3, 3), dtype=np.uint8)
        data[2, 2, 0] = 0  # later in scan order
        data[0, 0, 2] = 0  # earlier in scan order
        got = connected_components(label_volume(data == 0), 6)
        assert got.volume.data[0, 0, 2] == 1
        assert got.volume.data[2, 2, 0] == 2

    def test_diagonal_pair_connectivity(self):
        data = np.ones((3, 3, 3), dtype=np.uint8)
        data[0, 0, 0] = 0
        data[1, 1, 1] = 0
        mask = label_volume(data == 0)
        assert connected_components(mask, 26).n_components == 1
        assert connected_components(mask, 6).n_components == 2

    def test_sizes(self):
        data = np.ones((4, 4, 4), dtype=np.uint8)
        data[0, 0, 0:3] = 0
        data[3, 3, 3] = 0
        got = connected_components(label_volume(data == 0), 6)
        assert got.sizes.tolist() == [3, 1]

    def test_empty_foreground_yields_zero_components(self):
        data = np.ones((3, 3, 3), dtype=np.uint8)
        got = connected_components(label_volume(data == 0), 26)
        assert got.n_components == 0
        assert got.largest_component() == 0
        assert (got.volume.data == 0).all()

    def test_multi_class_foreground(self):
        data = np.full((3, 3, 3), 2, dtype=np.uint8)
        data[0, 0, 0] = 0
        data[0, 0, 1] = 1
        got = connected_components(binary_mask(label_volume(data), {0, 1}), 6)
        assert got.n_components == 1
        assert got.sizes.tolist() == [2]

    def test_rejects_bad_connectivity(self):
        with pytest.raises(BadParams):
            connected_components(label_volume(np.ones((3, 3, 3))), 18)

    @pytest.mark.parametrize("connectivity, rank", [(6, 1), (26, 3)])
    def test_structures_equal_scipy(self, connectivity, rank):
        from scipy import ndimage
        expected = ndimage.generate_binary_structure(3, rank)
        assert _STRUCTS[connectivity].dtype == expected.dtype
        assert np.array_equal(_STRUCTS[connectivity], expected)

    def test_percolation_flags(self):
        data = np.ones((5, 5, 5), dtype=np.uint8)
        data[2, 2, :] = 0  # a column spanning x
        got = connected_components(label_volume(data == 0), 6)
        assert got.n_components == 1
        assert got.percolates("x").tolist() == [True]
        assert got.percolates("y").tolist() == [False]
        assert got.percolates("z").tolist() == [False]
        assert got.percolates_any_axis().tolist() == [True]

    def test_largest_component_prefers_lowest_id_on_tie(self):
        data = np.ones((4, 4, 4), dtype=np.uint8)
        data[0, 0, 0] = 0
        data[3, 3, 3] = 0
        got = connected_components(label_volume(data == 0), 6)
        assert got.sizes.tolist() == [1, 1]
        assert got.largest_component() == 1

    def test_component_volume_metadata(self):
        data = np.zeros((3, 3, 3), dtype=np.uint8)
        got = connected_components(label_volume(data == 0), 26)
        assert got.volume.header.value_kind == "label"
        assert got.volume.header.element_encoding == "u16"


class TestDistanceTransform:
    def test_matches_all_pairs_reference(self):
        rng = np.random.default_rng(1)
        for trial in range(6):
            mask = (rng.random((7, 7, 7)) < 0.5).astype(np.uint8)
            got = euclidean_distance_transform(label_volume(mask))
            want = edt_reference(mask)
            np.testing.assert_allclose(got.data, want, atol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(shape=st.tuples(*[st.integers(1, 19)] * 3),
           pore_fraction=st.sampled_from([0.0, 0.2, 0.5, 0.8, 0.99]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_scipy_edt_bit_for_bit(self, shape, pore_fraction, seed):
        from scipy import ndimage
        mask = np.random.default_rng(seed).random(shape) < pore_fraction
        mask.flat[0] = False  # scipy has no +inf sentinel for no background
        got = euclidean_distance_transform(label_volume(mask)).data
        want = ndimage.distance_transform_edt(mask)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_background_is_zero(self):
        mask = np.zeros((4, 4, 4), dtype=np.uint8)
        mask[1, 1, 1] = 1
        got = euclidean_distance_transform(label_volume(mask))
        assert got.data[0, 0, 0] == 0.0
        assert got.data[1, 1, 1] == 1.0

    def test_all_foreground_is_infinite(self):
        got = euclidean_distance_transform(label_volume(np.ones((3, 3, 3))))
        assert np.isinf(got.data).all()

    def test_all_background_is_zero(self):
        got = euclidean_distance_transform(label_volume(np.zeros((3, 3, 3))))
        assert (got.data == 0).all()

    def test_known_column(self):
        mask = np.zeros((1, 1, 7), dtype=np.uint8)
        mask[0, 0, 1:6] = 1
        got = euclidean_distance_transform(label_volume(mask))
        np.testing.assert_allclose(got.data[0, 0], [0, 1, 2, 3, 2, 1, 0])

    def test_output_metadata(self):
        got = euclidean_distance_transform(label_volume(np.zeros((3, 3, 3))))
        assert got.header.value_kind == "distance"
        assert got.header.element_encoding == "f32"


_axis = st.one_of(st.integers(1, 2), st.integers(1, 40))


def rounded_float_edt(fg):
    """The squared scipy EDT rounded to integers: exact r² by another route."""
    from scipy import ndimage
    return np.rint(ndimage.distance_transform_edt(fg) ** 2)


def whole_volume_squared_distances(fg):
    """_squared_distances as it was before its y and z passes ran in pieces:
    each pass over the whole volume, with whole-volume buffers, stopped at
    the volume's max."""
    shape = fg.shape
    nx = shape[-1]
    big = sum((n - 1) ** 2 for n in shape) + 1
    dtype = np.min_scalar_type(big + max(shape) ** 2)
    index = np.min_scalar_type(-2 * nx)
    x = np.arange(nx, dtype=index)
    left = np.where(fg, index.type(-nx), x)
    np.maximum.accumulate(left, axis=-1, out=left)
    np.subtract(x, left, out=left)
    right = np.where(fg, index.type(2 * nx - 1), x)
    np.minimum.accumulate(right[..., ::-1], axis=-1, out=right[..., ::-1])
    np.subtract(right, x, out=right)
    np.minimum(left, right, out=left)
    g = left.astype(dtype)
    far = left >= nx
    np.multiply(g, g, out=g, where=~far)
    g[far] = big
    out = np.empty_like(g)
    scratch = np.empty_like(g)
    for axis in (1, 0):
        np.copyto(out, g)
        n = shape[axis]
        s = 1
        while s < n:
            if s % 4 == 1 and s * s >= out.max():
                break
            lo = (slice(None),) * axis + (slice(None, -s),)
            hi = (slice(None),) * axis + (slice(s, None),)
            tmp = scratch[lo]
            np.add(g[lo], s * s, out=tmp)
            np.minimum(out[hi], tmp, out=out[hi])
            np.add(g[hi], s * s, out=tmp)
            np.minimum(out[lo], tmp, out=out[lo])
            s += 1
        g, out = out, g
    return g


# masks whose passes hold uint8 or uint16, and masks whose long axes need
# uint32
_edt_shapes = {
    "uint8 or uint16": st.tuples(*[st.integers(1, 19)] * 3),
    "uint32": st.tuples(st.integers(1, 3), st.integers(150, 156),
                        st.integers(150, 156)),
}


class TestSquaredDistances:
    @pytest.mark.parametrize("dtype", sorted(_edt_shapes))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), density=st.sampled_from([0.0, 0.3, 0.9, 0.999, 1.0]),
           seed=st.integers(0, 2**32 - 1),
           piece=st.sampled_from(PIECES))
    def test_pieces_equal_whole_volume_passes(self, dtype, data, density, seed,
                                              piece):
        shape = data.draw(_edt_shapes[dtype])
        fg = np.random.default_rng(seed).random(shape) < density
        want = whole_volume_squared_distances(fg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("drt.volume.PIECE", piece)
            got = _squared_distances(fg)
        assert got.dtype == want.dtype and got.dtype.name in dtype
        assert got.tobytes() == want.tobytes()

    def test_uint32_passes(self, caplog):
        # 39² + 2·149² + 1 + 150² > 2**16: the passes hold g in uint32
        fg = np.ones((40, 150, 150), dtype=bool)
        fg[0, 0, 0] = False
        with caplog.at_level(logging.DEBUG, logger="drt.morphology"):
            got = _squared_distances(fg)
        assert "uint32" in caplog.records[0].getMessage()
        assert got.max() == 39**2 + 2 * 149**2
        np.testing.assert_array_equal(got, rounded_float_edt(fg))

    def test_logs_shape_dtype_and_shifts_at_debug(self, caplog):
        # a hollow box whose r² is at most 4: y runs to the end of its axis,
        # and z stops at the check before shift 5, as 5² >= 4, not after 19
        fg = np.ones((20, 5, 5), dtype=bool)
        fg[[0, -1]] = False
        fg[:, [0, -1]] = False
        fg[..., [0, -1]] = False
        with caplog.at_level(logging.DEBUG, logger="drt.morphology"):
            _squared_distances(fg)
        assert [r.getMessage() for r in caplog.records] == [
            "squared EDT: shape (20, 5, 5), uint16, 4 y shifts, 4 z shifts"]

    def test_memory_below_8_bytes_per_voxel(self):
        # the passes hold at most three uint16 grids, and the result is the
        # last of them: about 6 bytes per voxel. An int32 copy of the result
        # took it to 8
        _, labels = make_phantom("sphere_pack", (64, 64, 64), n_spheres=40,
                                 radius_range=(4.0, 12.0), seed=1)
        fg = labels.data == 0
        tracemalloc.start()
        try:
            _squared_distances(fg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * fg.size

    def test_uint32_memory_below_10_bytes_per_voxel(self):
        # the y and z passes run in pieces, so g is their one whole grid; the
        # x pass's two int16 index grids, g and its row mask set the peak, 9.0
        # bytes per voxel. Whole-volume out and scratch grids took it to 12
        _, labels = make_phantom("sphere_pack", (160, 160, 40), n_spheres=60,
                                 radius_range=(4.0, 12.0), seed=1)
        fg = labels.data == 0
        tracemalloc.start()
        try:
            g = _squared_distances(fg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.dtype == np.uint32
        assert peak <= 10 * fg.size


class TestLocalThickness:
    def test_matches_quadratic_reference(self):
        rng = np.random.default_rng(2)
        for trial in range(6):
            mask = (rng.random((8, 8, 8)) < 0.4).astype(np.uint8)
            if not mask.any():
                continue
            got = local_thickness(label_volume(mask))
            want = thickness_reference(mask, 1.0)
            np.testing.assert_allclose(got.data, want, rtol=1e-6)

    @settings(max_examples=80, deadline=None)
    @given(shape=st.tuples(*[st.integers(1, 12)] * 3),
           pore_fraction=st.floats(0.0, 0.999),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_quadratic_reference_on_random_masks(self, shape,
                                                         pore_fraction, seed):
        # near-full masks give balls wider than an axis, so the padding
        # and the offsets dropped beyond it are exercised
        mask = np.random.default_rng(seed).random(shape) < pore_fraction
        mask = mask.astype(np.uint8)
        got = local_thickness(label_volume(mask))
        np.testing.assert_array_equal(got.data, thickness_reference(mask, 1.0))

    @settings(max_examples=150, deadline=None)
    @given(shape=st.tuples(_axis, _axis, _axis),
           flat_axis=st.sampled_from([None, 0, 1, 2]),
           pore_fraction=st.one_of(st.floats(0.0, 1.0), st.floats(0.99, 1.0)),
           lone=st.sampled_from([None, "corner", "centre"]),
           seed=st.integers(0, 2**32 - 1))
    def test_squared_radii_equal_rounded_float_edt(self, shape, flat_axis,
                                                   pore_fraction, lone, seed):
        # the float EDT squared and rounded to the nearest integer is an
        # independent route to the same exact r²; a lone background voxel
        # gives the longest distances, rows and planes without background,
        # and the most shifts
        if flat_axis is not None:
            shape = shape[:flat_axis] + (1,) + shape[flat_axis + 1:]
        rng = np.random.default_rng(seed)
        fg = rng.random(shape) < pore_fraction
        fg.flat[rng.integers(fg.size)] = False  # at least one background voxel
        if lone is not None:
            fg = np.ones(shape, dtype=bool)
            centre = tuple(n // 2 for n in shape)
            fg[(0, 0, 0) if lone == "corner" else centre] = False
        got = _squared_distances(fg)
        # the narrowest unsigned type that holds the sentinel plus n²
        big = sum((n - 1) ** 2 for n in shape) + 1
        assert got.dtype == np.min_scalar_type(big + max(shape) ** 2)
        assert got.dtype.kind == "u"
        np.testing.assert_array_equal(got, rounded_float_edt(fg))

    def test_voxel_size_scales_output(self):
        mask = np.zeros((5, 5, 5), dtype=np.uint8)
        mask[2, 2, 2] = 1
        a = local_thickness(label_volume(mask, voxel_size=1.0))
        b = local_thickness(label_volume(mask, voxel_size=2.5))
        np.testing.assert_allclose(b.data, 2.5 * a.data, rtol=1e-6)

    def test_isolated_voxel(self):
        mask = np.zeros((5, 5, 5), dtype=np.uint8)
        mask[2, 2, 2] = 1
        got = local_thickness(label_volume(mask))
        assert got.data[2, 2, 2] == pytest.approx(2.0)
        assert got.data.sum() == pytest.approx(2.0)

    def test_sphere_mode_near_diameter(self):
        r = 6
        n = 2 * r + 9
        c = n // 2
        zz, yy, xx = np.mgrid[0:n, 0:n, 0:n]
        mask = ((zz - c) ** 2 + (yy - c) ** 2 + (xx - c) ** 2 <= r * r)
        got = local_thickness(label_volume(mask.astype(np.uint8)))
        vals = got.data[mask]
        uniq, counts = np.unique(np.round(vals, 5), return_counts=True)
        mode = uniq[np.argmax(counts)]
        assert abs(mode - 2 * r) <= 1.0

    def test_empty_mask_is_zero(self):
        got = local_thickness(label_volume(np.zeros((4, 4, 4))))
        assert (got.data == 0).all()

    def test_full_mask_is_infinite(self):
        got = local_thickness(label_volume(np.ones((4, 4, 4))))
        assert np.isinf(got.data).all()

    def test_output_metadata(self):
        got = local_thickness(label_volume(np.zeros((4, 4, 4))))
        assert got.header.value_kind == "throat_size"

    @settings(max_examples=150, deadline=None)
    @given(shape=st.tuples(_axis, _axis, _axis),
           kind=st.sampled_from(["spheres", "random"]),
           pore_fraction=st.floats(0.05, 0.9),
           voxel_size=st.sampled_from([1.0, 0.37, 2.5]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_painting_every_voxel(self, shape, kind, pore_fraction,
                                         voxel_size, seed):
        rng = np.random.default_rng(seed)
        if kind == "spheres":
            n = int(rng.integers(1, 12))
            mask = sphere_mask(shape, rng.uniform(-2, np.array(shape) + 2, (n, 3)),
                               rng.uniform(0.5, 8.0, n))
        else:
            mask = rng.random(shape) < pore_fraction
        got = local_thickness(label_volume(mask, voxel_size)).data
        if 0 < mask.sum() < mask.size:
            want = paint_every_voxel(mask, voxel_size)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(shape=st.tuples(*[st.integers(1, 16)] * 3),
           n_background=st.integers(1, 3),
           voxel_size=st.sampled_from([1.0, 0.5]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_painting_every_voxel_near_full(self, shape, n_background,
                                                   voxel_size, seed):
        # balls wider than the volume, clipped at its faces as chords and
        # as the oracle's offset box. Kept at 16 per axis: the oracle grows
        # as n⁶ here
        rng = np.random.default_rng(seed)
        mask = np.ones(shape, dtype=bool)
        mask.flat[rng.integers(mask.size, size=n_background)] = False
        got = local_thickness(label_volume(mask, voxel_size)).data
        if mask.any():
            want = paint_every_voxel(mask, voxel_size)
            assert got.tobytes() == want.tobytes()

    def test_logs_counts_at_debug(self, caplog):
        mask = sphere_mask((21, 21, 21), [(10, 10, 10)], [6])
        with caplog.at_level(logging.DEBUG, logger="drt.morphology"):
            local_thickness(label_volume(mask))
        [line] = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("local thickness")]
        # one chord entry per painted centre and (dz, dy) with dz² + dy² <=
        # r²; no ball reaches a face, so the painted centres are those whose
        # ball no neighbour's holds
        sq = _squared_distances(mask)
        painted = sq[mask & ~held_balls(sq)]
        e = (np.arange(-6, 7)[:, None] ** 2 + np.arange(-6, 7) ** 2).ravel()
        entries = int((e[:, None] <= painted).sum())
        assert painted.max() == 37  # (6, 1, 0) is the nearest background
        assert line == (f"local thickness: {mask.sum()} pore voxels, "
                        f"{painted.size} of their balls painted, "
                        f"{np.unique(painted).size} r2 groups, {entries} chord "
                        f"entries in 7 levels")

    def test_memory_grows_with_the_voxels_not_the_ball(self):
        # one background voxel gives balls as wide as the volume: a table
        # of their 3-D offsets, (2n - 1)³ of them, takes about 10 MiB here,
        # while the paint grids hold a few bytes per voxel, 1.4 MiB in all.
        # Kept at 24³, as tracemalloc slows the painting about eightfold
        mask = np.ones((24, 24, 24), dtype=np.uint8)
        mask[0, 0, 0] = 0
        tracemalloc.start()
        try:
            local_thickness(label_volume(mask))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


class TestPaintChords:
    def test_levels_hold_no_grid_of_the_centres(self, monkeypatch):
        # the analyze_coarse_96 labels of seed 3 (bench/workloads.py), whose
        # r² needs uint16: the chord levels set _painted_r2's peak with the
        # padded grid, the output and the widening buffer, 8.9 B/voxel.
        # Holding the centres' mask through the levels took 9.9, and the r²
        # grid would add 2 more. On seeds 1 and 2 the squared EDT sets the
        # peak, 7.0 B/voxel
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        import workloads
        params = workloads.WORKLOADS["analyze_coarse_96"]
        fg = workloads.sphere_pack(params["dims"], 3, params["n_spheres"],
                                   params["radius_range"]) == 0
        # no frame may hold the r² grid while the levels run, as a caller
        # holds its call's arguments until it returns up to Python 3.10
        grids = []

        def squared_distances(fg):
            grids.append(weakref.ref(r2 := _squared_distances(fg)))
            return r2

        def paint_chords(*plan):
            assert [grid() for grid in grids] == [None]
            return _paint_chords(*plan)

        monkeypatch.setattr("drt.morphology._squared_distances",
                            squared_distances)
        monkeypatch.setattr("drt.morphology._paint_chords", paint_chords)
        tracemalloc.start()
        try:
            th2 = _painted_r2(fg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert th2.dtype == np.uint16
        assert peak <= 9.5 * fg.size

    @settings(max_examples=150, deadline=None)
    @given(shape=st.tuples(_axis, _axis, _axis),
           n_centres=st.integers(1, 64),
           r2_max=st.one_of(st.sampled_from([1, 2, 3, 255, 256]),
                            st.integers(1, 300)),
           seed=st.integers(0, 2**32 - 1), piece=st.sampled_from(PIECES))
    def test_equals_ball_scatter(self, shape, n_centres, r2_max, seed, piece):
        # any centres and radii, not only pore voxels: balls cross every face,
        # and r2_max on each side of 255 switches the grid from u8 to u16
        rng = np.random.default_rng(seed)
        centres = np.zeros(shape, dtype=bool)
        centres.flat[rng.integers(centres.size, size=n_centres)] = True
        r2 = rng.integers(1, r2_max + 1, np.count_nonzero(centres))
        r2[rng.integers(r2.size)] = r2_max
        r2 = r2.astype(np.int32)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("drt.volume.PIECE", piece)
            grid = np.zeros(shape, dtype=r2.dtype)
            grid[centres] = r2
            got = _paint_chords(shape, *_chord_plan(grid))
        want = _paint(centres, r2, *_ball(shape, r2_max))
        assert got.dtype == np.min_scalar_type(r2_max)
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(shape=st.tuples(*[st.integers(1, 7)] * 3),
           n_centres=st.integers(1, 40), r2_max=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1), piece=st.sampled_from(PIECES))
    def test_drops_only_balls_a_neighbour_holds(self, shape, n_centres, r2_max,
                                                seed, piece):
        # any centres and radii, balls wider than the volume included
        rng = np.random.default_rng(seed)
        r2 = np.zeros(shape, dtype=np.int32)
        r2.flat[rng.integers(r2.size, size=n_centres)] = rng.integers(
            1, r2_max + 1, n_centres)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("drt.volume.PIECE", piece)
            kept = _uncontained(r2)
        assert not (kept & (r2 == 0)).any()
        assert not ((r2 > 0) & ~kept & ~held_balls(r2)).any()

    def test_drops_every_held_ball_inside_the_volume(self):
        # balls that reach no face: the neighbours' r² alone decide
        mask = sphere_mask((24, 24, 24), [(11, 11, 12), (11, 14, 9)], [7, 5])
        sq = _squared_distances(mask)
        assert sq.max() < 11 ** 2
        np.testing.assert_array_equal(_uncontained(sq), mask & ~held_balls(sq))

    @pytest.mark.parametrize("shape, r2_max", [((9, 9, 9), 60), ((3, 5, 8), 90),
                                               ((1, 6, 6), 30), ((4, 1, 1), 20)])
    def test_containing_r2_is_the_farthest_offset_from_a_neighbour(self, shape,
                                                                   r2_max):
        d2, steps = _ball(shape, r2_max)
        # the largest |q - d|² over the neighbours d of each kind, then over
        # the offsets q of the ball of each r², and above that r²
        far = np.zeros((3, d2.size), dtype=np.int64)
        for d in _OFFSETS_26:
            k = int(np.abs(d).sum())
            dist = ((steps - np.array(d)[:, None]) ** 2).sum(axis=0)
            np.maximum(far[k - 1], dist, out=far[k - 1])
        last = np.searchsorted(d2, np.arange(r2_max + 1), side="right") - 1
        want = np.maximum(np.maximum.accumulate(far, axis=1)[:, last],
                          np.arange(1, r2_max + 2))
        np.testing.assert_array_equal(_containing_r2(shape, r2_max), want)


class TestThroatDistribution:
    @settings(max_examples=400, deadline=None)
    @given(counts=st.lists(st.integers(0, 4), min_size=1, max_size=34),
           min_prominence=st.one_of(st.integers(0, 5), st.floats(0.0, 6.0)))
    def test_peaks_match_scipy_find_peaks(self, counts, min_prominence):
        # small counts make plateaus and equal bases common
        from scipy.signal import find_peaks
        counts = np.asarray(counts, dtype=np.int64)
        padded = np.concatenate(([0.0], counts, [0.0]))
        want, _ = find_peaks(padded, prominence=min_prominence)
        assert _prominent_peaks(counts, min_prominence) == (want - 1).tolist()

    def bimodal(self):
        rng = np.random.default_rng(3)
        vals = np.zeros(1000)
        vals[:500] = rng.uniform(3.8, 4.2, 500)
        vals[500:] = rng.uniform(48.0, 52.0, 500)
        return thickness_volume(vals.reshape(10, 10, 10))

    def test_band_fractions(self):
        dist = throat_distribution(self.bimodal(), cutoffs=(10.0, 100.0))
        assert dist.f_micro == pytest.approx(0.5)
        assert dist.f_meso == pytest.approx(0.5)
        assert dist.f_macro == pytest.approx(0.0)
        assert dist.fractions == (dist.f_micro, dist.f_meso, dist.f_macro)

    def test_two_peaks_found(self):
        dist = throat_distribution(self.bimodal())
        assert len(dist.peaks_um) == 2
        assert 3.5 < dist.peaks_um[0] < 4.5
        assert 45.0 < dist.peaks_um[1] < 55.0

    def test_zeros_are_excluded(self):
        vals = np.zeros((5, 5, 5))
        vals[0, 0, 0] = 5.0
        vals[0, 0, 1] = 20.0
        dist = throat_distribution(thickness_volume(vals))
        assert dist.n_values == 2

    def test_counts_cover_all_values(self):
        dist = throat_distribution(self.bimodal(), n_bins=16)
        assert dist.counts.sum() == dist.n_values == 1000
        assert len(dist.bin_edges_um) == 17

    def test_constant_values_get_widened_range(self):
        vals = np.full((4, 4, 4), 7.0)
        dist = throat_distribution(thickness_volume(vals))
        assert dist.counts.sum() == 64
        assert dist.bin_edges_um[0] < 7.0 < dist.bin_edges_um[-1]

    def test_no_pore_voxels(self):
        with pytest.raises(NoPoreVoxels):
            throat_distribution(thickness_volume(np.zeros((4, 4, 4))))

    @pytest.mark.parametrize("fill, cause", [(0, "no pore voxel"),
                                             (1, "no solid voxel")])
    def test_uniform_mask_names_its_cause(self, fill, cause):
        mask = label_volume(np.full((4, 4, 4), fill))
        for run in (lambda: _pore_throat_distribution(mask, (10.0, 100.0), 32),
                    lambda: throat_distribution(local_thickness(mask))):
            with pytest.raises(NoPoreVoxels, match=f"^{cause}: "):
                run()

    @settings(max_examples=200, deadline=None)
    @given(shape=st.tuples(*[st.integers(1, 24)] * 3),
           kind=st.sampled_from(["random", "spheres", "isolated"]),
           pore_fraction=st.floats(0.02, 0.98),
           voxel_size=st.sampled_from([0.37, 1.0, 2.5]),
           on_levels=st.one_of(st.none(), st.tuples(st.integers(0, 999),
                                                    st.integers(0, 999))),
           n_bins=st.integers(1, 64),
           seed=st.integers(0, 2**32 - 1))
    def test_levels_equal_per_voxel_values(self, shape, kind, pore_fraction,
                                           voxel_size, on_levels, n_bins,
                                           seed):
        # the level histogram of both entry points against the per-voxel
        # one, exactly; cutoffs may sit on a level, where < and > decide,
        # and isolated pore voxels all have r² = 1, a single level that
        # widens the range
        rng = np.random.default_rng(seed)
        if kind == "random":
            mask = rng.random(shape) < pore_fraction
        elif kind == "spheres":
            n = int(rng.integers(1, 12))
            mask = sphere_mask(shape, rng.uniform(-2, np.array(shape) + 2, (n, 3)),
                               rng.uniform(0.5, 8.0, n))
        else:
            mask = (np.indices(shape) % 2 == 0).all(axis=0)
        volume = label_volume(mask, voxel_size)
        thickness = local_thickness(volume)
        if not 0 < mask.sum() < mask.size:
            for run in (lambda: _pore_throat_distribution(volume, (10.0, 100.0),
                                                      32),
                        lambda: throat_distribution(thickness)):
                with pytest.raises(NoPoreVoxels):
                    run()
            return
        levels = np.unique(thickness.data[mask])
        if kind == "isolated":
            assert levels.tolist() == [2.0 * voxel_size]
        cutoffs = (10.0, 100.0)
        if on_levels is not None:
            lo, hi = sorted(float(levels[i % levels.size]) for i in on_levels)
            cutoffs = (lo, hi if hi > lo else 2 * lo)
        want = throat_distribution_per_voxel(thickness, cutoffs, n_bins)
        for got in (_pore_throat_distribution(volume, cutoffs, n_bins),
                    throat_distribution(thickness, cutoffs, n_bins)):
            assert got.to_json_dict() == want.to_json_dict()
            assert got.counts.dtype == want.counts.dtype

    @pytest.mark.parametrize("cutoffs", [
        (100.0, 10.0), (0.0, 10.0), (1, 2, 3), (5,), ("a", "b"), ("1", "2"), "12",
        10.0, None])
    def test_rejects_bad_cutoffs(self, cutoffs):
        with pytest.raises(BadParams):
            throat_distribution(self.bimodal(), cutoffs=cutoffs)

    @pytest.mark.parametrize("n_bins", [0, 2.5, "8", None])
    def test_rejects_bad_bin_count(self, n_bins):
        with pytest.raises(BadParams):
            throat_distribution(self.bimodal(), n_bins=n_bins)

    def test_json_and_csv_outputs(self, tmp_path):
        dist = throat_distribution(self.bimodal(), n_bins=8)
        dist.save_json(tmp_path / "dist.json")
        doc = json.loads((tmp_path / "dist.json").read_text())
        assert doc["n_values"] == 1000
        assert doc["cutoffs_um"] == [10.0, 100.0]
        assert len(doc["counts"]) == 8
        dist.save_csv(tmp_path / "dist.csv")
        lines = (tmp_path / "dist.csv").read_text().splitlines()
        assert lines[0] == "bin_lo_um,bin_hi_um,count"
        assert len(lines) == 9


class TestCalibration:
    def pava_reference(self, y, w):
        """Pool adjacent violators by repeated full scans."""
        blocks = [[yi * wi, wi, [i]] for i, (yi, wi) in enumerate(zip(y, w))]
        merged = True
        while merged:
            merged = False
            for i in range(len(blocks) - 1):
                if blocks[i][0] / blocks[i][1] > blocks[i + 1][0] / blocks[i + 1][1]:
                    blocks[i][0] += blocks[i + 1][0]
                    blocks[i][1] += blocks[i + 1][1]
                    blocks[i][2] += blocks[i + 1][2]
                    del blocks[i + 1]
                    merged = True
                    break
        out = np.empty(len(y))
        for swy, sw, idxs in blocks:
            out[idxs] = swy / sw
        return out

    def test_monotone_points_pass_through(self):
        cal = fit_intensity_calibration([(0.0, 1.0), (50.0, 5.0), (100.0, 20.0)])
        assert cal.knots_throat_um == (1.0, 5.0, 20.0)
        assert cal(50.0) == pytest.approx(5.0)
        assert cal(75.0) == pytest.approx(12.5)

    def test_violators_are_pooled(self):
        # middle point dips below its left neighbor and gets averaged up
        cal = fit_intensity_calibration([(0.0, 4.0), (1.0, 2.0), (2.0, 9.0)])
        assert cal.knots_throat_um == (3.0, 3.0, 9.0)

    def test_matches_reference_on_random_inputs(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            n = int(rng.integers(2, 12))
            x = np.sort(rng.choice(100, size=n, replace=False)).astype(float)
            y = rng.random(n) * 10
            cal = fit_intensity_calibration(list(zip(x, y)))
            want = self.pava_reference(y, np.ones(n))
            np.testing.assert_allclose(cal.knots_throat_um, want, atol=1e-12)

    def test_duplicate_intensities_use_weighted_mean(self):
        # x=1 appears twice: its mean is 3, and the pair weighs double in PAVA
        cal = fit_intensity_calibration([(1.0, 2.0), (1.0, 4.0), (2.0, 0.0)])
        want = self.pava_reference(np.array([3.0, 0.0]), np.array([2.0, 1.0]))
        np.testing.assert_allclose(cal.knots_throat_um, want)

    def test_output_is_nondecreasing(self):
        rng = np.random.default_rng(5)
        x = np.arange(30, dtype=float)
        y = rng.random(30) * 100
        cal = fit_intensity_calibration(list(zip(x, y)))
        diffs = np.diff(cal.knots_throat_um)
        assert (diffs >= -1e-12).all()

    def test_clamps_outside_fitted_range(self):
        cal = fit_intensity_calibration([(10.0, 2.0), (20.0, 8.0)])
        assert cal(-100.0) == pytest.approx(2.0)
        assert cal(999.0) == pytest.approx(8.0)

    def test_too_few_distinct_intensities(self):
        with pytest.raises(TooFewPoints):
            fit_intensity_calibration([(1.0, 2.0), (1.0, 3.0)])
        with pytest.raises(TooFewPoints):
            fit_intensity_calibration([(1.0, 2.0)])

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(BadParams):
            fit_intensity_calibration([(1.0, 2.0, 3.0)])
        with pytest.raises(BadParams):
            fit_intensity_calibration([(1.0, np.nan), (2.0, 3.0)])

    def test_json_round_trip(self):
        cal = fit_intensity_calibration([(0.0, 1.0), (9.0, 4.0)])
        again = IntensityThroatCalibration.from_json_dict(cal.to_json_dict())
        assert again == cal

    @pytest.mark.parametrize("doc, key", [
        ({"knots_intensity": ["1", True], "knots_throat_um": [1, 2]},
         "knots_intensity"),
        ({"knots_intensity": [1, 2], "knots_throat_um": [math.nan, 2]},
         "knots_throat_um"),
        ({"knots_intensity": [1, 2], "knots_throat_um": 2.0}, "knots_throat_um"),
        ({"knots_intensity": [1, 2]}, "knots_throat_um"),
    ])
    def test_json_values_follow_the_json_rule(self, doc, key):
        with pytest.raises(BadParams, match=key):
            IntensityThroatCalibration.from_json_dict(doc)

    def test_apply_calibration_maps_volume(self):
        cal = fit_intensity_calibration([(0.0, 0.0), (100.0, 50.0)])
        gray = np.full((4, 4, 4), 40.0, dtype=np.float32)
        header = VolumeHeader(dims=(4, 4, 4), voxel_size_um=1.0)
        out = apply_calibration(cal, Volume(header=header, data=gray))
        np.testing.assert_allclose(out.data, 20.0)
        assert out.header.value_kind == "throat_size"
