"""Component labeling, distance transforms, throat statistics, calibration.

Reference implementations used here are deliberately naive: scan-order
flood fill for components, all-pairs minimum distance for the distance
transform, and a quadratic covering-ball sweep for local thickness.
"""

import json
import math

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
    throat_distribution,
)
from drt.morphology import _prominent_peaks, _squared_distances, _STRUCTS

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
        mask = binary_mask(labels, 0)
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
        got = connected_components(label_volume(1 - mask), {0}, connectivity)
        want, n_want = flood_components(mask, connectivity)
        assert got.n_components == n_want
        np.testing.assert_array_equal(got.volume.data, want)
        np.testing.assert_array_equal(got.sizes, np.bincount(want.ravel())[1:])

    def test_ids_follow_first_scan_encounter(self):
        data = np.ones((3, 3, 3), dtype=np.uint8)
        data[2, 2, 0] = 0  # later in scan order
        data[0, 0, 2] = 0  # earlier in scan order
        got = connected_components(label_volume(data), {0}, 6)
        assert got.volume.data[0, 0, 2] == 1
        assert got.volume.data[2, 2, 0] == 2

    def test_diagonal_pair_connectivity(self):
        data = np.ones((3, 3, 3), dtype=np.uint8)
        data[0, 0, 0] = 0
        data[1, 1, 1] = 0
        labels = label_volume(data)
        assert connected_components(labels, {0}, 26).n_components == 1
        assert connected_components(labels, {0}, 6).n_components == 2

    def test_sizes(self):
        data = np.ones((4, 4, 4), dtype=np.uint8)
        data[0, 0, 0:3] = 0
        data[3, 3, 3] = 0
        got = connected_components(label_volume(data), {0}, 6)
        assert got.sizes.tolist() == [3, 1]

    def test_empty_foreground_yields_zero_components(self):
        data = np.ones((3, 3, 3), dtype=np.uint8)
        got = connected_components(label_volume(data), {0}, 26)
        assert got.n_components == 0
        assert got.largest_component() == 0
        assert (got.volume.data == 0).all()

    def test_multi_class_foreground(self):
        data = np.full((3, 3, 3), 2, dtype=np.uint8)
        data[0, 0, 0] = 0
        data[0, 0, 1] = 1
        got = connected_components(label_volume(data), {0, 1}, 6)
        assert got.n_components == 1
        assert got.sizes.tolist() == [2]

    def test_rejects_bad_connectivity(self):
        with pytest.raises(BadParams):
            connected_components(label_volume(np.zeros((3, 3, 3))), {0}, 18)

    @pytest.mark.parametrize("connectivity, rank", [(6, 1), (26, 3)])
    def test_structures_equal_scipy(self, connectivity, rank):
        from scipy import ndimage
        expected = ndimage.generate_binary_structure(3, rank)
        assert _STRUCTS[connectivity].dtype == expected.dtype
        assert np.array_equal(_STRUCTS[connectivity], expected)

    def test_percolation_flags(self):
        data = np.ones((5, 5, 5), dtype=np.uint8)
        data[2, 2, :] = 0  # a column spanning x
        got = connected_components(label_volume(data), {0}, 6)
        assert got.n_components == 1
        assert got.percolates("x").tolist() == [True]
        assert got.percolates("y").tolist() == [False]
        assert got.percolates("z").tolist() == [False]
        assert got.percolates_any_axis().tolist() == [True]

    def test_largest_component_prefers_lowest_id_on_tie(self):
        data = np.ones((4, 4, 4), dtype=np.uint8)
        data[0, 0, 0] = 0
        data[3, 3, 3] = 0
        got = connected_components(label_volume(data), {0}, 6)
        assert got.sizes.tolist() == [1, 1]
        assert got.largest_component() == 1

    def test_component_volume_metadata(self):
        data = np.zeros((3, 3, 3), dtype=np.uint8)
        got = connected_components(label_volume(data), {0}, 26)
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

    @settings(max_examples=100, deadline=None)
    @given(shape=st.tuples(*[st.integers(1, 40)] * 3),
           flat_axis=st.sampled_from([None, 0, 1, 2]),
           pore_fraction=st.one_of(st.floats(0.0, 1.0), st.floats(0.99, 1.0)),
           seed=st.integers(0, 2**32 - 1))
    def test_squared_radii_equal_rounded_float_edt(self, shape, flat_axis,
                                                   pore_fraction, seed):
        # the float EDT squared and rounded to the nearest integer is an
        # independent route to the same exact r²
        from scipy import ndimage
        if flat_axis is not None:
            shape = shape[:flat_axis] + (1,) + shape[flat_axis + 1:]
        rng = np.random.default_rng(seed)
        fg = rng.random(shape) < pore_fraction
        fg.flat[rng.integers(fg.size)] = False  # at least one background voxel
        got = _squared_distances(fg)
        assert got.dtype == np.int32
        want = np.rint(ndimage.distance_transform_edt(fg) ** 2)
        np.testing.assert_array_equal(got, want)

    def test_voxel_size_scales_output(self):
        mask = np.zeros((5, 5, 5), dtype=np.uint8)
        mask[2, 2, 2] = 1
        a = local_thickness(label_volume(mask, voxel_size=1.0))
        b = local_thickness(label_volume(mask, voxel_size=2.5))
        np.testing.assert_allclose(b.data, 2.5 * a.data, rtol=1e-6)

    def test_explicit_voxel_size_overrides_header(self):
        mask = np.zeros((5, 5, 5), dtype=np.uint8)
        mask[2, 2, 2] = 1
        a = local_thickness(label_volume(mask, voxel_size=1.0), voxel_size_um=3.0)
        b = local_thickness(label_volume(mask, voxel_size=3.0))
        np.testing.assert_allclose(a.data, b.data)

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

    def test_rejects_nonpositive_voxel_size(self):
        with pytest.raises(BadParams):
            local_thickness(label_volume(np.ones((4, 4, 4))), voxel_size_um=0.0)

    def test_output_metadata(self):
        got = local_thickness(label_volume(np.zeros((4, 4, 4))))
        assert got.header.value_kind == "throat_size"


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

    def test_rejects_bad_cutoffs(self):
        vol = self.bimodal()
        with pytest.raises(BadParams):
            throat_distribution(vol, cutoffs=(100.0, 10.0))
        with pytest.raises(BadParams):
            throat_distribution(vol, cutoffs=(0.0, 10.0))

    def test_rejects_bad_bin_count(self):
        with pytest.raises(BadParams):
            throat_distribution(self.bimodal(), n_bins=0)

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

    def test_apply_calibration_maps_volume(self):
        cal = fit_intensity_calibration([(0.0, 0.0), (100.0, 50.0)])
        gray = np.full((4, 4, 4), 40.0, dtype=np.float32)
        header = VolumeHeader(dims=(4, 4, 4), voxel_size_um=1.0)
        out = apply_calibration(cal, Volume(header=header, data=gray))
        np.testing.assert_allclose(out.data, 20.0)
        assert out.header.value_kind == "throat_size"
