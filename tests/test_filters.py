"""Feature bank and histogram-mixture thresholding.

The smoothing oracle here is a dense (non-separable) 3-D correlation
built from the outer product of the 1-D kernels, applied over an
explicitly padded array. It shares no code path with the implementation.
"""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drt import (
    BadParams,
    BadSigmaOrder,
    DegenerateHistogram,
    FeatureBankConfig,
    NoConvergence,
    SigmaTooLarge,
    Volume,
    VolumeHeader,
    build_feature_stack,
    difference_of_gaussian,
    fit_histogram_gmm,
    gaussian_kernel_1d,
    gaussian_smooth,
    iroga_threshold,
)
from drt.config import _BOUNDARY_TO_SCIPY
from drt.filters import map_slabs, sample_features, slab_bounds, slab_channels

from conftest import PIECES

_PAD_MODE = {"mirror": "symmetric", "clamp": "edge"}


def dense_gaussian_reference(data, sigma, boundary_mode):
    """Single-pass correlation with the full 3-D product kernel."""
    k1 = gaussian_kernel_1d(sigma)
    kernel = np.einsum("i,j,k->ijk", k1, k1, k1)
    r = (len(k1) - 1) // 2
    padded = np.pad(np.asarray(data, dtype=np.float64), r,
                    mode=_PAD_MODE[boundary_mode])
    windows = np.lib.stride_tricks.sliding_window_view(padded, kernel.shape)
    return np.einsum("zyxijk,ijk->zyx", windows, kernel)


def whole_pass_reference(data, sigma, boundary_mode):
    """Smoothing as it was before its passes ran in pieces: three
    whole-array correlate1d passes in float64, cast to float32 at the end."""
    from scipy import ndimage
    kernel = gaussian_kernel_1d(sigma)
    out = np.asarray(data, dtype=np.float64)
    for axis in range(3):
        out = ndimage.correlate1d(out, kernel, axis=axis,
                                  mode=_BOUNDARY_TO_SCIPY[boundary_mode])
    return out.astype(np.float32)


def gray_volume(data, voxel_size=1.0):
    nz, ny, nx = np.asarray(data).shape
    header = VolumeHeader(dims=(nx, ny, nz), voxel_size_um=voxel_size)
    return Volume(header=header, data=np.asarray(data, dtype=np.float32))


class TestFeatureBankConfig:
    def test_default_count(self):
        assert FeatureBankConfig().feature_count == 8

    def test_count_without_raw(self):
        cfg = FeatureBankConfig(sigmas_vox=(1.0, 2.0), include_raw=False)
        assert cfg.feature_count == 3

    def test_rejects_empty_sigmas(self):
        with pytest.raises(ValueError):
            FeatureBankConfig(sigmas_vox=())

    def test_rejects_unsorted_sigmas(self):
        with pytest.raises(ValueError):
            FeatureBankConfig(sigmas_vox=(2.0, 1.0))
        with pytest.raises(ValueError):
            FeatureBankConfig(sigmas_vox=(1.0, 1.0))

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            FeatureBankConfig(sigmas_vox=(0.0, 1.0))

    def test_rejects_unknown_boundary(self):
        with pytest.raises(ValueError):
            FeatureBankConfig(boundary_mode="wrap")

    def test_json_round_trip(self):
        cfg = FeatureBankConfig(sigmas_vox=(0.5, 1.5), include_raw=False,
                                boundary_mode="clamp")
        assert FeatureBankConfig.from_json_dict(cfg.to_json_dict()) == cfg


class TestKernel:
    def test_normalized(self):
        for sigma in (0.5, 1.0, 2.0, 3.7):
            k = gaussian_kernel_1d(sigma)
            assert abs(k.sum() - 1.0) < 1e-12

    def test_symmetric(self):
        k = gaussian_kernel_1d(1.3)
        np.testing.assert_allclose(k, k[::-1])

    def test_support_radius(self):
        assert len(gaussian_kernel_1d(1.0)) == 7
        assert len(gaussian_kernel_1d(2.0)) == 13


class TestGaussianSmooth:
    def test_matches_dense_reference(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            dims = rng.integers(5, 10, size=3)
            data = rng.random(tuple(dims))
            sigma = float(rng.uniform(0.4, 1.0))
            for mode in ("mirror", "clamp"):
                vol = gray_volume(data)
                got = gaussian_smooth(vol, sigma, mode).data
                want = dense_gaussian_reference(data, sigma, mode)
                assert np.max(np.abs(got - want)) <= 1e-6

    @settings(max_examples=60, deadline=None)
    @given(shape=st.tuples(*[st.integers(2, 14)] * 3),
           fraction=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1),
           mode=st.sampled_from(["mirror", "clamp"]),
           piece=st.sampled_from(PIECES))
    def test_pieces_equal_whole_array_passes(self, shape, fraction, seed, mode,
                                             piece):
        data = np.random.default_rng(seed).normal(100.0, 40.0, shape)
        sigma = max(0.1, fraction * min(shape) / 2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("drt.volume.PIECE", piece)
            got = gaussian_smooth(gray_volume(data), sigma, mode).data
        want = whole_pass_reference(data.astype(np.float32), sigma, mode)
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    def test_preserves_dims_and_kind(self):
        vol = gray_volume(np.random.default_rng(1).random((6, 7, 8)))
        out = gaussian_smooth(vol, 1.0)
        assert out.dims == vol.dims
        assert out.header.value_kind == "grayscale"
        assert out.data.dtype == np.float32

    def test_constant_is_fixed_point(self):
        vol = gray_volume(np.full((8, 8, 8), 42.0))
        out = gaussian_smooth(vol, 1.5)
        np.testing.assert_array_equal(out.data, np.full((8, 8, 8), 42.0,
                                                        dtype=np.float32))

    def test_rejects_sigma_too_large(self):
        vol = gray_volume(np.zeros((8, 8, 8)))
        with pytest.raises(SigmaTooLarge):
            gaussian_smooth(vol, 4.5)

    def test_rejects_nonpositive_sigma(self):
        vol = gray_volume(np.zeros((8, 8, 8)))
        with pytest.raises(SigmaTooLarge):
            gaussian_smooth(vol, 0.0)


class TestDifferenceOfGaussian:
    def test_constant_maps_to_exact_zero(self):
        for c in (-3.0, 0.0, 17.0, 200.0):
            vol = gray_volume(np.full((9, 9, 9), c))
            out = difference_of_gaussian(vol, 1.0, 2.0)
            assert (out.data == 0.0).all()

    def test_matches_smooth_difference(self):
        vol = gray_volume(np.random.default_rng(2).random((8, 8, 8)) * 100)
        out = difference_of_gaussian(vol, 1.0, 2.0)
        lo = gaussian_smooth(vol, 1.0)
        hi = gaussian_smooth(vol, 2.0)
        np.testing.assert_array_equal(out.data, lo.data - hi.data)

    def test_rejects_bad_order(self):
        vol = gray_volume(np.zeros((8, 8, 8)))
        with pytest.raises(BadSigmaOrder):
            difference_of_gaussian(vol, 2.0, 1.0)
        with pytest.raises(BadSigmaOrder):
            difference_of_gaussian(vol, 2.0, 2.0)


class TestWholeVolumeFeatures:
    def test_shape_and_dtype(self):
        vol = gray_volume(np.random.default_rng(3).random((6, 7, 8)))
        stack = build_feature_stack(vol, FeatureBankConfig(sigmas_vox=(1.0, 2.0)))
        assert stack.shape == (6, 7, 8, 4)
        assert stack.dtype == np.float32

    def test_raw_channel_equals_input(self):
        vol = gray_volume(np.random.default_rng(4).random((6, 6, 6)))
        stack = build_feature_stack(vol, FeatureBankConfig(sigmas_vox=(1.0, 2.0)))
        np.testing.assert_array_equal(stack[..., 0], vol.data)

    @pytest.mark.parametrize("include_raw", [True, False])
    def test_channels_in_declared_order(self, include_raw):
        # [raw?, G(1), G(2), G(3), G(1)-G(2), G(2)-G(3)]
        vol = gray_volume(np.random.default_rng(5).random((7, 7, 7)))
        sigmas = (1.0, 2.0, 3.0)
        stack = build_feature_stack(vol, FeatureBankConfig(sigmas_vox=sigmas,
                                                           include_raw=include_raw))
        g = int(include_raw)  # the raw channel is checked above
        gauss, dog = stack[..., g:g + 3], stack[..., g + 3:]
        assert dog.shape[-1] == 2
        for j, sigma in enumerate(sigmas):
            np.testing.assert_array_equal(gauss[..., j], gaussian_smooth(vol, sigma).data)
        np.testing.assert_allclose(dog, gauss[..., :-1] - gauss[..., 1:], atol=1e-6)


@st.composite
def slab_cases(draw):
    """A volume, a bank with sigmas up to min(dims)/2, and one slab of it."""
    dims = tuple(draw(st.integers(1, 12)) for _ in range(3))
    nx, ny, nz = dims
    top = min(dims) / 2
    fractions = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3,
                              unique=True))
    sigmas = sorted({max(0.1, round(f * top, 3)) for f in fractions})
    cfg = FeatureBankConfig(sigmas_vox=tuple(sigmas),
                            include_raw=draw(st.booleans()),
                            boundary_mode=draw(st.sampled_from(["mirror", "clamp"])))
    # heights 1, 7, the widest halo and the whole volume, where they fit
    halo = math.ceil(3.0 * max(sigmas))
    height = min(nz, draw(st.sampled_from([1, 7, halo, nz])))
    z0 = draw(st.integers(0, nz - height))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    data = np.random.default_rng(seed).normal(size=(nz, ny, nx))
    return gray_volume(data.astype(np.float32)), cfg, z0, z0 + height


def stacked_channels(vol, cfg, z0, z1):
    """The channels slab_channels yields for planes [z0, z1), stacked by index."""
    out = np.full((z1 - z0, *vol.data.shape[1:], cfg.feature_count), np.nan,
                  dtype=np.float32)
    for f, channel in slab_channels(vol, cfg, z0, z1):
        out[..., f] = channel
    return out


class TestSlabFeatures:
    @settings(max_examples=150, deadline=None)
    @given(case=slab_cases())
    def test_slab_equals_whole_volume_stack(self, case):
        vol, cfg, z0, z1 = case
        whole = build_feature_stack(vol, cfg)
        np.testing.assert_array_equal(stacked_channels(vol, cfg, z0, z1),
                                      whole[z0:z1])

    @settings(max_examples=60, deadline=None)
    @given(case=slab_cases(), piece=st.sampled_from(PIECES))
    def test_piece_size_does_not_change_the_channels(self, case, piece):
        vol, cfg, z0, z1 = case
        whole = build_feature_stack(vol, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("drt.volume.PIECE", piece)
            np.testing.assert_array_equal(stacked_channels(vol, cfg, z0, z1),
                                          whole[z0:z1])

    @pytest.mark.parametrize("include_raw", [True, False])
    def test_channels_stacked_by_index_equal_whole_volume_stack(self, include_raw):
        vol = gray_volume(np.random.default_rng(12).normal(size=(20, 9, 10))
                          .astype(np.float32))
        cfg = FeatureBankConfig(sigmas_vox=(0.5, 1.0, 2.0), include_raw=include_raw)
        whole = build_feature_stack(vol, cfg)
        for z0, z1 in [(0, 20), (0, 6), (6, 13), (13, 20)]:
            channels = list(slab_channels(vol, cfg, z0, z1))
            order = [f for f, _ in channels]
            # raw, then each Gaussian, each DoG right after its second one
            g = int(include_raw)
            assert order == [0] * g + [g, g + 1, g + 3, g + 2, g + 4]
            for f, channel in channels:
                assert channel.dtype == np.float32
                np.testing.assert_array_equal(channel, whole[z0:z1, ..., f])

    @pytest.mark.parametrize("mode", ["mirror", "clamp"])
    def test_volume_thinner_than_the_halo(self, mode):
        # sigma 4 reaches 12 planes each way, past both faces of 8 planes
        vol = gray_volume(np.random.default_rng(9).random((8, 9, 10)))
        cfg = FeatureBankConfig(sigmas_vox=(1.0, 4.0), boundary_mode=mode)
        whole = build_feature_stack(vol, cfg)
        for z0 in range(8):
            np.testing.assert_array_equal(stacked_channels(vol, cfg, z0, z0 + 1),
                                          whole[z0:z0 + 1])

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_samples_equal_stack_rows_in_input_order(self, threads):
        rng = np.random.default_rng(10)
        vol = gray_volume(rng.random((30, 6, 7)))
        cfg = FeatureBankConfig(sigmas_vox=(0.5, 1.0))
        # unsorted, repeated, and no voxel in planes 10-19
        z = np.concatenate([rng.integers(0, 10, 20), rng.integers(20, 30, 20), [3, 3]])
        coords = np.column_stack([rng.integers(0, 7, z.size),
                                  rng.integers(0, 6, z.size), z])
        x, y, z = coords.T
        expected = build_feature_stack(vol, cfg)[z, y, x]
        rows = sample_features(vol, cfg, coords, threads=threads)
        assert rows.dtype == np.float32
        np.testing.assert_array_equal(rows, expected)

    @pytest.mark.parametrize("coords, row", [
        ([[7, 6, 5], [0, 0, -1]], 1),  # read memory no slab wrote
        ([[-1, 0, 0]], 0),             # wrapped to x = nx - 1
        ([[0, 7, 0]], 0),
        ([[7, 6, 5], [7, 6, 5], [0, 0, 6]], 2),
        ([[8, 0, 0]], 0),
    ])
    def test_voxels_outside_the_volume_are_refused(self, coords, row):
        # dims (8, 7, 6): (7, 6, 5) is the last voxel
        vol = gray_volume(np.zeros((6, 7, 8)))
        cfg = FeatureBankConfig(sigmas_vox=(1.0,))
        with pytest.raises(BadParams, match=rf"row {row}: voxel \(.*\) outside"):
            sample_features(vol, cfg, np.array(coords))

    @pytest.mark.parametrize("shape", [(3,), (2, 2), (1, 4), (1, 1, 3)])
    def test_coordinates_not_of_shape_n_by_3_are_refused(self, shape):
        vol = gray_volume(np.zeros((6, 7, 8)))
        with pytest.raises(BadParams, match="shape"):
            sample_features(vol, FeatureBankConfig(sigmas_vox=(1.0,)),
                            np.zeros(shape, dtype=np.int64))

    def test_only_labelled_slabs_are_computed(self, monkeypatch):
        vol = gray_volume(np.random.default_rng(11).random((30, 4, 4)))
        cfg = FeatureBankConfig(sigmas_vox=(0.5, 1.0))
        monkeypatch.setattr("drt.filters.SLAB_VOXELS", 5 * 16)
        assert slab_bounds(vol.dims, cfg, 1) == [(i, i + 5) for i in range(0, 30, 5)]
        seen = []
        map_slabs(vol, cfg, lambda z0, z1, f: seen.append((z0, z1)),
                  planes=np.array([27, 2, 4, 26]))
        assert sorted(seen) == [(0, 5), (25, 30)]

    @pytest.mark.parametrize("dims, sigmas, threads, heights", [
        ((96, 96, 96), (1.0, 2.0, 4.0, 8.0), 1, [24] * 4),
        ((96, 96, 96), (1.0, 2.0, 4.0, 8.0), 2, [24] * 4),
        ((96, 96, 96), (1.0, 2.0, 4.0, 8.0), 3, [24] * 4),  # 6 cut to the halo
        ((128, 128, 128), (1.0, 2.0, 4.0, 8.0), 2, [25, 26, 25, 26, 26]),
        ((96, 96, 20), (1.0, 2.0, 4.0, 8.0), 2, [20]),      # thinner than the halo
        ((512, 512, 40), (0.5,), 4, [2] * 20),              # one plane is the budget
        ((8, 8, 8), (0.25,), 64, [1] * 8),
    ])
    def test_slab_heights(self, dims, sigmas, threads, heights):
        bounds = slab_bounds(dims, FeatureBankConfig(sigmas_vox=sigmas), threads)
        assert [z1 - z0 for z0, z1 in bounds] == heights
        assert bounds[0][0] == 0 and bounds[-1][1] == dims[2]
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))

    @pytest.mark.parametrize("threads", [1, 4])
    def test_sigma_is_checked_against_the_whole_volume(self, threads):
        vol = gray_volume(np.zeros((40, 12, 12)))
        too_large = FeatureBankConfig(sigmas_vox=(1.0, 6.5))
        with pytest.raises(SigmaTooLarge):
            map_slabs(vol, too_large, lambda *a: None, threads=threads)
        # also when no slab would be computed
        with pytest.raises(SigmaTooLarge):
            sample_features(vol, too_large, np.zeros((0, 3)), threads=threads)

    def test_worker_exception_is_raised(self):
        vol = gray_volume(np.zeros((8, 4, 4)))

        def fail(z0, z1, features):
            if z0 == 4:
                raise ValueError("slab 4")

        with pytest.raises(ValueError, match="slab 4"):
            map_slabs(vol, FeatureBankConfig(sigmas_vox=(0.25,)), fail, threads=8)

    def test_logs_the_slab_plan(self, caplog):
        vol = gray_volume(np.zeros((30, 4, 4)))
        # halos of 2 and 3 planes around 3 slabs of 10, clipped at the faces
        cfg = FeatureBankConfig(sigmas_vox=(0.5, 1.0))
        with caplog.at_level(logging.DEBUG, logger="drt.filters"):
            map_slabs(vol, cfg, lambda *a: None, threads=3)
        assert [r.getMessage() for r in caplog.records] == [
            "feature slabs: 3 slabs, height 10, 3 workers, "
            "20 halo planes recomputed"]


class TestHistogramGmm:
    def test_recovers_two_separated_modes(self):
        rng = np.random.default_rng(8)
        values = np.concatenate([rng.normal(50, 5, 40000),
                                 rng.normal(200, 8, 60000)])
        weights, means, stds = fit_histogram_gmm(values, 2, seed=0)
        assert means[0] == pytest.approx(50, abs=2)
        assert means[1] == pytest.approx(200, abs=2)
        assert weights[0] == pytest.approx(0.4, abs=0.02)
        assert weights[1] == pytest.approx(0.6, abs=0.02)
        assert stds[0] == pytest.approx(5, abs=1)
        assert stds[1] == pytest.approx(8, abs=1)

    def test_means_sorted_ascending(self):
        rng = np.random.default_rng(9)
        values = np.concatenate([rng.normal(m, 4, 20000) for m in (30, 110, 220)])
        _, means, _ = fit_histogram_gmm(values, 3, seed=1)
        assert means[0] < means[1] < means[2]

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(10)
        values = np.concatenate([rng.normal(60, 6, 5000), rng.normal(180, 6, 5000)])
        a = fit_histogram_gmm(values, 2, seed=7)
        b = fit_histogram_gmm(values, 2, seed=7)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_constant_input_is_degenerate(self):
        with pytest.raises(DegenerateHistogram):
            fit_histogram_gmm(np.full(1000, 5.0), 2)

    def test_two_values_cannot_support_three_components(self):
        values = np.concatenate([np.full(100, 1.0), np.full(100, 2.0)])
        with pytest.raises(DegenerateHistogram):
            fit_histogram_gmm(values, 3)

    @pytest.mark.parametrize("values, max_iter", [
        # the first change in log-likelihood, from -inf, is infinite
        (np.concatenate([np.full(100, 1.0), np.full(100, 2.0)]), 1),
        # one normal mode split into two keeps creeping at the defaults
        (np.random.default_rng(0).normal(size=1000), 200),
    ])
    def test_no_convergence(self, values, max_iter):
        with pytest.raises(NoConvergence,
                           match=f"EM did not converge within {max_iter} iterations"):
            fit_histogram_gmm(values, 2, max_iter=max_iter)


class TestIrogaThreshold:
    def test_two_mode_split(self):
        rng = np.random.default_rng(11)
        truth = (rng.random((24, 24, 24)) < 0.4).astype(np.uint8)
        gray = np.where(truth == 0, 60.0, 190.0) + rng.normal(0, 6, truth.shape)
        vol = gray_volume(gray)
        labels, thresholds = iroga_threshold(vol, 2, seed=0)
        assert len(thresholds) == 1
        assert 60 < thresholds[0] < 190
        acc = float((labels.data == truth).mean())
        assert acc > 0.999

    def test_labels_ordered_by_intensity(self):
        rng = np.random.default_rng(12)
        gray = np.where(rng.random((16, 16, 16)) < 0.5, 40.0, 210.0)
        gray += rng.normal(0, 3, gray.shape)
        labels, _ = iroga_threshold(gray_volume(gray), 2, seed=0)
        low_mean = gray[labels.data == 0].mean()
        high_mean = gray[labels.data == 1].mean()
        assert low_mean < high_mean

    def test_three_modes_two_thresholds(self):
        rng = np.random.default_rng(13)
        pick = rng.integers(0, 3, (20, 20, 20))
        gray = np.choose(pick, [50.0, 130.0, 220.0]) + rng.normal(0, 5, pick.shape)
        labels, thresholds = iroga_threshold(gray_volume(gray), 3, seed=0)
        assert len(thresholds) == 2
        assert 50 < thresholds[0] < 130 < thresholds[1] < 220
        acc = float((labels.data == pick).mean())
        assert acc > 0.99

    def test_rejects_bad_component_count(self):
        vol = gray_volume(np.random.default_rng(14).random((8, 8, 8)))
        with pytest.raises(ValueError):
            iroga_threshold(vol, 4)

    def test_label_volume_metadata(self):
        rng = np.random.default_rng(15)
        gray = np.where(rng.random((10, 10, 10)) < 0.5, 30.0, 170.0)
        labels, _ = iroga_threshold(gray_volume(gray), 2)
        assert labels.header.value_kind == "label"
        assert labels.data.dtype == np.uint8
