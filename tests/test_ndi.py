"""drt._ndi: scipy.ndimage's C kernels, called without scipy.ndimage.

Each kernel is compared byte for byte with the public scipy.ndimage
function it stands in for, and the fallback to those functions is forced
by making the direct path fail.
"""

import logging
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drt import _ndi
from drt.config import _BOUNDARY_TO_SCIPY
from drt.filters import gaussian_kernel_1d
from drt.morphology import _STRUCTS

shapes = st.tuples(*[st.integers(1, 19)] * 3)
seeds = st.integers(0, 2**32 - 1)
# 0 and 1 give the empty and the all-foreground mask
densities = st.sampled_from([0.0, 0.1, 0.4, 0.7, 1.0])


def same_bytes(got, want) -> bool:
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def random_data(rng, shape, dtype):
    if dtype == np.uint8:
        return rng.integers(0, 256, shape).astype(np.uint8)
    return (rng.normal(100.0, 40.0, shape)).astype(dtype)


@pytest.fixture
def fresh_choice():
    """Make the next _ndi call choose its path again, and the one after it."""
    _ndi._choose.cache_clear()
    yield
    _ndi._choose.cache_clear()


def some_calls():
    """One call of each kernel on a small fixed volume."""
    rng = np.random.default_rng(7)
    data = random_data(rng, (6, 5, 7), np.float32)
    fg = rng.random((6, 5, 7)) < 0.6
    return (_ndi.correlate1d(data, gaussian_kernel_1d(1.0), 1, "reflect",
                             np.float64),
            *_ndi.label(fg, _STRUCTS[26]),
            _ndi.feature_transform(fg))


class TestMatchesPublicScipy:
    @settings(max_examples=150, deadline=None)
    @given(shape=shapes, seed=seeds,
           dtype=st.sampled_from([np.uint8, np.float32, np.float64]),
           mode=st.sampled_from(sorted(_BOUNDARY_TO_SCIPY.values())),
           axis=st.integers(0, 2),
           sigma=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
           output=st.sampled_from([None, np.float64]))
    def test_correlate1d(self, shape, seed, dtype, mode, axis, sigma, output):
        from scipy import ndimage
        data = random_data(np.random.default_rng(seed), shape, dtype)
        kernel = gaussian_kernel_1d(sigma)
        got = _ndi.correlate1d(data, kernel, axis, mode, output)
        want = ndimage.correlate1d(data, kernel, axis=axis, mode=mode,
                                   output=output)
        assert same_bytes(got, want)

    @settings(max_examples=150, deadline=None)
    @given(shape=shapes, seed=seeds, density=densities,
           connectivity=st.sampled_from([6, 26]))
    def test_label(self, shape, seed, density, connectivity):
        from scipy import ndimage
        mask = np.random.default_rng(seed).random(shape) < density
        got, n = _ndi.label(mask, _STRUCTS[connectivity])
        want, n_want = ndimage.label(mask, structure=_STRUCTS[connectivity])
        assert n == n_want
        assert same_bytes(got, want)

    @settings(max_examples=150, deadline=None)
    @given(shape=shapes, seed=seeds, density=densities)
    def test_feature_transform(self, shape, seed, density):
        from scipy import ndimage
        fg = np.random.default_rng(seed).random(shape) < density
        got = _ndi.feature_transform(fg)
        want = ndimage.distance_transform_edt(fg, return_distances=False,
                                              return_indices=True)
        assert same_bytes(got, want)


class TestPathChoice:
    def test_self_check_passes_on_the_direct_kernels(self):
        _ndi._self_check(_ndi._Direct(_ndi._load("_nd_image"),
                                      _ndi._load("_ni_label")))

    def test_self_check_rejects_a_wrong_answer(self, monkeypatch):
        kernels = _ndi._Public()
        monkeypatch.setattr(kernels, "feature_transform",
                            lambda fg: np.zeros((3, *fg.shape), np.int32))
        with pytest.raises(RuntimeError, match="feature transform"):
            _ndi._self_check(kernels)

    def test_logs_the_direct_path_once(self, fresh_choice, caplog):
        caplog.set_level(logging.DEBUG, logger="drt._ndi")
        some_calls()
        some_calls()
        records = [r.getMessage() for r in caplog.records]
        assert len(records) == 1
        assert "direct from" in records[0]

    @pytest.mark.parametrize("failure", ["load", "self-check"])
    def test_falls_back_to_the_public_functions(self, fresh_choice, caplog,
                                                monkeypatch, failure):
        direct = some_calls()
        _ndi._choose.cache_clear()
        if failure == "load":
            def no_file(name):
                raise ImportError(f"no extension file for {name}")
            monkeypatch.setattr(_ndi, "_load", no_file)
        else:
            monkeypatch.setattr(_ndi._Direct, "label",
                                lambda self, mask, structure: (mask, 0))
        caplog.set_level(logging.DEBUG, logger="drt._ndi")
        public = some_calls()
        assert isinstance(_ndi._kernels(), _ndi._Public)
        assert len(direct) == len(public)
        for got, want in zip(public, direct):
            assert same_bytes(np.asarray(got), np.asarray(want))
        records = [r.getMessage() for r in caplog.records]
        assert len(records) == 1
        assert "public functions" in records[0]
        assert ("ImportError" if failure == "load" else "label") in records[0]

    def test_concurrent_first_calls_choose_once(self, fresh_choice, caplog):
        caplog.set_level(logging.DEBUG, logger="drt._ndi")
        results, errors = [], []
        start = threading.Barrier(8)

        def worker():
            try:
                start.wait(timeout=10)
                results.append(some_calls())
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(results) == 8
        assert len(caplog.records) == 1
        for other in results[1:]:
            assert all(same_bytes(np.asarray(a), np.asarray(b))
                       for a, b in zip(results[0], other))
