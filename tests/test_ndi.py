"""drt._ndi: scipy.ndimage's C kernels, called without scipy.ndimage.

Each kernel is compared byte for byte with the public scipy.ndimage
function it stands in for, and the fallback to those functions is forced
by making the direct path fail.
"""

import logging
import os
import subprocess
import sys
import threading
from pathlib import Path

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
            *_ndi.label(fg, _STRUCTS[26]))


class TestMatchesPublicScipy:
    @settings(max_examples=150, deadline=None)
    @given(shape=shapes, seed=seeds,
           dtype=st.sampled_from([np.uint8, np.float32, np.float64]),
           mode=st.sampled_from(sorted(_BOUNDARY_TO_SCIPY.values())),
           axis=st.integers(0, 2),
           sigma=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
           output=st.sampled_from([None, np.float64, np.float32]))
    def test_correlate1d(self, shape, seed, dtype, mode, axis, sigma, output):
        from scipy import ndimage
        data = random_data(np.random.default_rng(seed), shape, dtype)
        kernel = gaussian_kernel_1d(sigma)
        got = _ndi.correlate1d(data, kernel, axis, mode, output)
        want = ndimage.correlate1d(data, kernel, axis=axis, mode=mode,
                                   output=output)
        assert same_bytes(got, want)

    @pytest.mark.parametrize("path", ["direct", "public"])
    @settings(max_examples=60, deadline=None)
    @given(shape=shapes, seed=seeds,
           mode=st.sampled_from(sorted(_BOUNDARY_TO_SCIPY.values())),
           axis=st.integers(0, 2), sigma=st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    def test_float32_output_rounds_the_float64_output(self, path, shape, seed,
                                                      mode, axis, sigma):
        # the float32 output is written from float64 line buffers, so it is
        # the float64 output rounded once; a one-tap kernel passes the
        # float32 rounding ties, and the values one float64 ulp either side
        # of them, through unchanged
        correlate1d = (_ndi._direct_correlate1d(_ndi._load("_nd_image"))
                       if path == "direct" else _ndi._public_correlate1d)
        rng = np.random.default_rng(seed)
        low = rng.normal(100.0, 40.0, shape).astype(np.float32)
        tie = (low.astype(np.float64)
               + np.nextafter(low, np.float32(np.inf)).astype(np.float64)) / 2
        for data, kernel in [
                (random_data(rng, shape, np.float64), gaussian_kernel_1d(sigma)),
                (tie, np.ones(1)),
                (np.nextafter(tie, np.inf), np.ones(1)),
                (np.nextafter(tie, -np.inf), np.ones(1))]:
            want = correlate1d(data, kernel, axis, mode, np.float64)
            got = correlate1d(data, kernel, axis, mode, np.float32)
            assert same_bytes(got, want.astype(np.float32))

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


class TestPathChoice:
    @pytest.mark.parametrize("module", sorted(_ndi._MODULES))
    def test_self_check_passes_on_the_direct_kernels(self, module):
        direct, public, _ = _ndi._MODULES[module]
        _ndi._self_check(module, direct(_ndi._load(module)))
        _ndi._self_check(module, public)

    def test_self_check_rejects_a_wrong_answer(self):
        def merged(mask, structure):
            return np.where(mask, 1, 0).astype(np.int32), 1
        with pytest.raises(RuntimeError, match="6-connected label"):
            _ndi._self_check("_ni_label", merged)

    def test_logs_the_direct_path_once(self, fresh_choice, caplog):
        caplog.set_level(logging.DEBUG, logger="drt._ndi")
        some_calls()
        some_calls()
        records = [r.getMessage() for r in caplog.records]
        assert len(records) == 2
        assert records[0].startswith("scipy.ndimage._nd_image: direct from")
        assert records[1].startswith("scipy.ndimage._ni_label: direct from")

    @pytest.mark.parametrize("kernel, module, absent", [
        ("correlate1d", "_nd_image", ["scipy.ndimage._ni_label", "scipy"]),
        ("label", "_ni_label", ["scipy.ndimage._nd_image"]),
    ])
    def test_loads_only_the_module_of_the_kernel_called(self, kernel, module,
                                                        absent):
        # a fresh process, as the test session itself has loaded scipy
        call = {"correlate1d": "_ndi.correlate1d(np.ones(5), np.ones(3), 0, "
                               "'reflect')",
                "label": "_ndi.label(np.ones((2, 2, 2), bool), "
                         "np.ones((3, 3, 3), bool))"}[kernel]
        code = "\n".join([
            "import sys",
            "import numpy as np",
            "from drt import _ndi",
            "loaded, load = [], _ndi._load",
            "_ndi._load = lambda name: loaded.append(name) or load(name)",
            call,
            "print(loaded, [m for m in %r if m in sys.modules])" % absent,
        ])
        src = str(Path(_ndi.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == f"{[module]} []"

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
            _, public, check = _ndi._MODULES["_ni_label"]
            monkeypatch.setitem(
                _ndi._MODULES, "_ni_label",
                (lambda module: lambda mask, structure: (mask, 0), public, check))
        caplog.set_level(logging.DEBUG, logger="drt._ndi")
        public = some_calls()
        assert len(direct) == len(public)
        for got, want in zip(public, direct):
            assert same_bytes(np.asarray(got), np.asarray(want))
        # the path is chosen per module: a failed label check leaves
        # correlate1d direct
        correlate1d, label = [r.getMessage() for r in caplog.records]
        assert ("public functions" in correlate1d) == (failure == "load")
        assert label.startswith("scipy.ndimage._ni_label: public functions")
        assert ("ImportError" if failure == "load" else "label") in label
        assert _ndi._kernel("_ni_label") is _ndi._public_label

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
        assert len(caplog.records) == 2
        for other in results[1:]:
            assert all(same_bytes(np.asarray(a), np.asarray(b))
                       for a, b in zip(results[0], other))
