"""scipy.ndimage's three C kernels, called without importing scipy.ndimage.

The stages use only ``correlate1d``, ``label`` and the feature transform
behind ``distance_transform_edt``. Importing ``scipy.ndimage`` runs its
package ``__init__``, which in recent scipy loads an array-API layer
(numpy.f2py, numpy.testing, scipy.special) that costs more start-up time
and memory than the kernels. So this module loads the two extension
modules that hold them, ``_nd_image`` and ``_ni_label``, from their files
and makes the calls scipy's public functions make once their arguments are
checked.

Those entry points are private scipy API. The first call loads them and
checks them on a fixed case with known answers; if either step fails,
every call in the process goes through the public ``scipy.ndimage``
functions instead, which give the same results. The path taken is logged
once at DEBUG.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import logging
import threading
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

# scipy.ndimage._ni_support._extend_mode_to_code for the modes drt uses
_MODE_CODES = {"nearest": 0, "reflect": 2}

_lock = threading.Lock()


def _load(name: str):
    """The extension module scipy.ndimage.<name>, loaded from its file."""
    directory = Path(importlib.util.find_spec("scipy").origin).parent / "ndimage"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / (name + suffix)
        if path.is_file():
            spec = importlib.util.spec_from_file_location(
                f"scipy.ndimage.{name}", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no extension file for {name} in {directory}")


class _Direct:
    """The kernels called as scipy's wrappers call them."""

    def __init__(self, nd_image, ni_label):
        self.nd_image, self.ni_label = nd_image, ni_label

    def correlate1d(self, data, weights, axis, mode, output_dtype):
        if not 0 <= axis < data.ndim:
            raise ValueError(f"axis {axis} out of range for {data.ndim} dims")
        out = np.zeros(data.shape, dtype=output_dtype or data.dtype.name)
        self.nd_image.correlate1d(
            data, np.ascontiguousarray(weights, dtype=np.float64), axis, out,
            _MODE_CODES[mode], 0.0, 0)
        return out

    def label(self, mask, structure):
        # scipy's rule: 32-bit ids unless the labels could overflow them
        dtype = np.intp if mask.size >= 2**31 - 2 else np.int32
        ids = np.empty(mask.shape, dtype=dtype)
        n = self.ni_label._label(mask, np.asarray(structure, dtype=bool), ids)
        return ids, n

    def feature_transform(self, fg):
        ft = np.zeros((fg.ndim, *fg.shape), dtype=np.int32)
        self.nd_image.euclidean_feature_transform(
            np.asarray(fg, dtype=bool).astype(np.int8), None, ft)
        return ft


class _Public:
    """The same results through the public scipy.ndimage functions."""

    def __init__(self):
        from scipy import ndimage

        self.ndimage = ndimage

    def correlate1d(self, data, weights, axis, mode, output_dtype):
        return self.ndimage.correlate1d(data, weights, axis=axis,
                                        output=output_dtype, mode=mode)

    def label(self, mask, structure):
        return self.ndimage.label(mask, structure=structure)

    def feature_transform(self, fg):
        return self.ndimage.distance_transform_edt(
            fg, return_distances=False, return_indices=True)


def _self_check(kernels) -> None:
    """Raise RuntimeError unless kernels give the known answers below."""
    ramp = kernels.correlate1d(np.array([0.0, 1.0, 4.0, 9.0]),
                               np.arange(1.0, 6.0), 0, "reflect", None)
    # diagonal neighbours: one component under 26- but two under 6-connectivity
    plane = np.array([[[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 0, 1]]], dtype=bool)
    faces = np.abs(np.indices((3, 3, 3)) - 1).sum(axis=0) <= 1
    ids6, n6 = kernels.label(plane, faces)
    ids26, n26 = kernels.label(plane, np.ones((3, 3, 3), dtype=bool))
    ft = kernels.feature_transform(np.array([[[1, 1, 0], [0, 1, 1]]], dtype=bool))
    checks = {
        "correlate1d": ramp.tolist() == [25.0, 64.0, 95.0, 92.0],
        "6-connected label": (n6, ids6.tolist())
        == (4, [[[1, 0, 0, 2], [0, 3, 0, 0], [0, 0, 0, 4]]]),
        "26-connected label": (n26, ids26.tolist())
        == (3, [[[1, 0, 0, 2], [0, 1, 0, 0], [0, 0, 0, 3]]]),
        "feature transform": ft.tolist() == [[[[0, 0, 0], [0, 0, 0]]],
                                             [[[1, 0, 0], [1, 1, 0]]],
                                             [[[0, 2, 2], [0, 0, 2]]]],
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise RuntimeError(f"wrong answers from {', '.join(failed)}")


@functools.cache
def _choose():
    try:
        kernels = _Direct(_load("_nd_image"), _load("_ni_label"))
        _self_check(kernels)
    # the entry points are private, so any failure to load or call them,
    # in any scipy version, means the public path
    except Exception as exc:
        log.debug("scipy.ndimage kernels: public functions "
                  "(direct call failed: %s: %s)", type(exc).__name__, exc)
        return _Public()
    log.debug("scipy.ndimage kernels: direct from %s",
              Path(kernels.nd_image.__file__).parent)
    return kernels


def _kernels():
    # the slab threads may make the first call together
    with _lock:
        return _choose()


def correlate1d(data: np.ndarray, weights: np.ndarray, axis: int, mode: str,
                output_dtype=None) -> np.ndarray:
    """``scipy.ndimage.correlate1d`` with cval 0 and origin 0.

    ``mode`` is "reflect" or "nearest"; the output has ``output_dtype``,
    or data's dtype when it is None.
    """
    return _kernels().correlate1d(data, weights, axis, mode, output_dtype)


def label(mask: np.ndarray, structure: np.ndarray) -> tuple[np.ndarray, int]:
    """``scipy.ndimage.label``: component ids and their count.

    The ids are int32 unless the mask has 2**31 - 2 voxels or more.
    """
    return _kernels().label(mask, structure)


def feature_transform(fg: np.ndarray) -> np.ndarray:
    """Index of the nearest background voxel of each voxel of bool ``fg``.

    int32, shaped (fg.ndim, *fg.shape): the feature transform of
    ``scipy.ndimage.distance_transform_edt``.
    """
    return _kernels().feature_transform(fg)
