"""scipy.ndimage's two C kernels, called without importing scipy.ndimage.

The stages use only ``correlate1d`` and ``label``. Importing
``scipy.ndimage`` runs its package ``__init__``, which in recent scipy
loads an array-API layer (numpy.f2py, numpy.testing, scipy.special) that
costs more start-up time and memory than the kernels. So this module loads
the extension module that holds each kernel, ``_nd_image`` for
``correlate1d`` and ``_ni_label`` for ``label``, from its file, and makes
the call scipy's public function makes once its arguments are checked.

Those entry points are private scipy API. The first call of a kernel loads
its module and checks the kernel on a fixed case with known answers; if
either step fails, every call of that kernel in the process goes through
the public ``scipy.ndimage`` function instead, which gives the same
results. A process loads only the modules of the kernels it calls, and the
path taken for each is logged once at DEBUG.
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


def _direct_correlate1d(nd_image):
    """correlate1d calling nd_image's kernel as scipy's wrapper calls it."""
    def correlate1d(data, weights, axis, mode, output_dtype):
        if not 0 <= axis < data.ndim:
            raise ValueError(f"axis {axis} out of range for {data.ndim} dims")
        out = np.zeros(data.shape, dtype=output_dtype or data.dtype.name)
        nd_image.correlate1d(
            data, np.ascontiguousarray(weights, dtype=np.float64), axis, out,
            _MODE_CODES[mode], 0.0, 0)
        return out
    return correlate1d


def _direct_label(ni_label):
    """label calling ni_label's kernel as scipy's wrapper calls it."""
    def label(mask, structure):
        # scipy's rule: 32-bit ids unless the labels could overflow them
        dtype = np.intp if mask.size >= 2**31 - 2 else np.int32
        ids = np.empty(mask.shape, dtype=dtype)
        n = ni_label._label(mask, np.asarray(structure, dtype=bool), ids)
        return ids, n
    return label


def _public_correlate1d(data, weights, axis, mode, output_dtype):
    from scipy import ndimage

    return ndimage.correlate1d(data, weights, axis=axis, output=output_dtype,
                               mode=mode)


def _public_label(mask, structure):
    from scipy import ndimage

    return ndimage.label(mask, structure=structure)


def _check_correlate1d(correlate1d) -> dict[str, bool]:
    ramp = correlate1d(np.array([0.0, 1.0, 4.0, 9.0]), np.arange(1.0, 6.0), 0,
                       "reflect", None)
    return {"correlate1d": ramp.tolist() == [25.0, 64.0, 95.0, 92.0]}


def _check_label(label) -> dict[str, bool]:
    # diagonal neighbours: one component under 26- but two under 6-connectivity
    plane = np.array([[[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 0, 1]]], dtype=bool)
    faces = np.abs(np.indices((3, 3, 3)) - 1).sum(axis=0) <= 1
    ids6, n6 = label(plane, faces)
    ids26, n26 = label(plane, np.ones((3, 3, 3), dtype=bool))
    return {
        "6-connected label": (n6, ids6.tolist())
        == (4, [[[1, 0, 0, 2], [0, 3, 0, 0], [0, 0, 0, 4]]]),
        "26-connected label": (n26, ids26.tolist())
        == (3, [[[1, 0, 0, 2], [0, 1, 0, 0], [0, 0, 0, 3]]]),
    }


# per extension module: its kernel called directly, the public function
# that stands in for it, and the checks of the kernel's known answers
_MODULES = {
    "_nd_image": (_direct_correlate1d, _public_correlate1d, _check_correlate1d),
    "_ni_label": (_direct_label, _public_label, _check_label),
}


def _self_check(module: str, kernel) -> None:
    """Raise RuntimeError unless module's kernel gives the known answers."""
    checks = _MODULES[module][2](kernel)
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise RuntimeError(f"wrong answers from {', '.join(failed)}")


@functools.cache
def _choose(module: str):
    direct, public, _ = _MODULES[module]
    try:
        loaded = _load(module)
        kernel = direct(loaded)
        _self_check(module, kernel)
    # the entry points are private, so any failure to load or call them,
    # in any scipy version, means the public path
    except Exception as exc:
        log.debug("scipy.ndimage.%s: public functions "
                  "(direct call failed: %s: %s)", module, type(exc).__name__, exc)
        return public
    log.debug("scipy.ndimage.%s: direct from %s", module,
              Path(loaded.__file__).parent)
    return kernel


def _kernel(module: str):
    # the slab threads may make the first call together
    with _lock:
        return _choose(module)


def correlate1d(data: np.ndarray, weights: np.ndarray, axis: int, mode: str,
                output_dtype=None) -> np.ndarray:
    """``scipy.ndimage.correlate1d`` with cval 0 and origin 0.

    ``mode`` is "reflect" or "nearest"; the output has ``output_dtype``,
    or data's dtype when it is None.
    """
    return _kernel("_nd_image")(data, weights, axis, mode, output_dtype)


def label(mask: np.ndarray, structure: np.ndarray) -> tuple[np.ndarray, int]:
    """``scipy.ndimage.label``: component ids and their count.

    The ids are int32 unless the mask has 2**31 - 2 voxels or more.
    """
    return _kernel("_ni_label")(mask, structure)
