"""Pore-space morphology: components, distance fields, throat sizes.

Connectivity analysis takes a label volume plus the set of class ids
regarded as foreground; the distance and thickness transforms take a
binary mask volume (nonzero = foreground). Component ids are scipy's, in
order of each component's first voxel in flat x-fastest scan order, with 0
reserved for background. Distances are Euclidean and exact; local
thickness at a voxel is the diameter of the largest inscribed ball
covering it, in physical units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _ndi
from .errors import BadParams, NoPoreVoxels, TooFewPoints
from .fileio import write_csv, write_json
from .volume import Volume

# the face and the full 3x3x3 neighbourhood, equal to scipy's
# generate_binary_structure(3, 1) and (3, 3); scipy's kernels are loaded by
# drt._ndi on first use, so a process that never calls them does not load
# scipy
_STRUCTS = {
    6: np.abs(np.indices((3, 3, 3)) - 1).sum(axis=0) <= 1,
    26: np.ones((3, 3, 3), dtype=bool),
}

# entries per local-thickness scatter batch: bounds the index array for
# groups of many centers with large balls
_SCATTER_BATCH = 1 << 18


def _as_class_set(foreground) -> frozenset[int]:
    classes = {int(foreground)} if isinstance(foreground, (int, np.integer)) \
        else {int(c) for c in foreground}
    if not classes:
        raise BadParams("foreground class set must not be empty")
    if any(c < 0 for c in classes):
        raise BadParams(f"class ids must be >= 0, got {sorted(classes)}")
    return frozenset(classes)


def binary_mask(labels: Volume, foreground) -> Volume:
    """0/1 mask volume marking voxels whose label is in the foreground set."""
    classes = _as_class_set(foreground)
    mask = np.isin(labels.data, sorted(classes))
    return labels.with_data(mask.astype(np.uint8), value_kind="label",
                            element_encoding="u8")


@dataclass
class ComponentMap:
    """Connected-component labeling of a foreground mask.

    ``volume`` holds int32 component ids (0 = background, ids dense in
    1..n_components); ``sizes[i]`` is the voxel count of component i+1;
    ``face_touch`` row i holds, for component i+1, whether it reaches the
    low and high face along x, y, z as columns (x_lo, x_hi, y_lo, y_hi,
    z_lo, z_hi).
    """

    volume: Volume
    n_components: int
    sizes: np.ndarray
    face_touch: np.ndarray = field(repr=False)

    def percolates(self, axis: str) -> np.ndarray:
        """Per-component flag: touches both opposite faces along axis x|y|z."""
        col = {"x": 0, "y": 2, "z": 4}[axis]
        return self.face_touch[:, col] & self.face_touch[:, col + 1]

    def percolates_any_axis(self) -> np.ndarray:
        out = np.zeros(self.n_components, dtype=bool)
        for axis in ("x", "y", "z"):
            out |= self.percolates(axis)
        return out

    def dominant_percolates(self) -> bool:
        """Whether the largest component touches both faces along some axis."""
        dominant = self.largest_component()
        return dominant > 0 and bool(self.percolates_any_axis()[dominant - 1])

    def largest_component(self) -> int:
        """Id of the most voxel-rich component (lowest id wins ties); 0 if none."""
        if self.n_components == 0:
            return 0
        return int(np.argmax(self.sizes)) + 1


def connected_components(labels: Volume, foreground=frozenset({0}),
                         connectivity: int = 26) -> ComponentMap:
    """Label foreground components under 6- or 26-connectivity.

    ``foreground`` is a class id or set of class ids. An empty foreground
    is not an error: the result has zero components.
    """
    if connectivity not in _STRUCTS:
        raise BadParams(f"connectivity must be 6 or 26, got {connectivity}")
    classes = _as_class_set(foreground)
    mask = np.isin(labels.data, sorted(classes))
    # scipy gives each component the smallest provisional label among its
    # voxels, which is its first voxel's: ids come in flat scan order
    comp, n_raw = _ndi.label(mask, _STRUCTS[connectivity])
    sizes = np.bincount(comp.ravel(), minlength=n_raw + 1)[1:].astype(np.int64)
    face_touch = np.zeros((n_raw, 6), dtype=bool)
    if n_raw:
        faces = [comp[:, :, 0], comp[:, :, -1],   # x low, x high
                 comp[:, 0, :], comp[:, -1, :],   # y low, y high
                 comp[0, :, :], comp[-1, :, :]]   # z low, z high
        for col, face in enumerate(faces):
            ids = np.unique(face)
            ids = ids[ids > 0]
            face_touch[ids - 1, col] = True
    volume = labels.with_data(comp, value_kind="label", element_encoding="u16")
    return ComponentMap(volume=volume, n_components=int(n_raw), sizes=sizes,
                        face_touch=face_touch)


def euclidean_distance_transform(mask: Volume) -> Volume:
    """Exact Euclidean distance (voxel units) to the nearest background voxel.

    Foreground is any nonzero value. Background voxels map to 0; when no
    background voxel exists every distance is the +inf sentinel.
    """
    fg = mask.data != 0
    out = np.zeros(fg.shape, dtype=np.float64)
    if fg.all():
        out[:] = np.inf
    elif fg.any():
        # scipy's EDT sums the same integer squares in float64, exactly
        # below 2**53, so this square root equals it bit for bit
        out = np.sqrt(_squared_distances(fg))
    return mask.with_data(out, value_kind="distance", element_encoding="f32")


def _squared_distances(fg: np.ndarray) -> np.ndarray:
    """Exact int32 squared distance to the nearest background voxel of fg."""
    nearest = _ndi.feature_transform(fg)
    for axis, grid in enumerate(np.ogrid[tuple(slice(n) for n in fg.shape)]):
        nearest[axis] -= grid
    nearest *= nearest
    return nearest.sum(axis=0, dtype=np.int32)


def local_thickness(mask: Volume, voxel_size_um: float | None = None) -> Volume:
    """Largest-inscribed-ball diameter covering each pore voxel, in microns.

    thickness(v) = 2 * voxel_size * max{ r(c) : |c - v| <= r(c) } over
    foreground voxels c, and 0 on background. Computed on the exact integer
    r², summed from the offsets to the nearest background voxel that scipy's
    feature transform returns: the centers are grouped by r², and each
    group's balls are scattered at once into a grid padded so that no ball
    wraps. Groups go in ascending r² order, so every covered voxel ends up
    holding its largest covering r². The voxel size defaults to the mask's.
    """
    fg = mask.data != 0
    vs = mask.header.voxel_size_um if voxel_size_um is None else float(voxel_size_um)
    if vs <= 0:
        raise BadParams(f"voxel size must be positive, got {vs}")
    if not fg.any():
        return mask.with_data(np.zeros(fg.shape), value_kind="throat_size",
                              element_encoding="f32")
    if fg.all():
        return mask.with_data(np.full(fg.shape, np.inf), value_kind="throat_size",
                              element_encoding="f32")

    center_r2 = _squared_distances(fg)[fg]
    # a ball reaches no further than r_max, and an offset beyond n - 1
    # leaves the volume from every center
    pad = [min(math.isqrt(int(center_r2.max())), n - 1) for n in fg.shape]
    centers = np.flatnonzero(np.pad(fg, [(p, p) for p in pad]))
    th2 = np.zeros([n + 2 * p for n, p in zip(fg.shape, pad)], dtype=np.int32)
    sz, sy = th2.shape[1] * th2.shape[2], th2.shape[2]
    dz, dy, dx = np.ogrid[tuple(slice(-p, p + 1) for p in pad)]
    d2 = (dz * dz + dy * dy + dx * dx).ravel()
    by_length = np.argsort(d2, kind="stable")
    # the ball of squared radius s is the prefix of offsets with d2 <= s
    d2 = d2[by_length]
    offsets = (dz * sz + dy * sy + dx).ravel()[by_length]

    order = np.argsort(center_r2, kind="stable")
    centers, center_r2 = centers[order], center_r2[order]
    values, starts = np.unique(center_r2, return_index=True)
    flat = th2.reshape(-1)
    for value, group in zip(values.tolist(), np.split(centers, starts[1:])):
        ball = offsets[:np.searchsorted(d2, value, side="right")]
        step = max(1, _SCATTER_BATCH // ball.size)
        for i in range(0, group.size, step):
            flat[(group[i:i + step, None] + ball).ravel()] = value

    inner = tuple(slice(p, p + n) for p, n in zip(pad, fg.shape))
    th2 = np.where(fg, th2[inner], 0)
    out = 2.0 * vs * np.sqrt(th2.astype(np.float64))
    return mask.with_data(out, value_kind="throat_size", element_encoding="f32")


@dataclass
class PoreThroatDistribution:
    """Log-binned histogram of pore-throat sizes with band fractions.

    Band fractions come from the raw values: f_micro is the fraction below
    t_micro_um, f_macro the fraction above t_macro_um, f_meso the rest.
    Peaks are histogram modes with prominence at least 5% of total count,
    reported at the geometric center of their bin.
    """

    bin_edges_um: np.ndarray
    counts: np.ndarray
    n_values: int
    f_micro: float
    f_meso: float
    f_macro: float
    t_micro_um: float
    t_macro_um: float
    peaks_um: list[float]

    @property
    def fractions(self) -> tuple[float, float, float]:
        return (self.f_micro, self.f_meso, self.f_macro)

    def to_json_dict(self) -> dict:
        return {
            "bin_edges_um": [float(e) for e in self.bin_edges_um],
            "counts": [int(c) for c in self.counts],
            "n_values": self.n_values,
            "f_micro": self.f_micro,
            "f_meso": self.f_meso,
            "f_macro": self.f_macro,
            "cutoffs_um": [self.t_micro_um, self.t_macro_um],
            "peaks_um": self.peaks_um,
        }

    def save_json(self, path) -> None:
        write_json(path, self.to_json_dict())

    def save_csv(self, path) -> None:
        write_csv(path, [["bin_lo_um", "bin_hi_um", "count"]] + [
            [f"{lo:.6g}", f"{hi:.6g}", int(c)]
            for lo, hi, c in zip(self.bin_edges_um, self.bin_edges_um[1:],
                                 self.counts)])


def throat_distribution(thickness: Volume,
                        cutoffs: tuple[float, float] = (10.0, 100.0),
                        n_bins: int = 32) -> PoreThroatDistribution:
    """Histogram positive local-thickness values into log-spaced bins."""
    t_micro_um, t_macro_um = (float(c) for c in cutoffs)
    if n_bins < 1:
        raise BadParams(f"n_bins must be >= 1, got {n_bins}")
    if not 0 < t_micro_um < t_macro_um:
        raise BadParams(
            f"need 0 < t_micro < t_macro, got {t_micro_um}, {t_macro_um}")
    values = np.asarray(thickness.data, dtype=np.float64).ravel()
    values = values[np.isfinite(values) & (values > 0)]
    if values.size == 0:
        raise NoPoreVoxels("no positive finite thickness values to bin")
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        lo, hi = lo / 1.01, hi * 1.01
    edges = np.geomspace(lo, hi, n_bins + 1)
    edges[0], edges[-1] = lo, hi
    counts, _ = np.histogram(values, bins=edges)

    f_micro = float(np.mean(values < t_micro_um))
    f_macro = float(np.mean(values > t_macro_um))
    f_meso = 1.0 - f_micro - f_macro

    centers = np.sqrt(edges[:-1] * edges[1:])
    peaks = [float(centers[i])
             for i in _prominent_peaks(counts, 0.05 * values.size)]
    return PoreThroatDistribution(
        bin_edges_um=edges, counts=counts, n_values=int(values.size),
        f_micro=f_micro, f_meso=f_meso, f_macro=f_macro,
        t_micro_um=t_micro_um, t_macro_um=t_macro_um, peaks_um=peaks)


def _prominent_peaks(counts: np.ndarray, min_prominence: float) -> list[int]:
    """Indices of the histogram modes whose prominence reaches min_prominence.

    The counts are padded with a zero bin at each end, so edge bins can be
    modes. A mode is a sample or plateau higher than both neighbours,
    reported at the middle of the plateau rounded down. Its prominence is
    its height minus the higher of its two bases, a base being the lowest
    count between the mode and the nearest higher count on that side (or
    the end of the padded counts).
    """
    x = [0] + [int(c) for c in counts] + [0]
    last = len(x) - 1
    peaks = []
    i = 1
    while i < last:
        j = i  # last sample of the plateau that starts at i
        while j + 1 < last and x[j + 1] == x[i]:
            j += 1
        if x[i - 1] < x[i] > x[j + 1]:
            mid, height = (i + j) // 2, x[i]
            lo, hi = i, j
            while lo > 0 and x[lo - 1] <= height:
                lo -= 1
            while hi < last and x[hi + 1] <= height:
                hi += 1
            base = max(min(x[lo:i + 1]), min(x[j:hi + 1]))
            if height - base >= min_prominence:
                peaks.append(mid - 1)
        i = j + 1
    return peaks


def _pava_nondecreasing(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted least-squares fit of a non-decreasing sequence to y."""
    blocks: list[list[float]] = []  # [weighted sum, weight, run length]
    for yi, wi in zip(y, w):
        blocks.append([yi * wi, wi, 1])
        while (len(blocks) > 1
               and blocks[-2][0] * blocks[-1][1] > blocks[-1][0] * blocks[-2][1]):
            swy, sw, cnt = blocks.pop()
            blocks[-1][0] += swy
            blocks[-1][1] += sw
            blocks[-1][2] += cnt
    out = np.empty(len(y), dtype=np.float64)
    pos = 0
    for swy, sw, cnt in blocks:
        out[pos:pos + cnt] = swy / sw
        pos += cnt
    return out


@dataclass(frozen=True)
class IntensityThroatCalibration:
    """Monotone piecewise-linear map from image intensity to throat size."""

    knots_intensity: tuple[float, ...]
    knots_throat_um: tuple[float, ...]

    def __call__(self, intensity) -> np.ndarray:
        x = np.asarray(intensity, dtype=np.float64)
        # np.interp clamps to the first/last knot outside the fitted range
        return np.interp(x, self.knots_intensity, self.knots_throat_um)

    def to_json_dict(self) -> dict:
        return {
            "knots_intensity": list(self.knots_intensity),
            "knots_throat_um": list(self.knots_throat_um),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "IntensityThroatCalibration":
        return cls(knots_intensity=tuple(float(v) for v in d["knots_intensity"]),
                   knots_throat_um=tuple(float(v) for v in d["knots_throat_um"]))


def fit_intensity_calibration(pairs) -> IntensityThroatCalibration:
    """Fit the monotone intensity-to-throat map by isotonic regression.

    ``pairs`` is a sequence of (intensity, throat_um) control points.
    Repeated intensities are merged to their mean throat before the
    pool-adjacent-violators fit. Needs at least two distinct intensities.
    """
    pts = np.asarray(list(pairs), dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise BadParams(f"pairs must be (intensity, throat_um) tuples, "
                        f"got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise BadParams("calibration points must be finite")
    x, y = pts[:, 0], pts[:, 1]
    xs, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    if xs.size < 2:
        raise TooFewPoints(
            f"need at least 2 distinct intensities, got {xs.size}")
    sums = np.zeros(xs.size, dtype=np.float64)
    np.add.at(sums, inverse, y)
    means = sums / counts
    fitted = _pava_nondecreasing(means, counts.astype(np.float64))
    return IntensityThroatCalibration(
        knots_intensity=tuple(float(v) for v in xs),
        knots_throat_um=tuple(float(v) for v in fitted))


def apply_calibration(cal: IntensityThroatCalibration, volume: Volume) -> Volume:
    """Voxelwise intensity-to-throat-size mapping of a grayscale volume."""
    mapped = cal(np.asarray(volume.data, dtype=np.float64))
    return volume.with_data(mapped, value_kind="throat_size",
                            element_encoding="f32")
