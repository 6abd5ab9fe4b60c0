"""Synthetic rock volumes with known ground truth.

Phantoms pair a grayscale volume (per-class intensities plus optional
additive Gaussian noise) with its exact label volume, so segmentation and
geometry operations can be scored against truth. Sphere interiors are
pore (class 0) inside a solid matrix (class 1); layered phantoms assign
one class per layer along z.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import BadParams
from .volume import Volume, VolumeHeader

log = logging.getLogger(__name__)

DEFAULT_INTENSITIES = (50.0, 200.0, 120.0, 230.0)  # pore, matrix, extra phases


def _paint_sphere(labels: np.ndarray, center, radius: float) -> None:
    cx, cy, cz = center
    nz, ny, nx = labels.shape
    x0, x1 = max(0, int(np.floor(cx - radius))), min(nx - 1, int(np.ceil(cx + radius)))
    y0, y1 = max(0, int(np.floor(cy - radius))), min(ny - 1, int(np.ceil(cy + radius)))
    z0, z1 = max(0, int(np.floor(cz - radius))), min(nz - 1, int(np.ceil(cz + radius)))
    zz, yy, xx = np.meshgrid(
        np.arange(z0, z1 + 1), np.arange(y0, y1 + 1), np.arange(x0, x1 + 1), indexing="ij")
    inside = (xx - cx) ** 2 + (yy - cy) ** 2 + (zz - cz) ** 2 <= radius ** 2
    sub = labels[z0:z1 + 1, y0:y1 + 1, x0:x1 + 1]
    sub[inside] = 0  # pore


def make_phantom(
    kind: str,
    dims: tuple[int, int, int],
    *,
    voxel_size_um: float = 1.0,
    noise_sigma: float = 0.0,
    seed: int = 0,
    intensities: tuple[float, ...] | None = None,
    radius: float | None = None,
    n_spheres: int | None = None,
    radius_range: tuple[float, float] | None = None,
    layer_thicknesses: tuple[int, ...] | None = None,
) -> tuple[Volume, Volume]:
    """Build a (grayscale, ground-truth label) volume pair.

    kind:
      * ``single_sphere``: one centered pore sphere of ``radius`` voxels.
      * ``sphere_pack``: ``n_spheres`` pore spheres with radii drawn from
        ``radius_range``, centers placed so every sphere fits the domain
        (overlap between spheres is allowed).
      * ``layered``: slabs along z with the given voxel thicknesses, one
        label per layer; thicknesses must sum to nz.

    Gaussian noise with standard deviation ``noise_sigma`` (intensity
    units) is added to the grayscale volume. The pore fraction of the
    ground truth is logged at INFO level.
    """
    nx, ny, nz = dims
    if min(dims) < 8:
        raise BadParams(f"phantom dims must be >= 8 per axis, got {dims}")
    if not noise_sigma >= 0:
        raise BadParams(f"noise_sigma must be >= 0, got {noise_sigma}")
    rng = np.random.default_rng(seed)

    if kind == "single_sphere":
        if radius is None:
            raise BadParams("single_sphere needs radius")
        if not 0 < 2 * radius < min(dims):
            raise BadParams(f"radius {radius} does not fit inside dims {dims}")
        labels = np.ones((nz, ny, nx), dtype=np.uint8)
        center = ((nx - 1) / 2.0, (ny - 1) / 2.0, (nz - 1) / 2.0)
        _paint_sphere(labels, center, float(radius))
        n_classes = 2
    elif kind == "sphere_pack":
        if n_spheres is None or n_spheres < 1:
            raise BadParams("sphere_pack needs n_spheres >= 1")
        r_lo, r_hi = radius_range if radius_range is not None else (3.0, 6.0)
        if not 0 < r_lo <= r_hi:
            raise BadParams(f"bad radius_range ({r_lo}, {r_hi})")
        if 2 * r_hi >= min(dims):
            raise BadParams(f"radius_range upper bound {r_hi} does not fit dims {dims}")
        labels = np.ones((nz, ny, nx), dtype=np.uint8)
        for _ in range(n_spheres):
            r = rng.uniform(r_lo, r_hi)
            cx = rng.uniform(r, nx - 1 - r)
            cy = rng.uniform(r, ny - 1 - r)
            cz = rng.uniform(r, nz - 1 - r)
            _paint_sphere(labels, (cx, cy, cz), r)
        n_classes = 2
    elif kind == "layered":
        if not layer_thicknesses:
            raise BadParams("layered needs layer_thicknesses")
        if any(t < 1 for t in layer_thicknesses):
            raise BadParams("layer thicknesses must be >= 1")
        if sum(layer_thicknesses) != nz:
            raise BadParams(
                f"layer thicknesses sum to {sum(layer_thicknesses)}, expected nz={nz}")
        labels = np.empty((nz, ny, nx), dtype=np.uint8)
        z0 = 0
        for i, t in enumerate(layer_thicknesses):
            labels[z0:z0 + t] = i
            z0 += t
        n_classes = len(layer_thicknesses)
    else:
        raise BadParams(f"unknown phantom kind {kind!r}")

    if intensities is None:
        intensities = DEFAULT_INTENSITIES[:n_classes]
    if len(intensities) < n_classes:
        raise BadParams(
            f"{n_classes} classes need {n_classes} intensities, got {len(intensities)}")

    gray = np.asarray(intensities, dtype=np.float32)[labels]
    if noise_sigma > 0:
        gray = gray + rng.normal(0.0, noise_sigma, size=gray.shape).astype(np.float32)

    pore_fraction = float(np.mean(labels == 0))
    log.info("phantom %s dims=%s pore_fraction=%.4f", kind, dims, pore_fraction)

    header_gray = VolumeHeader(dims, voxel_size_um, "grayscale", "f32")
    header_lab = VolumeHeader(dims, voxel_size_um, "label", "u8")
    return Volume(header_gray, gray.astype(np.float32)), Volume(header_lab, labels)
