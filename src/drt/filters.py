"""Per-voxel feature extraction and histogram-mixture thresholding.

The feature bank is a Gaussian scale space: the raw volume, smoothings at
a ladder of scales, and difference-of-Gaussian (DoG) band-pass channels
between consecutive scales. Smoothing is a separable 3-pass convolution
with a sampled Gaussian kernel truncated at radius ceil(3*sigma) and
renormalized to sum 1; filter math runs in float64 and results are stored
as float32. Each pass runs in pieces (``volume.pieces``) along an axis it
does not filter, so no pass holds a second float64 copy of what it smooths.

``build_feature_stack`` builds the whole volume as one (nz, ny, nx, F)
float32 array and stays as the reference. ``slab_channels`` yields the
channels of planes [z0, z1) one at a time, which stacked by index equal
``build_feature_stack(v, cfg)[z0:z1]``; ``sample_features`` gives the
rows at (x, y, z) voxels, equal to
``build_feature_stack(v, cfg)[z, y, x]``; ``map_slabs`` streams the slabs
on a thread pool, handing each one's channels to a callback.

``iroga_threshold`` segments a grayscale volume by fitting a 1-D Gaussian
mixture to its 256-bin intensity histogram with EM and cutting at the
intersections of adjacent weighted component densities.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from . import _ndi
from .config import _BOUNDARY_TO_SCIPY, FeatureBankConfig
from .errors import BadParams, BadSigmaOrder, DegenerateHistogram, NoConvergence, SigmaTooLarge
from .rng import SplitMix64
from .volume import Volume, pieces

# voxels per slab before the halo floor; 24 planes at 96^3. Not a piece
# budget: it sets the slab count, and with it the grain of the thread pool
SLAB_VOXELS = 1 << 18

log = logging.getLogger(__name__)


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Sampled Gaussian truncated at radius ceil(3*sigma), normalized to sum 1."""
    radius = math.ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


def _smooth_array(data: np.ndarray, sigma: float, boundary_mode: str,
                  keep: slice = slice(None)) -> np.ndarray:
    """Smooth along z, keep the planes `keep`, then smooth them along y and
    x; float32 (kept planes, ny, nx).

    correlate1d filters each line on its own, through float64 line buffers,
    so every pass may run in pieces along an axis it does not filter. The z
    pass runs in y-pieces of the input and writes only the kept planes into
    one float64 buffer; the y pass runs in x-pieces of that buffer, back into
    it; the x pass writes float32 from its float64 line buffers, which rounds
    as astype does. The y and x passes act within planes, so cropping after
    the z pass leaves the kept planes bit-identical to cropping at the end.
    """
    kernel = gaussian_kernel_1d(sigma)
    mode = _BOUNDARY_TO_SCIPY[boundary_mode]
    nz, ny, nx = data.shape
    out = np.empty((len(range(nz)[keep]), ny, nx))
    for a, b in pieces(ny, nz * nx):
        piece = _ndi.correlate1d(data[:, a:b], kernel, 0, mode, np.float64)
        out[:, a:b] = piece[keep]
    for a, b in pieces(nx, out.shape[0] * ny):
        piece = out[..., a:b]
        piece[...] = _ndi.correlate1d(piece, kernel, 1, mode)
    return _ndi.correlate1d(out, kernel, 2, mode, np.float32)


def _check_sigma(sigma: float, dims: tuple[int, int, int]) -> None:
    if not sigma > 0:
        raise SigmaTooLarge(f"sigma must be positive, got {sigma}")
    if sigma > min(dims) / 2:
        raise SigmaTooLarge(f"sigma {sigma} exceeds min(dims)/2 = {min(dims) / 2}")


def gaussian_smooth(volume: Volume, sigma_vox: float, boundary_mode: str = "mirror") -> Volume:
    """Separable Gaussian smoothing; output dims equal input dims."""
    _check_sigma(sigma_vox, volume.dims)
    if boundary_mode not in _BOUNDARY_TO_SCIPY:
        raise ValueError(f"boundary_mode must be one of {tuple(_BOUNDARY_TO_SCIPY)}")
    smoothed = _smooth_array(volume.data, sigma_vox, boundary_mode)
    return volume.with_data(smoothed, value_kind="grayscale", element_encoding="f32")


def difference_of_gaussian(volume: Volume, sigma_lo: float, sigma_hi: float,
                           boundary_mode: str = "mirror") -> Volume:
    """Band-pass channel: smooth(sigma_lo) minus smooth(sigma_hi), voxelwise."""
    if not sigma_lo < sigma_hi:
        raise BadSigmaOrder(f"need sigma_lo < sigma_hi, got {sigma_lo} >= {sigma_hi}")
    lo = gaussian_smooth(volume, sigma_lo, boundary_mode)
    hi = gaussian_smooth(volume, sigma_hi, boundary_mode)
    return volume.with_data(lo.data - hi.data, value_kind="grayscale",
                            element_encoding="f32")


def build_feature_stack(volume: Volume, cfg: FeatureBankConfig) -> np.ndarray:
    """Raw, Gaussian, and consecutive-pair DoG channels in declared order.

    Builds the whole volume at once as one (nz, ny, nx, F) float32 array;
    the reference that slab_channels and sample_features are tested against.
    """
    channels: list[np.ndarray] = []
    if cfg.include_raw:
        channels.append(np.asarray(volume.data, dtype=np.float32))
    smoothed = [gaussian_smooth(volume, s, cfg.boundary_mode) for s in cfg.sigmas_vox]
    channels += [s.data for s in smoothed]
    channels += [lo.data - hi.data for lo, hi in zip(smoothed, smoothed[1:])]
    return np.stack(channels, axis=-1)


def slab_channels(volume: Volume, cfg: FeatureBankConfig, z0: int, z1: int):
    """Yield (f, channel f of planes [z0, z1)) as float32 (z1 - z0, ny, nx).

    Stacked by f, the channels equal build_feature_stack(volume, cfg)[z0:z1].
    The raw channel comes first, then each Gaussian, each DoG right after
    the second Gaussian it needs, so at most one earlier Gaussian is held.
    For each scale the z pass reads the planes within its kernel radius
    ceil(3*sigma) of the slab, clipped to the volume, so it sees the real
    neighbour planes inside and the whole volume's boundary extension at
    its faces; the y and x passes run on the slab's planes only. Each pass
    runs in pieces (_smooth_array), so a Gaussian holds one float64 buffer
    of the slab, not of the slab and its halo, beside its float32 channel.
    Sigmas are not checked here: map_slabs checks them against the whole
    volume. The raw channel may be a view of the volume's data.
    """
    nz = volume.data.shape[0]
    g = 0
    if cfg.include_raw:
        yield 0, np.asarray(volume.data[z0:z1], dtype=np.float32)
        g = 1
    k = len(cfg.sigmas_vox)
    prev = None
    for j, sigma in enumerate(cfg.sigmas_vox):
        r = math.ceil(3.0 * sigma)
        lo, hi = max(0, z0 - r), min(nz, z1 + r)
        cur = _smooth_array(volume.data[lo:hi], sigma, cfg.boundary_mode,
                            keep=slice(z0 - lo, z1 - lo))
        yield g + j, cur
        if prev is not None:
            yield g + k + j - 1, prev - cur
        prev = cur


def sample_features(volume: Volume, cfg: FeatureBankConfig, coords_xyz: np.ndarray,
                    *, threads: int = 1) -> np.ndarray:
    """Feature rows (N, F) at integer voxel coordinates (N, 3) as x,y,z.

    Row i equals build_feature_stack(volume, cfg)[z, y, x] at coords_xyz[i]
    = (x, y, z); only the slabs that hold one of the voxels are computed,
    and each is read one channel at a time. Coordinates that are not of
    shape (N, 3) or lie outside [0, dims) raise BadParams.
    """
    coords = np.asarray(coords_xyz, dtype=np.int64)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise BadParams(f"coords_xyz must be of shape (N, 3), got {coords.shape}")
    outside = np.flatnonzero(((coords < 0) | (coords >= volume.dims)).any(axis=1))
    if outside.size:
        raise BadParams(f"coords_xyz row {outside[0]}: voxel "
                        f"{tuple(coords[outside[0]].tolist())} outside dims {volume.dims}")
    rows = np.empty((coords.shape[0], cfg.feature_count), dtype=np.float32)
    x, y, z = coords.T

    def take(z0: int, z1: int, channels) -> None:
        hit = np.nonzero((z >= z0) & (z < z1))[0]
        at = (z[hit] - z0, y[hit], x[hit])
        for f, channel in channels:
            rows[hit, f] = channel[at]

    map_slabs(volume, cfg, take, threads=threads, planes=z)
    return rows


def slab_bounds(dims: tuple[int, int, int], cfg: FeatureBankConfig,
                threads: int) -> list[tuple[int, int]]:
    """The z ranges [z0, z1) that map_slabs splits a volume into.

    The count is that of slabs of SLAB_VOXELS voxels, rounded up to a
    multiple of threads, then cut so that no slab is thinner than the
    widest halo ceil(3*sigma_max) unless the volume is. Heights differ by
    at most one plane.
    """
    nx, ny, nz = dims
    n = math.ceil(math.ceil(nx * ny * nz / SLAB_VOXELS) / threads) * threads
    n = max(1, min(n, nz // math.ceil(3.0 * max(cfg.sigmas_vox))))
    return [(i * nz // n, (i + 1) * nz // n) for i in range(n)]


def map_slabs(volume: Volume, cfg: FeatureBankConfig, fn, *, threads: int = 1,
              planes: np.ndarray | None = None) -> None:
    """Call fn(z0, z1, slab_channels(volume, cfg, z0, z1)) for each z-slab.

    The slabs run on a pool of min(threads, slabs) threads; scipy's
    correlate1d and the numpy kernels release the GIL, so they run in
    parallel. fn is called from the pool and must write only what belongs
    to its slab; the channels are computed as fn iterates over them, so a
    slab's feature stack is never built. With `planes`, only the slabs
    holding one of those z indices are computed. The sigmas are checked
    against the whole volume first, whichever slabs run. A worker's
    exception is raised here.
    """
    _check_sigma(max(cfg.sigmas_vox), volume.dims)
    nz = volume.dims[2]
    bounds = slab_bounds(volume.dims, cfg, threads)
    if planes is not None:
        hit = np.zeros(nz, dtype=bool)
        hit[planes] = True
        bounds = [(z0, z1) for z0, z1 in bounds if hit[z0:z1].any()]
    workers = max(1, min(threads, len(bounds)))
    halo = sum(min(nz, z1 + r) - max(0, z0 - r) - (z1 - z0)
               for z0, z1 in bounds
               for r in (math.ceil(3.0 * s) for s in cfg.sigmas_vox))
    log.debug("feature slabs: %d slabs, height %d, %d workers, "
              "%d halo planes recomputed", len(bounds),
              max((z1 - z0 for z0, z1 in bounds), default=0), workers, halo)

    def run(zs: tuple[int, int]) -> None:
        fn(*zs, slab_channels(volume, cfg, *zs))

    # imported here so that the stages without slabs do not load it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        for _ in pool.map(run, bounds):
            pass


def _kmeanspp_init(centers: np.ndarray, weights: np.ndarray, k: int,
                   rng: SplitMix64) -> np.ndarray:
    """k-means++ seeding over weighted histogram bin centers."""
    prob = weights / weights.sum()
    means = [_weighted_choice(centers, prob, rng)]
    for _ in range(k - 1):
        d2 = np.min([(centers - m) ** 2 for m in means], axis=0)
        score = prob * d2
        total = score.sum()
        if total <= 0:
            # all remaining mass sits on already-chosen centers
            remaining = np.setdiff1d(centers[weights > 0], np.array(means))
            means.append(remaining[0] if remaining.size else means[-1])
            continue
        means.append(_weighted_choice(centers, score / total, rng))
    return np.sort(np.asarray(means, dtype=np.float64))


def _weighted_choice(values: np.ndarray, prob: np.ndarray, rng: SplitMix64) -> float:
    u = rng.uniform()
    idx = int(np.searchsorted(np.cumsum(prob), u, side="right"))
    return float(values[min(idx, len(values) - 1)])


def fit_histogram_gmm(values: np.ndarray, n_components: int, *, n_bins: int = 256,
                      seed: int = 0, max_iter: int = 200, tol: float = 1e-8):
    """EM fit of a 1-D Gaussian mixture to a value histogram.

    Returns (weights, means, stds) sorted by ascending mean. Raises
    DegenerateHistogram when there are fewer distinct values than
    components and NoConvergence when EM does not reach the mean
    log-likelihood tolerance within max_iter iterations.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    distinct = np.unique(values)
    if distinct.size < n_components:
        raise DegenerateHistogram(
            f"{distinct.size} distinct values cannot support {n_components} components")

    lo, hi = float(distinct[0]), float(distinct[-1])
    counts, edges = np.histogram(values, bins=n_bins, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    weights_b = counts.astype(np.float64)
    bin_width = edges[1] - edges[0]
    var_floor = max(bin_width * bin_width / 12.0, 1e-12)

    rng = SplitMix64(seed)
    means = _kmeanspp_init(centers, weights_b, n_components, rng)
    # hard-assignment start for weights and variances
    assign = np.argmin(np.abs(centers[:, None] - means[None, :]), axis=1)
    n_total = weights_b.sum()
    pis = np.empty(n_components)
    variances = np.empty(n_components)
    for j in range(n_components):
        w = weights_b[assign == j]
        c = centers[assign == j]
        mass = w.sum()
        pis[j] = max(mass / n_total, 1e-12)
        if mass > 0:
            mu = (w * c).sum() / mass
            variances[j] = max(((c - mu) ** 2 * w).sum() / mass, var_floor)
            means[j] = mu
        else:
            variances[j] = var_floor
    pis = pis / pis.sum()

    prev_ll = -np.inf
    converged = False
    for _ in range(max_iter):
        # E step on binned data
        diff = centers[:, None] - means[None, :]
        log_pdf = (-0.5 * diff * diff / variances[None, :]
                   - 0.5 * np.log(2.0 * np.pi * variances[None, :])
                   + np.log(pis[None, :]))
        log_max = log_pdf.max(axis=1, keepdims=True)
        dens = np.exp(log_pdf - log_max)
        norm = dens.sum(axis=1, keepdims=True)
        resp = dens / norm
        ll = float((weights_b * (np.log(norm[:, 0]) + log_max[:, 0])).sum() / n_total)

        # M step
        mass = (weights_b[:, None] * resp).sum(axis=0)
        mass = np.maximum(mass, 1e-12)
        means = ((weights_b[:, None] * resp * centers[:, None]).sum(axis=0)) / mass
        variances = ((weights_b[:, None] * resp * (centers[:, None] - means[None, :]) ** 2)
                     .sum(axis=0)) / mass
        variances = np.maximum(variances, var_floor)
        pis = mass / mass.sum()

        if abs(ll - prev_ll) < tol:
            converged = True
            break
        prev_ll = ll
    if not converged:
        raise NoConvergence(f"EM did not converge within {max_iter} iterations")

    order = np.argsort(means)
    return pis[order], means[order], np.sqrt(variances[order])


def _gaussian_intersection(pi1, mu1, s1, pi2, mu2, s2) -> float:
    """Abscissa where two weighted Gaussian densities cross, between the means."""
    if mu1 > mu2:
        pi1, mu1, s1, pi2, mu2, s2 = pi2, mu2, s2, pi1, mu1, s1
    if mu1 == mu2:
        return float(mu1)
    a = 1.0 / (2.0 * s2 * s2) - 1.0 / (2.0 * s1 * s1)
    b = mu1 / (s1 * s1) - mu2 / (s2 * s2)
    c = (mu2 * mu2 / (2.0 * s2 * s2) - mu1 * mu1 / (2.0 * s1 * s1)
         + math.log((pi1 * s2) / (pi2 * s1)))
    midpoint = 0.5 * (mu1 + mu2)
    if abs(a) < 1e-300:
        if b == 0:
            return midpoint
        root = -c / b
        return root if mu1 < root < mu2 else midpoint
    disc = b * b - 4.0 * a * c
    if disc < 0:
        return midpoint
    sq = math.sqrt(disc)
    for root in ((-b + sq) / (2.0 * a), (-b - sq) / (2.0 * a)):
        if mu1 < root < mu2:
            return float(root)
    return midpoint


def iroga_threshold(volume: Volume, n_components: int = 2, *,
                    seed: int = 0) -> tuple[Volume, list[float]]:
    """Histogram Gaussian-mixture thresholding of a grayscale volume.

    Fits an ``n_components`` mixture to the 256-bin intensity histogram and
    thresholds at intersections of adjacent weighted component densities.
    Returns a label volume (classes ordered by ascending mean intensity)
    and the threshold list.
    """
    if n_components not in (2, 3):
        raise ValueError(f"n_components must be 2 or 3, got {n_components}")
    pis, means, stds = fit_histogram_gmm(volume.flat, n_components, seed=seed)
    thresholds = [
        _gaussian_intersection(pis[j], means[j], stds[j],
                               pis[j + 1], means[j + 1], stds[j + 1])
        for j in range(n_components - 1)
    ]
    labels = np.digitize(np.asarray(volume.data, dtype=np.float64), thresholds)
    label_volume = volume.with_data(labels.astype(np.uint8), value_kind="label",
                                    element_encoding="u8")
    return label_volume, [float(t) for t in thresholds]
