"""Pore-space morphology: components, distance fields, throat sizes.

``binary_mask`` turns a label volume and a set of class ids into a
boolean mask, which every transform here reads without a copy (of other
masks, nonzero is foreground). Component ids are scipy's, in order of
each component's first voxel in flat x-fastest scan order, with 0 for
background. Distances are Euclidean and exact; local thickness at a voxel
is the diameter of the largest inscribed ball covering it, in physical
units. The mask, the EDT and the painting run in ``volume.pieces``.
"""

from __future__ import annotations

import logging
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from . import _ndi
from .errors import BadParams, NoPoreVoxels, TooFewPoints
from .fileio import json_array, write_csv, write_json
from .volume import Volume, pieces

log = logging.getLogger(__name__)

# the face and the full 3x3x3 neighbourhood, equal to scipy's
# generate_binary_structure(3, 1) and (3, 3); scipy's kernels are loaded by
# drt._ndi on first use, so a process that never calls them does not load
# scipy
_STRUCTS = {
    6: np.abs(np.indices((3, 3, 3)) - 1).sum(axis=0) <= 1,
    26: np.ones((3, 3, 3), dtype=bool),
}


def binary_mask(labels: Volume, classes) -> Volume:
    """Boolean mask volume marking voxels whose label is in ``classes``.

    The one reader of a class set: a class id or a non-empty iterable of
    them, each an integer >= 0, else BadParams (0.7 and "0" included); so
    also the one test of whether a label value is a class id. Declared u8.
    """
    if isinstance(classes, (int, np.integer)):
        classes = [classes]
    try:
        ids = sorted({operator.index(c) for c in classes})
    except TypeError as exc:
        raise BadParams(f"class ids must be integers, got {classes!r}") from exc
    if not ids:
        raise BadParams("class set must not be empty")
    if ids[0] < 0:
        raise BadParams(f"class ids must be >= 0, got {ids}")
    # kind="sort" ORs one comparison per id when there are few (the table
    # path indexes an intp grid); past some 50 ids it sorts, so by pieces
    data = labels.data
    out = np.empty(data.shape, dtype=bool)
    for a, b in pieces(len(data), data[0].size):
        out[a:b] = np.isin(data[a:b], ids, kind="sort")
    return labels.with_data(out, value_kind="label", element_encoding="u8")


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


def connected_components(mask: Volume, connectivity: int = 26) -> ComponentMap:
    """Label the nonzero voxels of a mask under 6- or 26-connectivity.

    A mask without foreground is not an error: the result has zero
    components.
    """
    if connectivity not in _STRUCTS:
        raise BadParams(f"connectivity must be 6 or 26, got {connectivity}")
    # a bool mask: drt._ndi checks its label kernel on bool masks only
    fg = mask.data.astype(bool, copy=False)
    # scipy gives each component the smallest provisional label among its
    # voxels, which is its first voxel's: ids come in flat scan order
    comp, n_raw = _ndi.label(fg, _STRUCTS[connectivity])
    del fg
    # a block at a time, as bincount widens the ids to intp (8 B/voxel); not
    # a piece budget, as each block costs n_raw + 1 counts: blocks of a plane,
    # or of n_raw ids if that is more, keep the work linear in the voxels
    flat = comp.reshape(-1)
    step = max(comp[0].size, n_raw + 1)
    counts = np.zeros(n_raw + 1, dtype=np.int64)
    for i in range(0, flat.size, step):
        counts += np.bincount(flat[i:i + step], minlength=n_raw + 1)
    sizes = counts[1:]
    face_touch = np.zeros((n_raw, 6), dtype=bool)
    if n_raw:
        faces = [comp[:, :, 0], comp[:, :, -1],   # x low, x high
                 comp[:, 0, :], comp[:, -1, :],   # y low, y high
                 comp[0, :, :], comp[-1, :, :]]   # z low, z high
        for col, face in enumerate(faces):
            face_touch[face[face > 0] - 1, col] = True
    volume = mask.with_data(comp, value_kind="label", element_encoding="u16")
    return ComponentMap(volume=volume, n_components=int(n_raw), sizes=sizes,
                        face_touch=face_touch)


def euclidean_distance_transform(mask: Volume) -> Volume:
    """Exact Euclidean distance (voxel units) to the nearest background voxel.

    Foreground is any nonzero value. Background voxels map to 0; when no
    background voxel exists every distance is the +inf sentinel.
    """
    fg = mask.data.astype(bool, copy=False)
    if fg.any() and not fg.all():
        # scipy's EDT sums the same integer squares in float64, exactly
        # below 2**53, so this square root equals it bit for bit
        out = np.sqrt(_squared_distances(fg), dtype=np.float64)
    else:
        out = np.full(fg.shape, np.inf if fg.any() else 0.0)
    return mask.with_data(out, value_kind="distance", element_encoding="f32")


def _squared_distances(fg: np.ndarray) -> np.ndarray:
    """Exact squared distance to the nearest background voxel of fg.

    Separable, one axis at a time (Saito & Toriwaki, Pattern Recogn. 1994;
    Meijster, Roerdink & Hesselink 2000). Along x, g is the squared
    distance to the nearest background voxel of the row, from running
    extrema of the background indices, or the sentinel big, which exceeds
    every squared distance in the volume, for a row without one. Along y,
    then z, g becomes min over s of g[i ± s] + s², taken as shifted
    minima for s = 1, 2, ... until s² >= max(g), checked every fourth
    shift: as g >= 0, no later shift can lower a value. The cost so grows
    with the largest distance, as n⁴ when one voxel of an n³ volume is
    background. A pass reads no neighbours across the other axes, so the y
    pass runs over z-pieces and the z pass over y-pieces (volume.pieces),
    each with piece-sized buffers and stopped at its own max(g); g is the
    one whole-volume grid. g is held, and returned, in the narrowest
    unsigned type that holds big + n² for the longest axis n, so no sum
    overflows; as np.sqrt of uint16 is float32, a caller casts to float64
    first.
    """
    shape = fg.shape
    nx = shape[-1]
    big = sum((n - 1) ** 2 for n in shape) + 1
    dtype = np.min_scalar_type(big + max(shape) ** 2)

    # x pass: nearest background index at or left of x (-nx if none) and at
    # or right of x (2nx - 1 if none), so a row without one gives d >= nx
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
    del left, right
    np.multiply(g, g, out=g, where=~far)
    g[far] = big
    del far

    shifts = []
    for axis in (1, 0):
        n = shape[axis]
        # pieces along the axis that is neither x nor this pass's own
        across = 1 - axis
        most = 0
        for a, b in pieces(shape[across], n * nx):
            piece = (slice(None),) * across + (slice(a, b),)
            src = g[piece]
            out = src.copy()
            scratch = np.empty_like(out)
            s = 1
            while s < n:
                if s % 4 == 1 and s * s >= out.max():
                    break
                lo = (slice(None),) * axis + (slice(None, -s),)
                hi = (slice(None),) * axis + (slice(s, None),)
                tmp = scratch[lo]
                np.add(src[lo], s * s, out=tmp)
                np.minimum(out[hi], tmp, out=out[hi])
                np.add(src[hi], s * s, out=tmp)
                np.minimum(out[lo], tmp, out=out[lo])
                s += 1
            src[...] = out
            most = max(most, s - 1)
        shifts.append(most)
    log.debug("squared EDT: shape %s, %s, %d y shifts, %d z shifts",
              shape, dtype.name, *shifts)
    return g


def local_thickness(mask: Volume) -> Volume:
    """Largest-inscribed-ball diameter covering each pore voxel, in microns.

    thickness(v) = 2 * voxel_size * max{ r(c) : |c - v| <= r(c) } over
    foreground voxels c, and 0 on background. Computed on the exact integer
    r² to the nearest background voxel, from ``_squared_distances``, with
    the voxel size of the mask's header.

    The pore voxels' balls are painted as x-chords (``_paint_chords``). A
    ball of r² = s is the union of one chord per (dz, dy) with e = dz² + dy²
    <= s, of half-width w = isqrt(s - e) about the centre's x. Each chord is
    written as one entry at its middle, into the level of its w, and the
    levels are folded into one grid by maximum from the widest down, the
    grid being widened by one voxel each way along x before each lower
    level. Widening is a running maximum over x - 1..x + 1 (van Herk,
    Pattern Recogn. Lett. 1992), and it commutes with the maximum of the
    folds, so an entry of level w ends up widened exactly w times: the
    maximum over x - w..x + w, which is its chord, clipped at the x faces
    as the ball is. Every voxel so gets the largest s of the chords that
    cover it, which is the largest s of the balls that cover it. A ball
    that a neighbouring voxel's ball holds adds nothing to that maximum, so
    it is not painted (``_uncontained``).
    """
    fg = mask.data.astype(bool, copy=False)
    th2 = _painted_r2(fg)
    if th2 is None:
        out = np.full(fg.shape, np.inf if fg.any() else 0.0)
    else:
        th2[~fg] = 0
        out = _thickness_um(th2, mask.header.voxel_size_um)
    return mask.with_data(out, value_kind="throat_size", element_encoding="f32")


def _painted_r2(fg: np.ndarray) -> np.ndarray | None:
    """The largest painted r² of the balls covering each voxel of fg, in
    _paint_chords' narrow type; None when fg is all foreground (no ball is
    bounded) or has none (no ball exists). A ball reaches its nearest
    background voxel, so background voxels next to pores hold an r² too."""
    if fg.all() or not fg.any():
        return None
    # no frame holds the r² grid once _chord_plan returns, so the levels
    # run without it on every Python (up to 3.10 a caller holds the
    # arguments of a call until it returns)
    return _paint_chords(fg.shape, *_chord_plan(_squared_distances(fg)))


def _thickness_um(r2: np.ndarray, vs: float) -> np.ndarray:
    """2 * vs * sqrt(r²) in float64: the one rule for a painted volume and
    for its distinct levels, so both round alike."""
    out = r2.astype(np.float64)
    np.sqrt(out, out=out)
    np.multiply(out, 2.0 * vs, out=out)
    return out


def _ball(shape, r2_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets of every ball of squared radius up to r2_max, by length.

    Returns (d2, steps): the (3, K) offsets v in the box |v_i| <= pad_i,
    stably sorted by d2 = |v|², so that the ball of squared radius s is the
    prefix with d2 <= s. A ball reaches no further than sqrt(r2_max), and an
    offset beyond n - 1 leaves the volume from every voxel, so pad_i is the
    smaller of the two.
    """
    pad = [min(math.isqrt(r2_max), n - 1) for n in shape]
    steps = (np.indices([2 * p + 1 for p in pad]).reshape(3, -1)
             - np.array(pad)[:, None])
    d2 = (steps * steps).sum(axis=0)
    by_length = np.argsort(d2, kind="stable")
    return d2[by_length], steps[:, by_length]


def _paint(centres: np.ndarray, r2: np.ndarray, d2: np.ndarray,
           steps: np.ndarray) -> np.ndarray:
    """Per voxel, the largest r² of the given centres' balls that cover it.

    ``centres`` is a boolean grid, ``r2`` the squared radii of its set
    voxels in flat order, and (d2, steps) the ball offsets from ``_ball``.
    The centres are grouped by r², and each group's balls are scattered,
    in pieces, into a grid padded so that no ball wraps. Groups go in
    ascending r² order, so every covered voxel ends up holding its largest
    covering r²; uncovered voxels hold 0. local_thickness paints through
    ``_paint_chords``; this direct scatter is kept as its reference.
    """
    pad = steps.max(axis=1).tolist()
    flat_centres = np.flatnonzero(np.pad(centres, [(p, p) for p in pad]))
    th2 = np.zeros([n + 2 * p for n, p in zip(centres.shape, pad)], dtype=np.int32)
    offsets = np.array(th2.strides) // th2.itemsize @ steps

    order = np.argsort(r2, kind="stable")
    flat_centres, r2 = flat_centres[order], r2[order]
    values, starts = np.unique(r2, return_index=True)
    flat = th2.reshape(-1)
    for value, group in zip(values.tolist(), np.split(flat_centres, starts[1:])):
        ball = offsets[:np.searchsorted(d2, value, side="right")]
        for a, b in pieces(group.size, ball.size):
            flat[(group[a:b, None] + ball).ravel()] = value
    return th2[tuple(slice(p, p + n) for p, n in zip(pad, centres.shape))]


def _containing_r2(shape, r2_max: int) -> np.ndarray:
    """need[k - 1, s] for k = 1, 2, 3: the least r² above s whose ball
    about a face (k = 1), edge (2) or corner (3) neighbour holds the ball
    of r² = s, for every neighbour of that kind and every s <= r2_max.
    Above s, so that a holder is larger than the ball it holds, also where
    the volume's faces clip both balls to the same voxels.

    An offset q of the ball lies in the ball of r² = t about the neighbour
    d when |q - d|² <= t, and over the neighbours with |d|² = k the largest
    |q - d|² is |q|² + k + 2 * (the sum of the k largest |q_i|). need is
    the running maximum of that over the offsets by |q|². Offsets are taken
    from the box of ``_ball``, |q_i| <= n_i - 1, as no other one stays in
    the volume, and from its nonnegative octant, as the value depends only
    on |q_i|: one z plane at a time, so the table costs no more memory than
    one plane of the box.
    """
    pad = [min(math.isqrt(r2_max), n - 1) for n in shape]
    need = np.zeros((3, r2_max + 1), dtype=np.int64)
    y, x = np.indices((pad[1] + 1, pad[2] + 1)).reshape(2, -1)
    for z in range(pad[0] + 1):
        q = np.sort([np.full_like(y, z), y, x], axis=0)
        e = (q * q).sum(axis=0)
        inside = e <= r2_max
        e, q = e[inside], q[:, inside]
        # the largest |q_i|, the two largest, all three
        top = np.cumsum(q[::-1], axis=0)
        for k in range(3):
            np.maximum.at(need[k], e, e + k + 1 + 2 * top[k])
    np.maximum.accumulate(need, axis=1, out=need)
    return np.maximum(need, np.arange(1, r2_max + 2))


def _max3(a: np.ndarray, axis: int) -> np.ndarray:
    """max(a[i - 1], a[i], a[i + 1]) along axis, of the neighbours that
    exist."""
    out = a.copy()
    lo = (slice(None),) * axis + (slice(None, -1),)
    hi = (slice(None),) * axis + (slice(1, None),)
    np.maximum(out[hi], a[lo], out=out[hi])
    np.maximum(out[lo], a[hi], out=out[lo])
    return out


def _max3_planes(a: np.ndarray, core: slice) -> np.ndarray:
    """_max3(a, 0)[core], computed for the planes of core only."""
    out = a[core].copy()
    below = a[max(core.start - 1, 0):core.stop - 1]
    above = a[core.start + 1:core.stop + 1]
    np.maximum(out[len(out) - len(below):], below, out=out[len(out) - len(below):])
    np.maximum(out[:len(above)], above, out=out[:len(above)])
    return out


def _uncontained(r2: np.ndarray) -> np.ndarray:
    """The centres of r2 (the voxels with r² > 0) whose ball no ball about
    one of their 26 neighbours holds: a neighbourhood test in the spirit of
    the distance ridge of Hildebrand & Rüegsegger (J. Microsc. 1997).

    Painting only these paints the same maximum everywhere: a held ball is
    smaller than its holder, so a chain of holders ends at an uncontained
    ball that covers all it covers. A neighbour holds the ball of r² = s
    when its own r² is at least need[k - 1, s] (``_containing_r2``). The
    largest r² among the face neighbours comes from running maxima over
    three voxels along one axis, among the edge ones along two, among the
    corners along all three; each box also holds the voxel itself and
    nearer neighbours, which is harmless, as need grows with k and exceeds
    s. Computed over z-pieces (volume.pieces), each read with the plane on
    either side.
    """
    need = _containing_r2(r2.shape, int(r2.max()))
    need = need.astype(np.min_scalar_type(int(need[2, -1])))
    keep = r2 > 0
    nz = r2.shape[0]
    for a, b in pieces(nz, r2[0].size):
        lo = max(a - 1, 0)
        # r2 <= r2_max < need[2, -1], so need's narrow type holds it
        g = r2[lo:b + 1].astype(need.dtype, copy=False)
        core = slice(a - lo, b - lo)
        s = g[core].astype(np.intp)
        x = _max3(g, 2)
        y = _max3(g, 1)
        xy = _max3(x, 1)
        face = np.maximum(x[core], y[core])
        np.maximum(face, _max3_planes(g, core), out=face)
        held = face >= need[0][s]
        edge = np.maximum(xy[core], _max3_planes(x, core))
        np.maximum(edge, _max3_planes(y, core), out=edge)
        held |= edge >= need[1][s]
        held |= _max3_planes(xy, core) >= need[2][s]
        keep[a:b] &= ~held
    return keep


def _chord_plan(r2: np.ndarray) -> tuple:
    """The chords that ``_paint_chords`` writes for the grid r2, which
    holds each centre's r² and 0 elsewhere, as (pad, offsets, values,
    groups, cuts). Only the ``_uncontained`` balls are painted. values
    holds their distinct r² in ascending order, and groups[g] the flat
    indices of the centres of r² values[g] into the grid padded by pad, in
    the narrowest signed type that holds them (signed, so that adding the
    int64 offsets stays int64). offsets are the flat offsets in that grid
    of the (dz, dy) chords, sorted by e = dz² + dy², and level w of group g
    is offsets[cuts[g, w + 1]:cuts[g, w]], those with
    s - (w+1)² < e <= s - w² for s = values[g]. The count of entries, one
    per painted centre and (dz, dy) of its ball, is logged.
    """
    shape = r2.shape
    r2_max = int(r2.max())
    n_balls = int(np.count_nonzero(r2))
    centres = _uncontained(r2)
    r2 = r2[centres]
    levels = math.isqrt(r2_max) + 1
    # the (dz, dy) offsets by e: a ball from _ball of a volume one voxel wide
    e, steps = _ball(shape[:2] + (1,), r2_max)
    pad = steps.max(axis=1).tolist()
    grid_shape = [n + 2 * p for n, p in zip(shape, pad)]
    offsets = np.array([grid_shape[1] * grid_shape[2], grid_shape[2], 1]) @ steps
    flat_centres = np.flatnonzero(np.pad(centres, [(p, p) for p in pad])).astype(
        np.min_scalar_type(-math.prod(grid_shape)))
    # the same stable order, but a narrow dtype lets numpy sort by radix
    order = np.argsort(r2.astype(np.min_scalar_type(r2_max)), kind="stable")
    values, starts, sizes = np.unique(r2[order], return_index=True,
                                      return_counts=True)
    # cuts[g, w]: the offsets of group g with e <= s - w²
    w2 = np.arange(levels + 1) ** 2
    cuts = np.searchsorted(e, values[:, None] - w2, side="right")
    log.debug("local thickness: %d pore voxels, %d of their balls painted, "
              "%d r2 groups, %d chord entries in %d levels", n_balls,
              r2.size, values.size, int(sizes @ cuts[:, 0]), levels)
    return pad, offsets, values, np.split(flat_centres[order], starts[1:]), cuts


def _paint_chords(shape: tuple, pad: list, offsets: np.ndarray,
                  values: np.ndarray, groups: list,
                  cuts: np.ndarray) -> np.ndarray:
    """``_paint`` as x-chords, one level of half-width at a time, of the
    chords of ``_chord_plan``.

    The same values as ``_paint`` of the centres of the grid r2 that
    ``_chord_plan`` was given and their r², in the narrowest unsigned type
    that holds the largest; local_thickness says why it is exact. Level w
    holds the chords of half-width w. Levels go
    from R = isqrt(max r2) down to 0. Each is scattered into a grid padded
    by pad in z and y, in ascending r² order so that the largest r² written
    to a voxel stays, and folded into the output by maximum. Before each
    lower level the output is widened by one voxel each way along x.
    """
    levels = cuts.shape[1] - 1
    dtype = np.min_scalar_type(int(values[-1]))
    grid = np.empty([n + 2 * p for n, p in zip(shape, pad)], dtype=dtype)
    interior = grid[tuple(slice(p, p + n) for p, n in zip(pad, shape))]
    out = np.zeros(shape, dtype=dtype)
    pair = np.empty(shape[:2] + (shape[2] - 1,), dtype=dtype)
    flat = grid.reshape(-1)
    for w in range(levels - 1, -1, -1):
        grid.fill(0)
        for value, group, (hi, lo) in zip(values.tolist(), groups,
                                          cuts[:, w:w + 2].tolist()):
            chords = offsets[lo:hi]
            if not chords.size:
                continue
            for a, b in pieces(group.size, chords.size):
                flat[(group[a:b, None] + chords).ravel()] = value
        np.maximum(out, interior, out=out)
        if w and shape[2] > 1:
            # out[x] = max(out[x - 1], out[x], out[x + 1]) through pair,
            # which holds max(out[x], out[x + 1])
            np.maximum(out[..., :-1], out[..., 1:], out=pair)
            np.maximum(pair[..., :-1], pair[..., 1:], out=out[..., 1:-1])
            out[..., 0] = pair[..., 0]
            out[..., -1] = pair[..., -1]
    return out


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
    params = _histogram_params(cutoffs, n_bins)
    values = np.asarray(thickness.data, dtype=np.float64).ravel()
    finite = values[np.isfinite(values) & (values > 0)]
    if finite.size == 0:
        raise _nothing_to_bin(unbounded=bool((values > 0).any()))
    return _histogram(finite, None, *params)


def _pore_throat_distribution(mask: Volume, cutoffs: tuple[float, float],
                              n_bins: int) -> PoreThroatDistribution:
    """throat_distribution(local_thickness(mask), cutoffs, n_bins), equal to
    it, without the float64 thickness volume.

    The pore voxels hold few distinct painted r², so the histogram is taken
    over those levels, each weighted by its voxel count, and each level is
    turned into a thickness by the rule local_thickness applies per voxel.
    """
    params = _histogram_params(cutoffs, n_bins)
    fg = mask.data.astype(bool, copy=False)
    th2 = _painted_r2(fg)
    if th2 is None:
        raise _nothing_to_bin(unbounded=bool(fg.any()))
    r2, counts = np.unique(th2[fg], return_counts=True)
    return _histogram(_thickness_um(r2, mask.header.voxel_size_um), counts,
                      *params)


def _nothing_to_bin(unbounded: bool) -> NoPoreVoxels:
    """The error for a thickness without a positive finite value, naming
    which of the two opposite causes it is."""
    if unbounded:
        return NoPoreVoxels("no solid voxel: every pore voxel's inscribed "
                            "ball is unbounded, so no thickness is finite")
    return NoPoreVoxels("no pore voxel: no positive thickness values to bin")


def _histogram_params(cutoffs, n_bins) -> tuple[float, float, int]:
    """(t_micro_um, t_macro_um, n_bins), checked; else BadParams."""
    bad_cutoffs = BadParams(f"cutoffs must be two numbers, got {cutoffs!r}")
    try:
        t_micro_um, t_macro_um = cutoffs
    except (TypeError, ValueError) as exc:
        raise bad_cutoffs from exc
    if not all(isinstance(c, numbers.Real) for c in (t_micro_um, t_macro_um)):
        raise bad_cutoffs
    t_micro_um, t_macro_um = float(t_micro_um), float(t_macro_um)
    try:
        n_bins = operator.index(n_bins)
    except TypeError as exc:
        raise BadParams(f"n_bins must be an integer, got {n_bins!r}") from exc
    if n_bins < 1:
        raise BadParams(f"n_bins must be >= 1, got {n_bins}")
    if not 0 < t_micro_um < t_macro_um:
        raise BadParams(
            f"need 0 < t_micro < t_macro, got {t_micro_um}, {t_macro_um}")
    return t_micro_um, t_macro_um, n_bins


def _histogram(values: np.ndarray, counts: np.ndarray | None,
               t_micro_um: float, t_macro_um: float,
               n_bins: int) -> PoreThroatDistribution:
    """The distribution of positive finite thickness ``values``, held by
    ``counts`` voxels each, or by one voxel each when counts is None."""
    if counts is None:
        n = values.size
        n_micro = np.count_nonzero(values < t_micro_um)
        n_macro = np.count_nonzero(values > t_macro_um)
    else:
        n = counts.sum()
        n_micro = counts[values < t_micro_um].sum()
        n_macro = counts[values > t_macro_um].sum()
    n, n_micro, n_macro = int(n), int(n_micro), int(n_macro)
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        lo, hi = lo / 1.01, hi * 1.01
    edges = np.geomspace(lo, hi, n_bins + 1)
    edges[0], edges[-1] = lo, hi
    hist, _ = np.histogram(values, bins=edges, weights=counts)

    # a voxel count over n is the mean of the per-voxel flags, rounded once
    f_micro = n_micro / n
    f_macro = n_macro / n
    f_meso = 1.0 - f_micro - f_macro

    centers = np.sqrt(edges[:-1] * edges[1:])
    peaks = [float(centers[i]) for i in _prominent_peaks(hist, 0.05 * n)]
    return PoreThroatDistribution(
        bin_edges_um=edges, counts=hist, n_values=n,
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
        try:
            return cls(**{key: tuple(float(v) for v in json_array(d[key], float, key))
                          for key in ("knots_intensity", "knots_throat_um")})
        except (KeyError, TypeError) as exc:
            raise BadParams(f"bad calibration JSON: {exc}") from exc


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
